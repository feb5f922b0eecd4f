#include "common/atomic_copy.h"

#include <atomic>
#include <cassert>
#include <cstring>

namespace pandora {

namespace {

std::atomic<uint64_t>* AsAtomic(void* p) {
  assert(reinterpret_cast<uintptr_t>(p) % 8 == 0);
  return reinterpret_cast<std::atomic<uint64_t>*>(p);
}

const std::atomic<uint64_t>* AsAtomic(const void* p) {
  assert(reinterpret_cast<uintptr_t>(p) % 8 == 0);
  return reinterpret_cast<const std::atomic<uint64_t>*>(p);
}

}  // namespace

void AtomicCopyFromRegion(void* dst, const void* region_src, size_t size) {
  assert(size % 8 == 0);
  const std::atomic<uint64_t>* src = AsAtomic(region_src);
  uint64_t* out = static_cast<uint64_t*>(dst);
  for (size_t i = 0; i < size / 8; ++i) {
    out[i] = src[i].load(std::memory_order_relaxed);
  }
}

void AtomicCopyToRegion(void* region_dst, const void* src, size_t size) {
  assert(size % 8 == 0);
  std::atomic<uint64_t>* dst = AsAtomic(region_dst);
  const uint64_t* in = static_cast<const uint64_t*>(src);
  for (size_t i = 0; i < size / 8; ++i) {
    dst[i].store(in[i], std::memory_order_relaxed);
  }
}

bool AtomicCas64(void* region_addr, uint64_t expected, uint64_t desired,
                 uint64_t* observed) {
  uint64_t exp = expected;
  const bool ok = AsAtomic(region_addr)
                      ->compare_exchange_strong(exp, desired,
                                                std::memory_order_acq_rel);
  if (observed != nullptr) *observed = ok ? expected : exp;
  return ok;
}

}  // namespace pandora
