#include "rdma/memory_region.h"

#include <sys/mman.h>
#include <unistd.h>

#include <utility>

#include "common/logging.h"

// GCC defines __SANITIZE_ADDRESS__; clang exposes __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define PANDORA_ASAN_REGIONS 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PANDORA_ASAN_REGIONS 1
#endif
#endif

#if defined(PANDORA_ASAN_REGIONS)
#include <sanitizer/asan_interface.h>
#endif

namespace pandora {
namespace rdma {

namespace {

size_t PageSize() {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

MemoryRegion::MemoryRegion(RKey rkey, size_t size, std::string name)
    : rkey_(rkey), size_(size), name_(std::move(name)) {
  const size_t page = PageSize();
  pages_bytes_ = (size + page - 1) / page * page;
  // The trailing guard page also keeps a zero-size region's mapping
  // non-empty (mmap rejects length 0). Page alignment satisfies the 8-byte
  // alignment the atomic accessors require at 8-byte-aligned offsets.
  void* mapping = ::mmap(nullptr, pages_bytes_ + page, PROT_NONE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  PANDORA_CHECK(mapping != MAP_FAILED);
  base_ = static_cast<char*>(mapping);
  if (pages_bytes_ > 0) {
    PANDORA_CHECK(::mprotect(base_, pages_bytes_, PROT_READ | PROT_WRITE) ==
                  0);
  }
#if defined(PANDORA_ASAN_REGIONS)
  ASAN_POISON_MEMORY_REGION(base_ + size_, pages_bytes_ - size_);
#endif
}

MemoryRegion::~MemoryRegion() {
#if defined(PANDORA_ASAN_REGIONS)
  ASAN_UNPOISON_MEMORY_REGION(base_ + size_, pages_bytes_ - size_);
#endif
  ::munmap(base_, pages_bytes_ + PageSize());
}

void MemoryRegion::Reset() {
  if (pages_bytes_ == 0) return;
  PANDORA_CHECK(::madvise(base_, pages_bytes_, MADV_DONTNEED) == 0);
}

}  // namespace rdma
}  // namespace pandora
