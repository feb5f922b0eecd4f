#ifndef PANDORA_RDMA_MEMORY_REGION_H_
#define PANDORA_RDMA_MEMORY_REGION_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "rdma/types.h"

namespace pandora {
namespace rdma {

/// A registered, RDMA-accessible memory region owned by a memory server.
///
/// The buffer is a private anonymous mapping: page-aligned and demand-zero.
/// It reads as zero from construction, and the kernel supplies a page only
/// when the page is first written, so a server pays resident memory for the
/// pages a run touches, not for the configured region size (most of a
/// per-coordinator log area is never written). One PROT_NONE guard page
/// follows the region, so a raw access past the end faults; under ASan the
/// bytes between size() and the next page boundary are poisoned as well.
/// Reset() zeroes the region and hands its pages back to the kernel.
///
/// Compute servers can only touch the region through QueuePair verbs
/// carrying its rkey — never through a raw pointer — which is what makes
/// the simulation faithfully one-sided.
class MemoryRegion {
 public:
  MemoryRegion(RKey rkey, size_t size, std::string name);
  ~MemoryRegion();

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  RKey rkey() const { return rkey_; }
  size_t size() const { return size_; }
  const std::string& name() const { return name_; }

  /// Raw base pointer. Reserved for the owning memory server's control path
  /// (initial data load, region teardown) — the data path must go through
  /// verbs.
  char* base() { return base_; }
  const char* base() const { return base_; }

  bool Contains(uint64_t offset, size_t len) const {
    return offset <= size_ && len <= size_ - offset;
  }

  /// Zeroes the whole region and releases its resident pages
  /// (madvise(MADV_DONTNEED)); they come back zero-filled on next touch.
  /// Control path only: no verb may target the region concurrently.
  void Reset();

 private:
  RKey rkey_;
  size_t size_;
  std::string name_;
  size_t pages_bytes_;  // size_ rounded up to a whole page.
  char* base_;          // Mapping of pages_bytes_ plus one guard page.
};

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_MEMORY_REGION_H_
