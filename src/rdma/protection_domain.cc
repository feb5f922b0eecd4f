#include "rdma/protection_domain.h"

#include <utility>

#include "common/atomic_copy.h"
#include "common/logging.h"

namespace pandora {
namespace rdma {

ProtectionDomain::ProtectionDomain(NodeId owner) : owner_(owner) {}

RKey ProtectionDomain::RegisterRegion(size_t size, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t index = num_regions_.load(std::memory_order_relaxed);
  PANDORA_CHECK(index < kMaxRegions);
  const RKey rkey = static_cast<RKey>(index);
  regions_[index] =
      std::make_unique<MemoryRegion>(rkey, size, std::move(name));
  // Publish the slot: data-path readers acquire num_regions_ and only then
  // dereference regions_[rkey].
  num_regions_.store(index + 1, std::memory_order_release);
  return rkey;
}

MemoryRegion* ProtectionDomain::GetRegion(RKey rkey) {
  if (rkey >= num_regions_.load(std::memory_order_acquire)) return nullptr;
  return regions_[rkey].get();
}

void ProtectionDomain::RevokeNode(NodeId node) { revoked_.Set(node); }

void ProtectionDomain::RestoreNode(NodeId node) { revoked_.Clear(node); }

bool ProtectionDomain::IsRevoked(NodeId node) const {
  return revoked_.Test(node);
}

Status ProtectionDomain::Check(NodeId src, RKey rkey, uint64_t offset,
                               size_t len, size_t alignment,
                               const MemoryRegion** region) const {
  if (halted_.load(std::memory_order_acquire)) {
    return Status::Unavailable("memory server crashed");
  }
  if (revoked_.Test(src)) {
    return Status::PermissionDenied("RDMA rights revoked (link terminated)");
  }
  if (rkey >= num_regions_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("unknown rkey");
  }
  const MemoryRegion* r = regions_[rkey].get();
  if (!r->Contains(offset, len)) {
    return Status::InvalidArgument("access outside region bounds");
  }
  if (offset % alignment != 0) {
    return Status::InvalidArgument("misaligned access");
  }
  *region = r;
  return Status::OK();
}

Status ProtectionDomain::ExecuteRead(NodeId src, RKey rkey, uint64_t offset,
                                     void* dst, size_t len) const {
  const MemoryRegion* region;
  PANDORA_RETURN_NOT_OK(Check(src, rkey, offset, len, /*alignment=*/8,
                              &region));
  AtomicCopyFromRegion(dst, region->base() + offset, len);
  return Status::OK();
}

Status ProtectionDomain::ExecuteWrite(NodeId src, RKey rkey, uint64_t offset,
                                      const void* from, size_t len) {
  const MemoryRegion* region;
  PANDORA_RETURN_NOT_OK(Check(src, rkey, offset, len, /*alignment=*/8,
                              &region));
  AtomicCopyToRegion(const_cast<char*>(region->base()) + offset, from, len);
  return Status::OK();
}

Status ProtectionDomain::ExecuteCompareSwap(NodeId src, RKey rkey,
                                            uint64_t offset,
                                            uint64_t expected,
                                            uint64_t desired,
                                            uint64_t* observed) {
  const MemoryRegion* region;
  PANDORA_RETURN_NOT_OK(Check(src, rkey, offset, sizeof(uint64_t),
                              /*alignment=*/8, &region));
  AtomicCas64(const_cast<char*>(region->base()) + offset, expected, desired,
              observed);
  // Like the hardware verb, a value mismatch is not an error: the verb
  // completes successfully and returns the observed value.
  return Status::OK();
}

}  // namespace rdma
}  // namespace pandora
