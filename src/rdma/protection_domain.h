#ifndef PANDORA_RDMA_PROTECTION_DOMAIN_H_
#define PANDORA_RDMA_PROTECTION_DOMAIN_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/fixed_bitset.h"
#include "common/status.h"
#include "rdma/memory_region.h"
#include "rdma/types.h"

namespace pandora {
namespace rdma {

/// The memory-server side of the simulated NIC: owns the registered regions
/// of one memory server and enforces access control.
///
/// Access revocation implements the paper's *active-link termination*
/// (§3.2.2): after the failure detector suspects compute server C, it asks
/// each memory server (via the control path, served by the wimpy cores) to
/// revoke C's RDMA rights, so any in-flight or future verb from C is
/// dropped. This holds even if the suspicion was a false positive (Cor1).
class ProtectionDomain {
 public:
  explicit ProtectionDomain(NodeId owner);

  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  NodeId owner() const { return owner_; }

  /// Crash emulation for the *memory* side: a halted memory server fails
  /// every verb with Unavailable until resumed. Region contents are
  /// preserved only if the simulation chooses to resume it (used to model
  /// re-replication; a real DRAM node would lose state).
  void Halt() { halted_.store(true, std::memory_order_release); }
  void Resume() { halted_.store(false, std::memory_order_release); }
  bool IsHaltedMemory() const {
    return halted_.load(std::memory_order_acquire);
  }

  /// Registers a new region of `size` bytes and returns its rkey.
  /// Control-path only.
  RKey RegisterRegion(size_t size, std::string name);

  /// Looks up a region by rkey; nullptr if unknown. Control-path only
  /// (initial data load). The data path goes through the Execute* methods.
  MemoryRegion* GetRegion(RKey rkey);

  /// Control-path RPC: revoke / restore `node`'s RDMA rights.
  void RevokeNode(NodeId node);
  void RestoreNode(NodeId node);
  bool IsRevoked(NodeId node) const;

  /// --- Data path (invoked by QueuePair only) -------------------------
  /// Each verb validates the source node against the revocation set and the
  /// target range against the region bounds, then applies the operation
  /// with word-atomic semantics.

  Status ExecuteRead(NodeId src, RKey rkey, uint64_t offset, void* dst,
                     size_t len) const;
  Status ExecuteWrite(NodeId src, RKey rkey, uint64_t offset,
                      const void* from, size_t len);
  Status ExecuteCompareSwap(NodeId src, RKey rkey, uint64_t offset,
                            uint64_t expected, uint64_t desired,
                            uint64_t* observed);
 private:
  Status Check(NodeId src, RKey rkey, uint64_t offset, size_t len,
               size_t alignment, const MemoryRegion** region) const;

  /// Registered regions. Registration is control-path only; the data path
  /// reads `num_regions_` with acquire ordering and indexes the fixed
  /// array lock-free — a verb must never take a mutex, since every
  /// simulated RDMA operation of every compute thread funnels through
  /// here and a contended lock would dominate the modelled sub-µs verbs.
  static constexpr size_t kMaxRegions = 256;

  NodeId owner_;
  std::mutex mu_;  // Serializes RegisterRegion (control path only).
  std::array<std::unique_ptr<MemoryRegion>, kMaxRegions> regions_;
  std::atomic<uint32_t> num_regions_{0};
  AtomicFixedBitset<kMaxNodes> revoked_;
  std::atomic<bool> halted_{false};
};

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_PROTECTION_DOMAIN_H_
