#ifndef PANDORA_CLUSTER_MEMBERSHIP_H_
#define PANDORA_CLUSTER_MEMBERSHIP_H_

#include <atomic>
#include <cstdint>

#include "common/fixed_bitset.h"
#include "rdma/types.h"

namespace pandora {
namespace cluster {

/// Shared view of which memory servers are alive, plus a reconfiguration
/// barrier.
///
/// On a memory-server failure the paper stops the whole DKVS briefly to
/// install the new replica configuration (§3.2.5, §6.3 "fail-over
/// throughput drops to zero but rapidly recovers"). Coordinators poll
/// `reconfiguring()` between transactions and stall while it is set.
class Membership {
 public:
  Membership() = default;

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  void MarkMemoryAlive(rdma::NodeId node) {
    dead_memory_.Clear(node);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  void MarkMemoryDead(rdma::NodeId node) {
    dead_memory_.Set(node);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  bool IsMemoryAlive(rdma::NodeId node) const {
    return !dead_memory_.Test(node);
  }

  /// Configuration epoch; bumped on every membership change so compute
  /// servers can detect staleness cheaply.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// The barrier nests: a recovery running concurrently with an online
  /// reconfiguration must not clear the other's stall when it finishes,
  /// so Begin/End form a counter rather than a flag.
  void BeginReconfiguration() {
    reconfiguring_.fetch_add(1, std::memory_order_acq_rel);
    barrier_changes_.fetch_add(1, std::memory_order_acq_rel);
  }
  void EndReconfiguration() {
    barrier_changes_.fetch_add(1, std::memory_order_acq_rel);
    reconfiguring_.fetch_sub(1, std::memory_order_acq_rel);
  }
  bool reconfiguring() const {
    return reconfiguring_.load(std::memory_order_acquire) > 0;
  }
  /// Begin/End calls so far. A poller that samples it alongside
  /// reconfiguring() notices every barrier, even one that rose and fell
  /// between two of its polls.
  uint64_t barrier_changes() const {
    return barrier_changes_.load(std::memory_order_acquire);
  }

 private:
  AtomicFixedBitset<rdma::kMaxNodes> dead_memory_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int> reconfiguring_{0};
  std::atomic<uint64_t> barrier_changes_{0};
};

}  // namespace cluster
}  // namespace pandora

#endif  // PANDORA_CLUSTER_MEMBERSHIP_H_
