#ifndef PANDORA_RDMA_DOORBELL_GROUP_H_
#define PANDORA_RDMA_DOORBELL_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rdma/queue_pair.h"
#include "rdma/types.h"

namespace pandora {
namespace rdma {

/// Simulated completion time of the verbs posted in one doorbell: the
/// slowest verb's round trip plus the serialization time (per_byte_ns x
/// payload bytes) of every *other* verb. Latencies overlap, but payloads
/// share the issuing NIC's link, so batching saves round trips and never
/// bandwidth. With per_byte_ns = 0 this is exactly the slowest RTT. Under
/// NetworkConfig::sequential_verbs nothing overlaps: the wait is the sum
/// of the verbs' round trips.
class DoorbellWait {
 public:
  /// Accounts one verb that reached the fabric, given its RTT and the
  /// network model it was issued under.
  void Add(uint64_t rtt_ns, const NetworkModel& net) {
    if (net.config().sequential_verbs) {
      serialization_ns_ += rtt_ns;  // Its own round trip, in full.
      return;
    }
    const uint64_t serialization_ns = rtt_ns - net.BaseRttNanos();
    serialization_ns_ += serialization_ns;
    if (rtt_ns > max_rtt_ns_) {
      max_rtt_ns_ = rtt_ns;
      slowest_serialization_ns_ = serialization_ns;
    }
  }

  uint64_t ns() const {
    return max_rtt_ns_ + serialization_ns_ - slowest_serialization_ns_;
  }

  void Reset() { *this = DoorbellWait(); }

 private:
  uint64_t max_rtt_ns_ = 0;
  uint64_t serialization_ns_ = 0;
  uint64_t slowest_serialization_ns_ = 0;
};

/// Verbs rung with one doorbell: the verbs posted to one queue pair form
/// an ordered chain, and the group has one completion wait and one failure
/// rule.
///
/// Order: RC in-order delivery (§3.1.1) applies a QP's verbs in post
/// order, so a verb observes every earlier verb of its chain — a read
/// posted behind a lock CAS sees the post-CAS lock word, an unlock lands
/// only after the log record and applies ahead of it. The simulated
/// QueuePair applies each verb at post time, in call order, so ordering
/// holds by construction.
///
/// Completion: Execute() waits out one DoorbellWait over every verb of the
/// group, whichever chain it is on.
///
/// Failure: a failed verb moves its own chain into an error state, and
/// every later verb on that QP is flushed without applying (Aborted,
/// mirroring IBV_WC_WR_FLUSH_ERR). Chains to other QPs are unaffected.
/// Execute() returns the first error in post order; failures() and
/// status() keep each verb's own completion.
class DoorbellGroup {
 public:
  /// A verb that did not complete: its index in the group, the memory
  /// server it went to, and its status — its own error, or Aborted when
  /// its chain had failed earlier.
  struct Failure {
    size_t verb;
    NodeId dst;
    Status status;
  };

  DoorbellGroup() = default;

  DoorbellGroup(const DoorbellGroup&) = delete;
  DoorbellGroup& operator=(const DoorbellGroup&) = delete;

  /// Each poster appends a verb to `qp`'s chain and returns its index in
  /// the group (for status()).
  size_t Read(QueuePair* qp, RKey rkey, uint64_t offset, void* dst,
              size_t len);
  size_t Write(QueuePair* qp, RKey rkey, uint64_t offset, const void* src,
               size_t len);
  size_t CompareSwap(QueuePair* qp, RKey rkey, uint64_t offset,
                     uint64_t expected, uint64_t desired, uint64_t* observed);

  /// Rings the doorbell: waits once for the whole group, returns the first
  /// verb error in post order, and empties the group for the next posting.
  Status Execute();

  /// Drops a posting abandoned by a crash or an early return, without
  /// waiting. The verbs already posted have landed (the node issued them);
  /// none of them, nor their failures or wait, reaches the next Execute().
  void Reset();

  /// Verbs posted since the last Execute() or Reset().
  size_t size() const { return rung_ ? 0 : posted_; }
  bool empty() const { return size() == 0; }

  /// The failed verbs, in post order, of the group being posted or, after
  /// Execute(), of the group just rung — until the next post or Reset().
  const std::vector<Failure>& failures() const { return failures_; }
  /// Completion status of verb `index` of that group: OK unless it failed.
  const Status& status(size_t index) const;

  /// Simulated nanoseconds the previous Execute() waited out
  /// (DoorbellWait). Deterministic, unlike wall-clock measurements of the
  /// spin wait.
  uint64_t last_wait_ns() const { return last_wait_ns_; }

 private:
  // Posts one verb through `post` on `qp`'s chain, or flushes it when the
  // chain has failed.
  template <typename PostFn>
  size_t Post(QueuePair* qp, PostFn post);

  // A group that completes in full touches no heap memory: only failures
  // are recorded.
  std::vector<QueuePair*> failed_qps_;  // Chains in the error state.
  std::vector<Failure> failures_;
  DoorbellWait wait_;
  size_t posted_ = 0;
  // Set by Execute(): failures_ holds the rung group's failures until the
  // next post starts a new group.
  bool rung_ = false;
  uint64_t last_wait_ns_ = 0;
};

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_DOORBELL_GROUP_H_
