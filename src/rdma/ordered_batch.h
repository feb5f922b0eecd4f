#ifndef PANDORA_RDMA_ORDERED_BATCH_H_
#define PANDORA_RDMA_ORDERED_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rdma/queue_pair.h"
#include "rdma/types.h"

namespace pandora {
namespace rdma {

/// A chain of verbs posted to the *same* RC queue pair in one doorbell.
///
/// RC in-order delivery (§3.1.1) guarantees that verbs posted on one QP
/// apply at the remote memory in post order, so a later verb in the chain
/// observes the effects of every earlier one — e.g. a read posted behind a
/// lock CAS sees the post-CAS lock word. The whole chain still completes
/// after a *single* round trip (the verbs fly back-to-back), which is what
/// lets the execution phase collapse lock-then-read from 2 RTTs into 1.
///
/// The simulated QueuePair applies each verb synchronously at post time and
/// in call order, so ordering holds by construction; OrderedBatch's job is
/// the completion model (one doorbell wait — the slowest verb's RTT plus
/// the other verbs' serialization, see DoorbellWait — instead of a sum of
/// per-verb round trips) and the error model (a failed verb moves the QP
/// chain into an error state and every later verb is flushed without
/// applying, mirroring IBV_WC_WR_FLUSH_ERR on real hardware).
class OrderedBatch {
 public:
  explicit OrderedBatch(QueuePair* qp) : qp_(qp) {}

  OrderedBatch(const OrderedBatch&) = delete;
  OrderedBatch& operator=(const OrderedBatch&) = delete;

  QueuePair* qp() const { return qp_; }

  /// Each poster returns the verb's index in the chain (for status()).
  size_t Read(RKey rkey, uint64_t offset, void* dst, size_t len);
  size_t Write(RKey rkey, uint64_t offset, const void* src, size_t len);
  size_t CompareSwap(RKey rkey, uint64_t offset, uint64_t expected,
                     uint64_t desired, uint64_t* observed);

  /// Waits out one doorbell wait for the whole chain, or `extra_rtt_ns` if
  /// that is longer — the pending wait of a VerbBatch or of sibling chains
  /// to other servers riding the same doorbell group — and returns the
  /// first verb error, if any. Resets the chain for reuse.
  Status Execute(uint64_t extra_rtt_ns = 0);

  /// Doorbell wait of the verbs posted so far (DoorbellWait). Lets this
  /// chain ride another chain's doorbell group: the other chain executes
  /// with this value as extra_rtt_ns and this one is drained with
  /// Collect() — one shared wait covers both.
  uint64_t pending_max_rtt_ns() const { return wait_.ns(); }

  /// Completes the chain WITHOUT waiting (its RTT was paid by another
  /// batch's Execute in the same doorbell group). Returns the first verb
  /// error and resets the chain, like Execute.
  Status Collect();

  /// Per-verb completion status, valid until the next Execute(). Verbs
  /// after a failed verb report Aborted("work request flushed").
  const Status& status(size_t index) const { return statuses_[index]; }

  size_t size() const { return statuses_.size(); }

  /// Simulated nanoseconds the previous Execute() waited out — the slowest
  /// verb's RTT plus the other verbs' serialization (or a longer rider's
  /// wait), never a sum of per-verb round trips. Deterministic, unlike
  /// wall-clock measurements of the spin wait.
  uint64_t last_wait_ns() const { return last_wait_ns_; }

 private:
  size_t Record(const Status& status, uint64_t rtt_ns);

  QueuePair* qp_;
  std::vector<Status> statuses_;
  Status first_error_;
  DoorbellWait wait_;
  uint64_t last_wait_ns_ = 0;
  bool errored_ = false;
};

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_ORDERED_BATCH_H_
