#ifndef PANDORA_RDMA_QUEUE_PAIR_H_
#define PANDORA_RDMA_QUEUE_PAIR_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "rdma/network_model.h"
#include "rdma/protection_domain.h"
#include "rdma/types.h"
#include "rdma/verb_schedule.h"

namespace pandora {
namespace rdma {

/// A reliable-connected (RC) queue pair from one compute server to one
/// memory server. Verbs are synchronous: the call applies the operation at
/// the remote region and returns after the simulated round-trip time.
///
/// RC semantics preserved from real hardware (§2.1 "Consistency and Failure
/// Model"): verbs issued on the same QP apply in issue order, and the
/// transport neither drops nor duplicates messages (retransmission is the
/// transport's job). Failure semantics: if this QP's compute node has been
/// halted (crash emulation) the verb does not reach memory at all; if the
/// node's rights were revoked at the memory server (active-link
/// termination) the verb is dropped at the remote NIC.
class QueuePair {
 public:
  QueuePair(NodeId src, ProtectionDomain* remote, const NetworkModel* net,
            const std::atomic<bool>* src_halted,
            VerbHookSlot* hook_slot = nullptr)
      : src_(src),
        remote_(remote),
        net_(net),
        src_halted_(src_halted),
        hook_slot_(hook_slot) {}

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  NodeId src() const { return src_; }
  NodeId dst() const { return remote_->owner(); }
  const NetworkModel& net() const { return *net_; }

  /// One-sided RDMA Read of `len` bytes at (rkey, offset) into `dst`.
  Status Read(RKey rkey, uint64_t offset, void* dst, size_t len);

  /// One-sided RDMA Write of `len` bytes from `src` to (rkey, offset).
  Status Write(RKey rkey, uint64_t offset, const void* src, size_t len);

  /// One-sided RDMA Compare-And-Swap on the 64-bit word at (rkey, offset).
  /// Always returns the observed pre-operation value in `*observed`; the
  /// swap succeeded iff *observed == expected (hardware semantics).
  Status CompareSwap(RKey rkey, uint64_t offset, uint64_t expected,
                     uint64_t desired, uint64_t* observed);

  /// One-sided RDMA Fetch-And-Add on the 64-bit word at (rkey, offset).
  Status FetchAdd(RKey rkey, uint64_t offset, uint64_t delta,
                  uint64_t* old_value);

  /// --- Deferred-completion variants (doorbell batching) ---------------
  /// Apply the operation immediately and report the verb's RTT without
  /// waiting. VerbBatch uses these to model a group of verbs issued in the
  /// same doorbell: their latencies overlap, so the batch completes after
  /// one round trip plus the link time of the payload (see DoorbellWait).
  Status PostRead(RKey rkey, uint64_t offset, void* dst, size_t len,
                  uint64_t* rtt_ns);
  Status PostWrite(RKey rkey, uint64_t offset, const void* src, size_t len,
                   uint64_t* rtt_ns);
  Status PostCompareSwap(RKey rkey, uint64_t offset, uint64_t expected,
                         uint64_t desired, uint64_t* observed,
                         uint64_t* rtt_ns);

 private:
  Status CheckHalted() const;
  /// A verb the schedule hook dropped fails exactly like a verb issued by
  /// a freshly-dead node.
  Status DroppedVerbStatus() const;
  void Wait(uint64_t rtt_ns) const;

  NodeId src_;
  ProtectionDomain* remote_;
  const NetworkModel* net_;
  const std::atomic<bool>* src_halted_;
  /// The Fabric's verb-schedule hook slot (nullptr for QPs built outside a
  /// fabric). One relaxed load per verb when no hook is installed.
  VerbHookSlot* hook_slot_;
  /// Per-QP issue index of hooked verbs, tagged into VerbDesc::qp_seq.
  /// Every coordinator of a compute node shares its QPs, hence atomic.
  std::atomic<uint64_t> seq_{0};
};

/// Simulated completion time of the verbs posted in one doorbell: the
/// slowest verb's round trip plus the serialization time (per_byte_ns x
/// payload bytes) of every *other* verb. Latencies overlap, but payloads
/// share the issuing NIC's link, so batching saves round trips and never
/// bandwidth. With per_byte_ns = 0 this is exactly the slowest RTT.
class DoorbellWait {
 public:
  /// Accounts one verb that reached the fabric, given its RTT and the
  /// network model it was issued under.
  void Add(uint64_t rtt_ns, const NetworkModel& net) {
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

/// Groups verbs (possibly across several queue pairs / memory servers) that
/// the coordinator issues back-to-back without waiting for completions —
/// e.g. "write the undo log to all f+1 log servers" or "apply the write to
/// the primary and every backup". The batch completes after the slowest
/// verb's round trip plus the other verbs' serialization (DoorbellWait).
class VerbBatch {
 public:
  VerbBatch() = default;

  void Read(QueuePair* qp, RKey rkey, uint64_t offset, void* dst,
            size_t len);
  void Write(QueuePair* qp, RKey rkey, uint64_t offset, const void* src,
             size_t len);
  void CompareSwap(QueuePair* qp, RKey rkey, uint64_t offset,
                   uint64_t expected, uint64_t desired, uint64_t* observed);

  /// Waits out the doorbell (slowest round trip plus the other verbs'
  /// serialization); returns the first verb error, if any.
  Status Execute();

  /// Doorbell wait of the verbs posted so far (DoorbellWait). An
  /// OrderedBatch chain that fires in the same doorbell group passes this
  /// to its Execute() so one wait covers both; the caller then drains this
  /// batch with Collect().
  uint64_t pending_max_rtt_ns() const { return wait_.ns(); }

  /// Returns the first verb error and resets, without waiting — for a
  /// batch whose round trip was covered by another wait in the same
  /// doorbell group.
  Status Collect();

  size_t size() const { return count_; }

  /// Simulated nanoseconds the previous Execute() waited out — the slowest
  /// round trip plus the serialization of the other verbs' payloads, never
  /// a sum of per-verb round trips. Deterministic, unlike wall-clock
  /// measurements of the spin wait.
  uint64_t last_wait_ns() const { return last_wait_ns_; }

 private:
  void Record(const Status& status, uint64_t rtt_ns, const QueuePair* qp);

  Status first_error_;
  DoorbellWait wait_;
  uint64_t last_wait_ns_ = 0;
  size_t count_ = 0;
};

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_QUEUE_PAIR_H_
