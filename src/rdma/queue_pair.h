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

  /// --- Deferred-completion variants (doorbell batching) ---------------
  /// Apply the operation immediately and report the verb's RTT without
  /// waiting. DoorbellGroup posts through these: the verbs rung with one
  /// doorbell overlap their latencies, so the group completes after one
  /// round trip plus the link time of the payload (see DoorbellWait).
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

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_QUEUE_PAIR_H_
