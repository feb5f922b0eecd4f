#include "rdma/queue_pair.h"

#include "common/clock.h"

namespace pandora {
namespace rdma {

namespace {

// One pass of a verb through the fabric's schedule hook. Entering bumps
// the slot's active count (so Fabric::set_verb_hook(nullptr) can wait out
// in-flight callbacks), OnVerbIssue may hold or drop the verb, and
// Applied() notifies the hook once the operation landed at remote memory.
// Only a hooked verb draws a qp_seq, since the hook is its only reader.
class HookedVerb {
 public:
  HookedVerb(VerbHookSlot* slot, NodeId src, NodeId dst, VerbKind kind,
             RKey rkey, uint64_t offset, size_t len,
             std::atomic<uint64_t>* qp_seq) {
    if (slot == nullptr ||
        slot->hook.load(std::memory_order_relaxed) == nullptr) {
      return;
    }
    slot_ = slot;
    slot_->active.fetch_add(1, std::memory_order_acq_rel);
    hook_ = slot_->hook.load(std::memory_order_acquire);
    if (hook_ == nullptr) return;  // Raced an uninstall: pass through.
    desc_.src = src;
    desc_.dst = dst;
    desc_.kind = kind;
    desc_.rkey = rkey;
    desc_.offset = offset;
    desc_.len = len;
    desc_.qp_seq = qp_seq->fetch_add(1, std::memory_order_relaxed);
    desc_.phase = CurrentVerbPhase();
    dropped_ = !hook_->OnVerbIssue(desc_);
  }

  ~HookedVerb() {
    if (slot_ != nullptr) {
      slot_->active.fetch_sub(1, std::memory_order_release);
    }
  }

  HookedVerb(const HookedVerb&) = delete;
  HookedVerb& operator=(const HookedVerb&) = delete;

  bool dropped() const { return dropped_; }

  void Applied() {
    if (hook_ != nullptr && !dropped_) hook_->OnVerbApplied(desc_);
  }

 private:
  VerbHookSlot* slot_ = nullptr;
  VerbScheduleHook* hook_ = nullptr;
  VerbDesc desc_;
  bool dropped_ = false;
};

}  // namespace

Status QueuePair::CheckHalted() const {
  if (src_halted_ != nullptr &&
      src_halted_->load(std::memory_order_acquire)) {
    return Status::Unavailable("compute node halted");
  }
  return Status::OK();
}

Status QueuePair::DroppedVerbStatus() const {
  // A schedule hook drops a verb to emulate the issuing node dying
  // mid-verb; by then the controller has usually halted the node, so the
  // verb fails indistinguishably from a real death.
  const Status halted = CheckHalted();
  if (!halted.ok()) return halted;
  return Status::Unavailable("verb dropped by schedule hook");
}

void QueuePair::Wait(uint64_t rtt_ns) const {
  if (net_->latency_enabled()) SpinForNanos(rtt_ns);
}

Status QueuePair::Read(RKey rkey, uint64_t offset, void* dst, size_t len) {
  uint64_t rtt;
  PANDORA_RETURN_NOT_OK(PostRead(rkey, offset, dst, len, &rtt));
  Wait(rtt);
  return Status::OK();
}

Status QueuePair::Write(RKey rkey, uint64_t offset, const void* src,
                        size_t len) {
  uint64_t rtt;
  PANDORA_RETURN_NOT_OK(PostWrite(rkey, offset, src, len, &rtt));
  Wait(rtt);
  return Status::OK();
}

Status QueuePair::CompareSwap(RKey rkey, uint64_t offset, uint64_t expected,
                              uint64_t desired, uint64_t* observed) {
  uint64_t rtt;
  PANDORA_RETURN_NOT_OK(
      PostCompareSwap(rkey, offset, expected, desired, observed, &rtt));
  Wait(rtt);
  return Status::OK();
}

Status QueuePair::PostRead(RKey rkey, uint64_t offset, void* dst, size_t len,
                           uint64_t* rtt_ns) {
  PANDORA_RETURN_NOT_OK(CheckHalted());
  HookedVerb hook(hook_slot_, src_, remote_->owner(), VerbKind::kRead, rkey,
                  offset, len, &seq_);
  if (hook.dropped()) return DroppedVerbStatus();
  PANDORA_RETURN_NOT_OK(CheckHalted());
  PANDORA_RETURN_NOT_OK(remote_->ExecuteRead(src_, rkey, offset, dst, len));
  hook.Applied();
  *rtt_ns = net_->RttNanos(/*request_bytes=*/0, /*response_bytes=*/len);
  return Status::OK();
}

Status QueuePair::PostWrite(RKey rkey, uint64_t offset, const void* src,
                            size_t len, uint64_t* rtt_ns) {
  PANDORA_RETURN_NOT_OK(CheckHalted());
  HookedVerb hook(hook_slot_, src_, remote_->owner(), VerbKind::kWrite,
                  rkey, offset, len, &seq_);
  if (hook.dropped()) return DroppedVerbStatus();
  PANDORA_RETURN_NOT_OK(CheckHalted());
  PANDORA_RETURN_NOT_OK(remote_->ExecuteWrite(src_, rkey, offset, src, len));
  hook.Applied();
  *rtt_ns = net_->RttNanos(/*request_bytes=*/len, /*response_bytes=*/0);
  return Status::OK();
}

Status QueuePair::PostCompareSwap(RKey rkey, uint64_t offset,
                                  uint64_t expected, uint64_t desired,
                                  uint64_t* observed, uint64_t* rtt_ns) {
  PANDORA_RETURN_NOT_OK(CheckHalted());
  HookedVerb hook(hook_slot_, src_, remote_->owner(),
                  VerbKind::kCompareSwap, rkey, offset, sizeof(uint64_t),
                  &seq_);
  if (hook.dropped()) return DroppedVerbStatus();
  PANDORA_RETURN_NOT_OK(CheckHalted());
  PANDORA_RETURN_NOT_OK(remote_->ExecuteCompareSwap(src_, rkey, offset,
                                                    expected, desired,
                                                    observed));
  hook.Applied();
  *rtt_ns = net_->RttNanos(sizeof(uint64_t), sizeof(uint64_t));
  return Status::OK();
}

}  // namespace rdma
}  // namespace pandora
