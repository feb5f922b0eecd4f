#ifndef PANDORA_RDMA_VERB_SCHEDULE_H_
#define PANDORA_RDMA_VERB_SCHEDULE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "rdma/types.h"

namespace pandora {
namespace rdma {

/// The three one-sided verb kinds the simulated fabric carries.
enum class VerbKind { kRead, kWrite, kCompareSwap };

/// True for verbs that mutate remote memory (everything but a read).
inline bool VerbMutates(VerbKind kind) { return kind != VerbKind::kRead; }

/// Description of one verb at apply time, handed to the schedule hook
/// before the operation lands at the remote region.
struct VerbDesc {
  NodeId src = kInvalidNodeId;  // issuing compute node
  NodeId dst = kInvalidNodeId;  // target memory node
  VerbKind kind = VerbKind::kRead;
  RKey rkey = kInvalidRKey;
  uint64_t offset = 0;
  size_t len = 0;
  /// Per-queue-pair issue index among hooked verbs (0-based, monotonic
  /// over the QP's life; verbs issued with no hook installed draw none).
  uint64_t qp_seq = 0;
  /// The issuing thread's protocol phase: the ordinal of the most recent
  /// txn::CrashPoint the thread visited (-1 outside a crash-hooked
  /// protocol section). See SetVerbPhase.
  int phase = -1;
};

/// Sub-phase sync points for the litmus framework: a hook installed on the
/// Fabric intercepts every one-sided verb at apply time. OnVerbIssue runs
/// *before* the operation lands at remote memory and may block (hold the
/// verb) until a schedule controller releases it — inside a fiber the wait
/// must suspend the fiber (use SleepForMicros-style waits), so a held verb
/// never blocks sibling fibers on the same worker thread. Returning false
/// drops the verb without applying it (the controller has killed the
/// issuing node mid-verb); the queue pair then reports the same
/// Unavailable error a real process death would produce.
///
/// RC in-order delivery per QP is preserved by construction: verbs issue
/// synchronously on their QP, so holding verb i blocks the issuing
/// thread/fiber and verb i+1 of the same QP cannot even be posted until i
/// applied.
class VerbScheduleHook {
 public:
  virtual ~VerbScheduleHook() = default;

  /// Called before the verb applies. May block. Return false to drop the
  /// verb (issuing node killed mid-verb).
  virtual bool OnVerbIssue(const VerbDesc& desc) = 0;

  /// Called after the verb applied at remote memory (successors ordered
  /// behind this verb may now be released). Not called for dropped or
  /// errored verbs.
  virtual void OnVerbApplied(const VerbDesc& desc) {}
};

/// Shared hook slot owned by the Fabric and referenced by every QueuePair.
/// The no-hook fast path is one relaxed atomic load per verb; `active`
/// ripcords uninstallation: Fabric::set_verb_hook(nullptr) waits until no
/// verb is inside a hook callback before returning, so the caller may
/// destroy the hook immediately afterwards.
struct VerbHookSlot {
  std::atomic<VerbScheduleHook*> hook{nullptr};
  std::atomic<int> active{0};
};

/// --- Protocol-phase tagging -------------------------------------------
/// The txn layer's crash-hook path tags the issuing thread with the
/// ordinal of the crash point it most recently visited; every verb the
/// thread issues afterwards carries that tag in VerbDesc::phase. Thread-
/// local, so concurrent coordinators do not interfere; -1 means "no
/// protocol phase known".
void SetVerbPhase(int phase);
int CurrentVerbPhase();

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_VERB_SCHEDULE_H_
