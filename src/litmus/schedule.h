#ifndef PANDORA_LITMUS_SCHEDULE_H_
#define PANDORA_LITMUS_SCHEDULE_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "rdma/fabric.h"
#include "rdma/verb_schedule.h"
#include "txn/crash_hook.h"

namespace pandora {
namespace litmus {

/// How the harness chooses crash schedules.
enum class SchedulePolicy {
  /// Bounded model checking: a lockstep profiling iteration records every
  /// reachable (slot, run, point, occurrence) tuple, then one schedule per
  /// tuple is executed — optionally chained with a recovery-coordinator
  /// death or a memory-node failure (compound schedules).
  kExhaustive,
  /// Re-executes exactly one recorded schedule (HarnessConfig::replay).
  kReplay,
  /// Verb-level bounded model checking: on top of the crash-point
  /// exhaustive pass, a recording iteration captures the stream of
  /// one-sided verbs each slot issues against contested memory words,
  /// then alternative release orders of that racing window are enforced
  /// through a fabric verb-schedule hook (bounded DPOR: only verbs
  /// touching the same word are reordered; equivalent orders are pruned).
  /// Verb-level kills — the issuing node dies between posting a verb and
  /// the verb landing — are also explored. Spec run counts are tried
  /// automatically (1 and the configured runs_per_txn).
  kVerbExhaustive,
};

/// How concurrent transaction slots are interleaved within an iteration.
/// Every slot is a fiber of one logical-clock FiberScheduler on the
/// harness thread, so either mode gives the same interleaving on every
/// run.
enum class SyncMode {
  /// A slot runs until it waits (a held verb, a stall, the gate), then
  /// the next due fiber runs.
  kFree,
  /// Slots take turns, one protocol step each: at every crash point a
  /// slot hands the turn on (a zero-time wait), so FIFO dispatch runs the
  /// live slots from one crash point to their next in slot order. A slot
  /// that waits passes its turn early; a finished or crashed slot leaves
  /// the rotation.
  kLockstep,
};

/// One planned coordinator crash.
struct CrashDirective {
  int slot = 0;  // transaction slot (fiber) to kill
  int run = 0;   // which repeat of the slot's program
  txn::CrashPoint point = txn::CrashPoint::kBeforeLock;
  int occurrence = 1;  // 1-based visit count of `point` within `run`
};

/// Names one one-sided verb in a litmus iteration, independent of wall
/// time: the `access`-th mutating verb (WRITE/CAS/FAA — reads are never
/// constrained) that transaction slot `slot`, during its `run`-th program
/// repeat, issues against litmus variable `unit`'s word cluster. The
/// harness maps each variable to its remote offset range per iteration,
/// and offsets are identical across replicas, so one unit covers every
/// replica copy of the word. The naming is stable across executions of
/// the same spec, which is what makes verb orders replayable.
struct VerbToken {
  int slot = 0;
  int run = 0;
  int unit = 0;
  int access = 0;

  bool operator==(const VerbToken& other) const {
    return slot == other.slot && run == other.run && unit == other.unit &&
           access == other.access;
  }
};

/// "slot.run.unit.access" (dot-separated so it nests inside the
/// comma-separated vorder= trace token).
std::string VerbTokenToString(const VerbToken& token);
bool VerbTokenFromString(const std::string& text, VerbToken* out);

/// Which online reconfiguration (if any) races the iteration's
/// transactions: a live memory-node join of the standby, or a planned
/// drain of a previously joined node.
enum class ReconfigKind { kNone, kJoin, kDrain };

/// A complete, replayable crash schedule for one litmus iteration.
struct CrashSchedule {
  SyncMode sync = SyncMode::kFree;
  /// Program repeats per slot of the iteration that produced this trace
  /// (0 = unspecified, use the harness config). Recorded so a replay runs
  /// the same number of repeats as the exploration that found the
  /// violation — kVerbExhaustive tries run counts the config does not
  /// name.
  int runs = 0;
  std::vector<CrashDirective> crashes;
  /// Chain: kill the recovery coordinator once, mid-recovery of the
  /// crashed transaction's node (it is then restarted and re-runs).
  bool rc_fault = false;
  /// Chain: fail this memory node (index, -1 = none) right after the
  /// coordinator crash, so recovery runs against a degraded replica set.
  int kill_memory_node = -1;
  /// Enforced apply order for the racing verb window: each listed verb is
  /// held at the fabric until every earlier listed verb has landed.
  /// Unlisted verbs run unconstrained.
  std::vector<VerbToken> verb_order;
  /// Verb-level kill: this verb's issuing node halts after posting but
  /// before the verb lands (the verb is dropped). The kill waits for
  /// verb_order to finish applying first.
  bool has_verb_kill = false;
  VerbToken verb_kill;
  /// Online reconfiguration racing the transactions (kJoin / kDrain).
  ReconfigKind reconfig = ReconfigKind::kNone;
  /// Crash the migration driver at this ReconfigCrashPoint (index into
  /// cluster::ReconfigCrashPoint, -1 = run the migration to completion).
  int reconfig_crash = -1;
  /// Teeth check: disable the placement-epoch fence on BOTH sides (the
  /// migration cutover quiesce and the coordinators' TxnConfig), running
  /// the deliberately naive cutover the checker must catch.
  bool reconfig_fence_off = false;
  /// Chain: kill the joining/draining memory node itself mid-migration
  /// (bulk-copy window), forcing the rollback path.
  bool reconfig_kill_target = false;
  /// Transient (never serialized): install a recording hook so the
  /// executed trace captures the applied mutating-verb stream.
  bool record_verbs = false;

  bool empty() const {
    return crashes.empty() && !rc_fault && kill_memory_node < 0 &&
           verb_order.empty() && !has_verb_kill && !record_verbs &&
           reconfig == ReconfigKind::kNone;
  }

  /// Serializes to a single-line replayable trace, e.g.
  ///   "sync=lockstep crash=0:1:AfterAbort:1 rc_fault=1 kill_mem=2"
  ///   "sync=free vorder=0.0.0.0,1.0.0.0,1.0.0.1 vkill=2.0.0.1".
  std::string ToString() const;
  /// Parses ToString() output. Returns false on malformed input.
  static bool Parse(const std::string& text, CrashSchedule* out);
};

/// Fabric verb-schedule hook that records and/or enforces VerbToken
/// orders for one litmus iteration.
///
/// Mapping: a verb maps to a token when its source node is a transaction
/// slot, its rkey is one of the table-data regions, its offset falls in a
/// litmus variable's word cluster, and it mutates memory (reads always
/// pass). Access indices count per (slot, run, unit), so the mapping is
/// deterministic across executions of the same spec.
///
/// Enforcement: a verb whose token appears in `order` is held — its slot's
/// fiber polls on the logical clock while sibling fibers run — until every
/// earlier token has landed. The kill token (if any) additionally waits
/// for the whole order, then halts its source node and drops the verb.
/// An enforced order is unrealizable when every slot is blocked — held, or
/// finished — so no slot is left to issue the verb a hold waits for, or
/// when the slots stop with the order unfinished; either way the
/// controller is marked diverged and releases every hold, at the same
/// point of every run.
///
/// Single-threaded: the slot fibers and the harness drive it from one
/// thread.
class VerbOrderController : public rdma::VerbScheduleHook {
 public:
  struct Options {
    rdma::Fabric* fabric = nullptr;
    /// slot -> compute NodeId running that slot's coordinator.
    std::vector<rdma::NodeId> slot_nodes;
    /// Where each replica of each unit's words lives: verbs to `node`'s
    /// region `rkey` at offsets [lo, hi) touch `unit`. Every replica has
    /// its own entry: a key's slot differs between replicas whose tables
    /// hold different keys (their linear probes collide differently).
    struct UnitRange {
      int unit = 0;
      rdma::NodeId node = rdma::kInvalidNodeId;
      rdma::RKey rkey = rdma::kInvalidRKey;
      uint64_t lo = 0;
      uint64_t hi = 0;
    };
    std::vector<UnitRange> unit_ranges;
    std::vector<VerbToken> order;
    bool has_kill = false;
    VerbToken kill;
  };

  explicit VerbOrderController(Options options);

  /// Slot fibers announce each program repeat before executing it...
  void BeginRun(int slot, int run);
  /// ...and the end of their program: the slot issues no more verbs.
  void Retire(int slot);

  bool OnVerbIssue(const rdma::VerbDesc& desc) override;
  void OnVerbApplied(const rdma::VerbDesc& desc) override;

  /// Releases every hold, marking the controller diverged if the order
  /// has not fully landed. The harness calls it once the slots stop.
  void ReleaseAll();

  /// True when the enforced order proved unrealizable.
  bool diverged() const { return diverged_; }
  /// Slot whose verb-kill fired, or -1.
  int killed_slot() const { return killed_slot_; }
  /// Applied mutating-token stream, in land order (capped).
  const std::vector<VerbToken>& applied() const { return applied_; }

 private:
  /// The slot whose coordinator runs on `node`, or -1.
  int SlotOf(rdma::NodeId node) const;
  /// Maps a verb to its token, assigning the access index. Returns false
  /// when the verb is unconstrained (wrong source/region/offset or a
  /// read).
  bool MapToken(const rdma::VerbDesc& desc, int* slot, VerbToken* token);

  const Options opts_;
  std::vector<int> current_run_;  // slot -> active run
  std::map<std::tuple<int, int, int>, int> access_counts_;
  std::vector<std::pair<bool, VerbToken>> pending_;  // slot -> issued token
  /// slot -> order position its held verb waits for (0: none; SIZE_MAX:
  /// program ended). A slot is blocked while cursor_ is below it.
  std::vector<size_t> waits_for_;
  size_t cursor_ = 0;  // next order_ entry allowed to land
  bool diverged_ = false;
  int killed_slot_ = -1;
  std::vector<VerbToken> applied_;
};

}  // namespace litmus
}  // namespace pandora

#endif  // PANDORA_LITMUS_SCHEDULE_H_
