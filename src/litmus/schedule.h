#ifndef PANDORA_LITMUS_SCHEDULE_H_
#define PANDORA_LITMUS_SCHEDULE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
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
enum class SyncMode {
  /// Threads free-run (timing-dependent interleavings).
  kFree,
  /// Slots take turns, one protocol step each: a slot runs from one crash
  /// point to its next while every other slot waits, in slot order
  /// (LockstepController). The slots' protocol steps interleave one by
  /// one, and the interleaving is the same on every run, so an iteration
  /// replays exactly.
  kLockstep,
};

/// One planned coordinator crash.
struct CrashDirective {
  int slot = 0;  // transaction slot (thread) to kill
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

/// Turn scheduler for SyncMode::kLockstep. Exactly one slot runs between
/// two crash points, in slot order: a slot waits for its turn before its
/// first verb (WaitTurn) and again at every crash point it visits
/// (Arrive), which first hands the turn to the next live slot. Retired
/// slots drop out of the rotation. A timed fallback covers a turn holder
/// blocked outside a crash point (the reconfiguration cutover quiesce
/// holds it at the gate): on timeout every wait is released and the rest
/// of the iteration runs free, counted once in timeouts().
class LockstepController {
 public:
  explicit LockstepController(int slots, uint64_t timeout_us = 250'000)
      : live_(static_cast<size_t>(slots), true), timeout_us_(timeout_us) {}

  /// Blocks until it is `slot`'s turn.
  void WaitTurn(int slot);

  /// `slot` reached a crash point: hands the turn on, then waits for it
  /// to come back.
  void Arrive(int slot);

  /// `slot` will hit no more crash points (program finished or
  /// coordinator crashed); a held turn passes on.
  void Retire(int slot);

  /// 1 once a turn wait timed out (the iteration then ran free), else 0.
  int timeouts() const;

 private:
  void PassTurnLocked();
  void WaitTurnLocked(std::unique_lock<std::mutex>& lock, int slot);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<bool> live_;
  int turn_ = 0;  // -1 once every slot retired
  bool free_ = false;  // a turn wait timed out
  const uint64_t timeout_us_;
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
/// Enforcement: a verb whose token appears in `order` is held — its
/// issuing thread parks in a fiber-aware sleep loop, so sibling fibers on
/// the same worker keep running — until every earlier token has landed.
/// The kill token (if any) additionally waits for the whole order, then
/// halts its source node and drops the verb. If an enforced order turns
/// out unrealizable (the program never issues a held-for verb), a hold
/// timeout marks the controller diverged and releases everything, so a
/// bad candidate order degrades to a free-run instead of wedging the
/// harness.
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
    uint64_t hold_timeout_us = 50'000;
  };

  explicit VerbOrderController(Options options);

  /// Slot threads announce each program repeat before executing it.
  void BeginRun(int slot, int run);

  bool OnVerbIssue(const rdma::VerbDesc& desc) override;
  void OnVerbApplied(const rdma::VerbDesc& desc) override;

  /// Marks the controller diverged, releasing every held verb. Call
  /// before uninstalling the hook so no verb stays parked.
  void ReleaseAll();

  /// True when a hold timed out (the enforced order was unrealizable).
  bool diverged() const;
  /// Slot whose verb-kill fired, or -1.
  int killed_slot() const;
  /// Number of verbs that were held at least once.
  int holds() const;
  /// Applied mutating-token stream, in land order (capped).
  std::vector<VerbToken> applied() const;

 private:
  /// Maps a verb to its token, assigning the access index. Returns false
  /// when the verb is unconstrained (wrong source/region/offset or a
  /// read).
  bool MapToken(const rdma::VerbDesc& desc, int* slot, VerbToken* token);

  const Options opts_;
  mutable std::mutex mu_;
  std::vector<int> current_run_;  // slot -> active run
  std::map<std::tuple<int, int, int>, int> access_counts_;
  std::vector<std::pair<bool, VerbToken>> pending_;  // slot -> issued token
  size_t cursor_ = 0;  // next order_ entry allowed to land
  bool diverged_ = false;
  int killed_slot_ = -1;
  int holds_ = 0;
  std::vector<VerbToken> applied_;
};

}  // namespace litmus
}  // namespace pandora

#endif  // PANDORA_LITMUS_SCHEDULE_H_
