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
  /// Every transaction rendezvouses at every crash point: all slots reach
  /// their next protocol step before any proceeds. This deterministically
  /// produces the maximally-racy interleaving (all lock CASes together,
  /// all validations before any apply) that random timing only rarely
  /// hits.
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

/// Rendezvous barrier for SyncMode::kLockstep. Each participant calls
/// Arrive() from its crash-point observer; the call blocks until every
/// other active participant is also waiting (or has retired), then the
/// whole phase is released together. A timed fallback breaks the barrier
/// when a participant is blocked outside a crash point (recovery gates,
/// conflict stalls), so lockstep can never deadlock the harness — it only
/// degrades to free-running for that phase.
class LockstepController {
 public:
  explicit LockstepController(int participants,
                              uint64_t timeout_us = 250'000)
      : active_(participants), timeout_us_(timeout_us) {}

  /// Blocks until the current phase is released. Returns false if the
  /// wait timed out (phase released by fallback).
  bool Arrive();

  /// The participant will hit no more crash points (program finished or
  /// coordinator crashed).
  void Retire();

  int timeouts() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int active_;
  int waiting_ = 0;
  uint64_t phase_ = 0;
  int timeouts_ = 0;
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
    /// Table-data region rkeys on every memory node (replicas included).
    std::vector<rdma::RKey> data_rkeys;
    /// unit -> [lo, hi) remote offset range of that variable's words.
    /// Offsets are replica-invariant, so one range covers all copies.
    std::vector<std::pair<uint64_t, uint64_t>> unit_ranges;
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
