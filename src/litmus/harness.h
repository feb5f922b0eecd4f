#ifndef PANDORA_LITMUS_HARNESS_H_
#define PANDORA_LITMUS_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/reconfig.h"
#include "litmus/checker.h"
#include "litmus/litmus_spec.h"
#include "litmus/schedule.h"
#include "txn/txn_config.h"

namespace pandora {
namespace litmus {

/// Litmus-run configuration: which protocol (and which injected bugs) to
/// validate, and how hard to shake it.
struct HarnessConfig {
  txn::TxnConfig txn;
  /// Iteration budget per litmus spec. Each iteration runs the spec's
  /// transactions concurrently on separate compute servers against fresh
  /// keys. Under kExhaustive this caps the number of enumerated schedules
  /// (profiling iteration included); a report whose schedules_skipped is
  /// non-zero did not finish the enumeration. Under kVerbExhaustive it is
  /// a per-phase budget: the crash-point enumeration and the verb-order
  /// exploration each get this many iterations, per explored run count.
  int iterations = 100;
  uint64_t seed = 1;
  /// Each transaction slot executes its program this many times in
  /// sequence per iteration. Repeat runs widen the window for bugs whose
  /// manifestation needs a *completed* earlier transaction of the same
  /// coordinator (e.g. an aborted-but-still-logged one) plus a later
  /// crash.
  int runs_per_txn = 2;
  uint32_t memory_nodes = 3;
  uint32_t replication = 2;

  /// How crash schedules are chosen (see SchedulePolicy).
  SchedulePolicy schedule = SchedulePolicy::kExhaustive;
  /// kReplay: the schedule to re-execute, exactly once.
  CrashSchedule replay;
  /// Stop the run once this many violations were found (0 = never stop
  /// early). Bug-hunt tests set 1: a single confirmed violation proves the
  /// bug is caught.
  int stop_after_violations = 0;
  /// kExhaustive: additionally enumerate compound schedules chaining each
  /// coordinator crash with a recovery-coordinator death mid-recovery...
  bool compound_rc_fault = false;
  /// ...and with a memory-node failure after the coordinator crash.
  bool compound_memory_kill = false;
  /// Replay budget of the delta-debugging minimizer that shrinks a
  /// violating schedule to a minimal reproducer (0 disables shrinking).
  int minimize_budget = 12;
  /// Online reconfiguration raced against the iterations (kNone = off).
  /// The cluster gets one standby memory server; kJoin live-joins it while
  /// the spec's transactions run, kDrain first joins it quietly and then
  /// races the planned drain. kExhaustive additionally enumerates one
  /// schedule per ReconfigCrashPoint (plus a join-target kill), proving
  /// the rollback / roll-forward rule at every point of the migration.
  ReconfigKind reconfig = ReconfigKind::kNone;
  /// kExhaustive: also enumerate coordinator crash *pairs* — two slots
  /// dying at different points of the same iteration — bounded to the
  /// contested window (both crashes at points where locks can be held).
  bool crash_pairs = false;
};

/// Result of running one litmus spec.
struct LitmusReport {
  std::string spec_name;
  int iterations = 0;
  int crashes_injected = 0;
  int violations = 0;
  int committed = 0;
  int aborted = 0;
  int unknown = 0;
  /// First few violation explanations (with minimal reproducers), for
  /// diagnosis.
  std::vector<std::string> failures;

  /// Schedules the exploration planned.
  int schedules_planned = 0;
  /// Planned schedules whose enumeration overflowed the iteration budget.
  int schedules_skipped = 0;
  /// Iterations where an armed crash directive never fired (the profiled
  /// execution diverged); the schedule proved nothing.
  int schedule_noops = 0;
  /// Recovery-coordinator deaths injected by compound schedules.
  int rc_faults_injected = 0;
  /// Memory-node failures injected by compound schedules.
  int memory_kills_injected = 0;
  /// Sum of TxnStats::bug_injections over all litmus coordinators: how
  /// often the enabled BugFlags actually deviated from the fixed protocol.
  uint64_t bug_injections = 0;
  /// Set when the harness itself is unsound for this configuration — e.g.
  /// bug flags were enabled but never exercised (injection no-op), so a
  /// clean run proves nothing.
  std::string harness_error;
  /// Replayable executed schedule of each violating iteration, parseable
  /// by CrashSchedule::Parse (aligned with `violation_explanations`).
  std::vector<std::string> violation_traces;
  /// Checker/audit explanation of each violation, without the iteration
  /// prefix (stable across replays of the same schedule).
  std::vector<std::string> violation_explanations;
  /// Per crash point: times visited / times a scheduled crash fired there
  /// (indexed by CrashPoint).
  std::vector<int> point_visits = std::vector<int>(txn::kNumCrashPoints, 0);
  std::vector<int> point_crashes =
      std::vector<int>(txn::kNumCrashPoints, 0);

  /// --- kVerbExhaustive only --------------------------------------------
  /// Size of the largest contested-verb window a recording iteration
  /// captured (verbs by >=2 slots against the same word cluster).
  int verb_window = 0;
  /// Enforced verb orders actually executed.
  int verb_orders_explored = 0;
  /// Candidate orders dropped as duplicates of an already-enqueued order
  /// (the DPOR equivalence pruning).
  int verb_orders_pruned = 0;
  /// Verb-level kills (node death between posting a verb and the verb
  /// landing) that fired.
  int verb_kills_injected = 0;
  /// Enforced orders that turned out unrealizable (every live slot held
  /// a verb, or the slots stopped before the order landed).
  int verb_schedules_diverged = 0;

  /// --- Online reconfiguration (schedules with reconfig != kNone) --------
  /// Migrations raced against an iteration's transactions.
  int reconfigs_run = 0;
  /// Scheduled migration-driver crashes that actually fired.
  int reconfig_crashes_injected = 0;
  /// Migrations that rolled back to the old ring (injected crash before
  /// the cutover publish, or a mid-copy failure).
  int reconfig_rollbacks = 0;
  /// Join-target deaths injected during the bulk-copy window.
  int reconfig_kills_injected = 0;
  /// Per migration crash point: times the driver consulted the injector
  /// there / times a scheduled crash fired there (indexed by
  /// cluster::ReconfigCrashPoint).
  std::vector<int> reconfig_point_visits =
      std::vector<int>(cluster::kNumReconfigCrashPoints, 0);
  std::vector<int> reconfig_point_crashes =
      std::vector<int>(cluster::kNumReconfigCrashPoints, 0);

  /// One line per visited crash point: "name visits/crashes".
  std::string CoverageSummary() const;

  bool passed() const { return violations == 0 && harness_error.empty(); }
};

/// End-to-end litmus executor: deploys a fresh zero-latency simulated DKVS
/// per spec, runs the spec's transactions (and any migration racing them)
/// as fibers on a logical clock under a crash-schedule policy (exhaustive
/// lockstep enumeration, verb-order exploration, or replay of a recorded
/// trace), declares every crashed slot failed and recovers it once the
/// slots have stopped, reads the application-observable final state, and
/// validates it with the subset-serializability checker. No decision
/// inside an iteration reads the wall clock, so an iteration is a pure
/// function of (spec, seed, schedule). Violating iterations are shrunk to
/// minimal reproducers.
class LitmusHarness {
 public:
  explicit LitmusHarness(const HarnessConfig& config) : config_(config) {}

  LitmusReport Run(const LitmusSpec& spec);

 private:
  HarnessConfig config_;
};

}  // namespace litmus
}  // namespace pandora

#endif  // PANDORA_LITMUS_HARNESS_H_
