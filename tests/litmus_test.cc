#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "litmus/checker.h"
#include "litmus/harness.h"
#include "litmus/litmus_spec.h"
#include "litmus/schedule.h"
#include "txn/crash_hook.h"

namespace pandora {
namespace litmus {
namespace {

// ---------------------------------------------------------------- Checker --

TxnObservation Committed(std::vector<std::optional<uint64_t>> reads = {}) {
  TxnObservation obs;
  obs.outcome = TxnObservation::Outcome::kCommitted;
  obs.reads = std::move(reads);
  return obs;
}

TxnObservation Aborted() {
  TxnObservation obs;
  obs.outcome = TxnObservation::Outcome::kAborted;
  return obs;
}

TxnObservation Unknown() {
  TxnObservation obs;
  obs.outcome = TxnObservation::Outcome::kUnknown;
  return obs;
}

TEST(CheckerTest, Litmus1SerialOutcomesAccepted) {
  const LitmusSpec spec = Litmus1();  // three writers of {X, Y}
  SerializabilityChecker checker(spec);
  std::string why;
  // T1 then T2 then T3: X=Y=3.
  EXPECT_TRUE(checker.Check({Committed(), Committed(), Committed()},
                            {3, 3}, &why))
      << why;
  // Only T2 committed.
  EXPECT_TRUE(checker.Check({Aborted(), Committed(), Aborted()}, {2, 2},
                            &why))
      << why;
  // Nothing committed: initial state.
  EXPECT_TRUE(checker.Check({Aborted(), Aborted(), Aborted()}, {0, 0},
                            &why))
      << why;
}

TEST(CheckerTest, Litmus1MixedStateRejected) {
  const LitmusSpec spec = Litmus1();
  SerializabilityChecker checker(spec);
  std::string why;
  EXPECT_FALSE(checker.Check({Committed(), Committed(), Aborted()},
                             {1, 2}, &why));
  EXPECT_FALSE(why.empty());
  // Aborted txn's effects must not appear.
  EXPECT_FALSE(checker.Check({Committed(), Aborted(), Aborted()}, {2, 2},
                             nullptr));
}

TEST(CheckerTest, UnknownTxnMayOrMayNotApply) {
  const LitmusSpec spec = Litmus1();
  SerializabilityChecker checker(spec);
  // T1 crashed: both "applied fully" and "rolled back" final states are
  // acceptable — but a half-applied state is not.
  EXPECT_TRUE(checker.Check({Unknown(), Aborted(), Aborted()}, {1, 1},
                            nullptr));
  EXPECT_TRUE(checker.Check({Unknown(), Aborted(), Aborted()}, {0, 0},
                            nullptr));
  EXPECT_FALSE(checker.Check({Unknown(), Aborted(), Aborted()}, {1, 0},
                             nullptr));
}

TEST(CheckerTest, Litmus2CycleRejected) {
  const LitmusSpec spec = Litmus2();
  SerializabilityChecker checker(spec);
  std::string why;
  // Serial: T1 (reads X=0, writes Y=1) then T2 (reads Y=1, writes X=2).
  EXPECT_TRUE(checker.Check({Committed({0}), Committed({1})}, {2, 1},
                            &why))
      << why;
  // The both-read-zero cycle: X=1, Y=1 — not serializable.
  EXPECT_FALSE(checker.Check({Committed({0}), Committed({0})}, {1, 1},
                             nullptr));
}

TEST(CheckerTest, ObservedReadsConstrainOrder) {
  const LitmusSpec spec = Litmus2();
  SerializabilityChecker checker(spec);
  // Final state {X=2, Y=1} fits T1->T2 but only if T2 read Y=1. If T2
  // claims it read Y=0 the run is not serializable.
  EXPECT_FALSE(checker.Check({Committed({0}), Committed({0})}, {2, 1},
                             nullptr));
}

TEST(CheckerTest, Litmus3ObserversChecked) {
  const LitmusSpec spec = Litmus3();
  SerializabilityChecker checker(spec);
  std::string why;
  // T1, T2 increment X and write Y/Z; T3 observes (X=1, Y=1) between
  // them; T4 observes the final (X=2, Z=2)... which only fits the order
  // T1, T3, T2, T4.
  EXPECT_TRUE(checker.Check({Committed({0}), Committed({1}),
                             Committed({1, 1}), Committed({2, 2})},
                            {2, 1, 2}, &why))
      << why;
  // An observer seeing Y > X contradicts every order.
  EXPECT_FALSE(checker.Check({Committed({0}), Committed({1}),
                              Committed({0, 1}), Committed({2, 2})},
                             {2, 1, 2}, nullptr));
}

TEST(CheckerTest, InsertsAndDeletesModelAbsence) {
  const LitmusSpec spec = Litmus1Deletes();
  SerializabilityChecker checker(spec);
  std::string why;
  // T2 (delete) after T1 (write): both absent.
  EXPECT_TRUE(checker.Check({Committed(), Committed()},
                            {std::nullopt, std::nullopt}, &why))
      << why;
  // T1 after T2: X=Y=1.
  EXPECT_TRUE(checker.Check({Committed(), Committed()}, {1, 1}, &why))
      << why;
  // Half-deleted state rejected.
  EXPECT_FALSE(checker.Check({Committed(), Committed()},
                             {std::nullopt, 1}, nullptr));
}

TEST(CheckerTest, FormatVarState) {
  EXPECT_EQ(FormatVarState({1, std::nullopt, 3}), "{X=1, Y=absent, Z=3}");
}

// ---------------------------------------------------------------- Harness --

HarnessConfig FastConfig() {
  HarnessConfig config;
  config.iterations = 40;
  return config;
}

// When PANDORA_TRACE_DIR is set (CI does), write a report's minimized
// reproducers and replayable traces there so the workflow can upload them
// as artifacts on failure.
void DumpReproducerTraces(const LitmusReport& report,
                          const std::string& label) {
  const char* dir = std::getenv("PANDORA_TRACE_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  if (report.failures.empty() && report.violation_traces.empty() &&
      report.harness_error.empty()) {
    return;
  }
  std::ofstream out(std::string(dir) + "/" + label + ".trace",
                    std::ios::app);
  out << "spec: " << report.spec_name << "\n";
  if (!report.harness_error.empty()) {
    out << "harness_error: " << report.harness_error << "\n";
  }
  for (const std::string& failure : report.failures) {
    out << "failure: " << failure << "\n";
  }
  for (size_t i = 0; i < report.violation_traces.size(); ++i) {
    out << "trace: " << report.violation_traces[i] << "\n";
    if (i < report.violation_explanations.size()) {
      out << "  explanation: " << report.violation_explanations[i] << "\n";
    }
  }
  out << "\n";
}

// A fixed protocol must pass `spec` with a crash at every reachable crash
// point (kExhaustive), within a budget that covers the whole enumeration.
// The specs plan at most ~90 schedules at two runs per transaction.
constexpr int kExhaustiveBudget = 200;

LitmusReport ExpectExhaustivePass(HarnessConfig config,
                                  const LitmusSpec& spec) {
  config.schedule = SchedulePolicy::kExhaustive;
  LitmusHarness harness(config);
  const LitmusReport report = harness.Run(spec);
  if (report.violations > 0) {
    DumpReproducerTraces(report, "exhaustive-" + spec.name);
  }
  EXPECT_EQ(report.violations, 0)
      << spec.name << ": "
      << (report.failures.empty() ? "" : report.failures[0]);
  EXPECT_EQ(report.schedules_skipped, 0)
      << spec.name << ": budget of " << config.iterations
      << " too small for " << report.schedules_planned << " schedules";
  EXPECT_EQ(report.iterations, report.schedules_planned) << spec.name;
  return report;
}

// Pandora must pass every litmus test with a crash at every reachable
// crash point — the merged commit group crashed at every verb position.
class PandoraLitmusSweep : public ::testing::TestWithParam<int> {};

TEST_P(PandoraLitmusSweep, NoViolations) {
  const std::vector<LitmusSpec> specs = AllLitmusSpecs();
  const LitmusSpec& spec = specs[GetParam()];
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.iterations = kExhaustiveBudget;
  config.seed = 1000 + GetParam();
  const LitmusReport report = ExpectExhaustivePass(config, spec);
  EXPECT_GT(report.committed, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, PandoraLitmusSweep,
                         ::testing::Range(0, 10));

// The fixed FORD Baseline (with Pandora's recovery + scan) must also pass.
TEST(LitmusHarnessTest, FixedBaselinePassesCoreSpecs) {
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kFordBaseline;
  config.iterations = kExhaustiveBudget;
  for (const auto& spec :
       {Litmus1(), Litmus2(), Litmus3AbortLogging()}) {
    ExpectExhaustivePass(config, spec);
  }
}

TEST(LitmusHarnessTest, TraditionalLoggingPassesCoreSpecs) {
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kTraditionalLogging;
  config.iterations = kExhaustiveBudget;
  for (const auto& spec : {Litmus1(), Litmus2()}) {
    ExpectExhaustivePass(config, spec);
  }
}


// Compound litmus fuzzing: Pandora must stay serializable on
// machine-generated transaction mixes too, crashed at every reachable
// crash point.
class LitmusFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LitmusFuzz, PandoraSerializable) {
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.iterations = kExhaustiveBudget;
  config.seed = 5000 + GetParam();
  ExpectExhaustivePass(config, RandomLitmusSpec(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LitmusFuzz,
                         ::testing::Range<uint64_t>(1, 11));

TEST(LitmusFuzzSpec, GeneratorIsDeterministicAndWellFormed) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const LitmusSpec a = RandomLitmusSpec(seed);
    const LitmusSpec b = RandomLitmusSpec(seed);
    ASSERT_EQ(a.txns.size(), b.txns.size());
    ASSERT_GE(a.txns.size(), 2u);
    ASSERT_LE(a.txns.size(), 4u);
    ASSERT_GE(a.initial.size(), 2u);
    for (size_t t = 0; t < a.txns.size(); ++t) {
      ASSERT_EQ(a.txns[t].ops.size(), b.txns[t].ops.size());
      ASSERT_GE(a.txns[t].ops.size(), 2u);
      for (size_t o = 0; o < a.txns[t].ops.size(); ++o) {
        EXPECT_EQ(static_cast<int>(a.txns[t].ops[o].kind),
                  static_cast<int>(b.txns[t].ops[o].kind));
        EXPECT_LT(a.txns[t].ops[o].dst, a.initial.size());
      }
    }
  }
}

// --- Bug reproduction: each Table-1 bug must be *caught* by the framework.
//
// All six bugs are caught *deterministically* — no randomized sampler
// anywhere in the suite. Five need only the crash-point machinery: the
// exhaustive scheduler's lockstep profiling iteration interleaves the
// slots' protocol steps one by one (covert/relaxed locks need no crash at
// all), and its enumeration then crashes every reachable (slot, run,
// point, occurrence) tuple in turn (lost-decision, logging-without-locking
// and missing-insert-logging each have one specific guilty point).
//
// ComplicitAbort manifests through an intra-phase race no crash point
// separates; it uses kVerbExhaustive, which additionally enforces
// candidate apply orders of the contested one-sided verbs through the
// fabric's verb-schedule hook (bounded DPOR over the racing window, plus
// verb-level kills). Every catch is then re-proved by parsing its
// serialized trace and replaying it — one iteration, milliseconds — with
// an identical outcome.
//
// The whole suite runs twice — execution-phase pipelining on and off —
// because the bugs must be caught under either verb-issue discipline.
//
// Note on execution-phase pipelining: a crash hook changes no verb the
// protocol posts (TxnTest.CrashHookDoesNotChangeTheProtocol), so the
// Pipelined leg runs the single-doorbell lock+fetch chain, the batched
// range reads and the merged commit group the benches measure, and the
// Unpipelined leg the two-round-trip lock+fetch: the two legs run
// different code. The hunts enumerate schedules instead of sampling them
// because random sampling almost never hits the one (point, occurrence)
// a bug needs.

// The pipelining matrix: every hunt runs with execution-phase doorbell
// pipelining on and off.
class LitmusBugHunt : public ::testing::TestWithParam<bool> {
 protected:
  static bool pipeline() { return GetParam(); }
};

HarnessConfig HuntConfig(txn::ProtocolMode mode, txn::BugFlags bugs,
                         bool pipeline) {
  HarnessConfig config = FastConfig();
  config.txn.mode = mode;
  config.txn.bugs = bugs;
  config.txn.pipeline_execution = pipeline;
  config.iterations = 120;
  config.stop_after_violations = 1;
  return config;
}

// Replays `trace` as one iteration: it must give exactly one violation
// whose executed trace is byte-identical to `trace`.
void ExpectTraceReplays(HarnessConfig config, const LitmusSpec& spec,
                        const std::string& trace, const char* bug_name) {
  ASSERT_TRUE(CrashSchedule::Parse(trace, &config.replay)) << trace;
  config.schedule = SchedulePolicy::kReplay;
  LitmusHarness replayer(config);
  const LitmusReport replay = replayer.Run(spec);
  EXPECT_EQ(replay.violations, 1)
      << bug_name << ": trace did not replay: " << trace;
  ASSERT_FALSE(replay.violation_traces.empty());
  EXPECT_EQ(replay.violation_traces[0], trace);
}

// Deterministic hunt: the given schedule policy must find the bug, must
// prove the bug flags actually fired (no injection no-ops), and every
// catch must reproduce from its serialized trace — parsed back and
// replayed as a single iteration — with a violation.
void ExpectBugCaught(SchedulePolicy policy, txn::ProtocolMode mode,
                     txn::BugFlags bugs, const LitmusSpec& spec,
                     int runs_per_txn, bool pipeline,
                     const char* bug_name) {
  HarnessConfig config = HuntConfig(mode, bugs, pipeline);
  config.schedule = policy;
  config.runs_per_txn = runs_per_txn;
  LitmusHarness harness(config);
  const LitmusReport report = harness.Run(spec);
  EXPECT_TRUE(report.harness_error.empty()) << report.harness_error;
  EXPECT_GT(report.bug_injections, 0u)
      << bug_name << ": bug flags never deviated from the fixed protocol";
  ASSERT_GT(report.violations, 0)
      << "deterministic scheduler failed to catch " << bug_name << " in "
      << report.iterations << " iterations ("
      << report.schedules_planned << " schedules planned)";
  EXPECT_FALSE(report.failures.empty());
  DumpReproducerTraces(report, std::string("bughunt-") + bug_name);

  // Replay-from-trace: the recorded schedule alone must reproduce.
  ASSERT_FALSE(report.violation_traces.empty());
  ExpectTraceReplays(config, spec, report.violation_traces[0], bug_name);
}

void ExpectBugCaughtExhaustive(txn::ProtocolMode mode, txn::BugFlags bugs,
                               const LitmusSpec& spec, int runs_per_txn,
                               bool pipeline, const char* bug_name) {
  ExpectBugCaught(SchedulePolicy::kExhaustive, mode, bugs, spec,
                  runs_per_txn, pipeline, bug_name);
}

TEST_P(LitmusBugHunt, ComplicitAbortCaught) {
  txn::BugFlags bugs;
  bugs.complicit_abort = true;
  // The guilty schedule is an intra-phase race: a buggy abort-path
  // release frees a lock a live transaction holds, a third transaction
  // acquires it, and the two holders' per-replica applies land in
  // opposite orders. No crash point separates those verbs — only the
  // verb-order exploration reaches it (it shows up as replica
  // divergence in the memory audit).
  ExpectBugCaught(SchedulePolicy::kVerbExhaustive,
                  txn::ProtocolMode::kPandora, bugs, Litmus1LockRelease(),
                  /*runs_per_txn=*/3, pipeline(), "Complicit Aborts");
}

TEST_P(LitmusBugHunt, CovertLocksCaught) {
  txn::BugFlags bugs;
  bugs.covert_locks = true;
  ExpectBugCaughtExhaustive(txn::ProtocolMode::kPandora, bugs, Litmus2(),
                            /*runs_per_txn=*/2, pipeline(),
                            "Covert Locks");
}

TEST_P(LitmusBugHunt, RelaxedLocksCaught) {
  txn::BugFlags bugs;
  bugs.relaxed_locks = true;
  ExpectBugCaughtExhaustive(txn::ProtocolMode::kPandora, bugs, Litmus2(),
                            /*runs_per_txn=*/2, pipeline(),
                            "Relaxed Locks");
}

TEST_P(LitmusBugHunt, MissingInsertLoggingCaught) {
  txn::BugFlags bugs;
  bugs.missing_insert_logging = true;
  // The guilty window (insert applied to memory, never logged, then the
  // coordinator dies before commit finishes) needs a single-run program:
  // a second run re-inserts and masks the loss. kVerbExhaustive tries run
  // count 1 automatically, and its crash-point phase lands the catch at a
  // deterministic MidCommitApply crash — no randomized timing needed.
  ExpectBugCaught(SchedulePolicy::kVerbExhaustive,
                  txn::ProtocolMode::kFordBaseline, bugs, Litmus1Inserts(),
                  /*runs_per_txn=*/2, pipeline(), "Missing Actions");
}

TEST_P(LitmusBugHunt, LostDecisionCaught) {
  txn::BugFlags bugs;
  bugs.lost_decision = true;
  ExpectBugCaughtExhaustive(txn::ProtocolMode::kFordBaseline, bugs,
                            Litmus3AbortLogging(), /*runs_per_txn=*/2,
                            pipeline(), "Lost Decision");
}

TEST_P(LitmusBugHunt, LoggingWithoutLockingCaught) {
  txn::BugFlags bugs;
  bugs.logging_without_locking = true;
  bugs.lost_decision = true;  // The FORD corner case combines both.
  // The guilty crash window (log written, lock not yet taken) closes once
  // the same coordinator runs a second program, so the catch needs a
  // single run per slot. kVerbExhaustive explores run count 1 alongside
  // the configured count automatically — no manual runs_per_txn knob.
  ExpectBugCaught(SchedulePolicy::kVerbExhaustive,
                  txn::ProtocolMode::kFordBaseline, bugs,
                  Litmus1PartialOverlap(), /*runs_per_txn=*/2, pipeline(),
                  "Logging-without-locking");
}

// Replay corpus: one trace per bug, as the hunts above print their
// catches. Verb tokens count only mutating verbs, which pipelining does
// not change, so both legs replay the same six lines. Each replay is one
// iteration, so every tier-1 run re-proves all six catches in
// milliseconds.
struct CaughtTrace {
  const char* bug;
  txn::ProtocolMode mode;
  txn::BugFlags bugs;
  LitmusSpec spec;
  const char* trace;
};

std::vector<CaughtTrace> CaughtTraces() {
  txn::BugFlags complicit_abort;
  complicit_abort.complicit_abort = true;
  txn::BugFlags covert_locks;
  covert_locks.covert_locks = true;
  txn::BugFlags relaxed_locks;
  relaxed_locks.relaxed_locks = true;
  txn::BugFlags missing_insert_logging;
  missing_insert_logging.missing_insert_logging = true;
  txn::BugFlags lost_decision;
  lost_decision.lost_decision = true;
  txn::BugFlags logging_without_locking = lost_decision;
  logging_without_locking.logging_without_locking = true;
  return {
      {"Complicit Aborts", txn::ProtocolMode::kPandora, complicit_abort,
       Litmus1LockRelease(),
       "sync=free runs=1 vorder=0.0.0.0,0.0.1.0,2.0.0.0,2.0.0.1,0.0.0.1,"
       "1.0.0.0,1.0.0.1,1.0.0.2,1.0.0.3,0.0.0.2,0.0.1.1,0.0.1.2,0.0.0.3,"
       "0.0.1.3"},
      {"Covert Locks", txn::ProtocolMode::kPandora, covert_locks, Litmus2(),
       "sync=lockstep runs=2"},
      {"Relaxed Locks", txn::ProtocolMode::kPandora, relaxed_locks,
       Litmus2(), "sync=lockstep runs=2"},
      {"Missing Actions", txn::ProtocolMode::kFordBaseline,
       missing_insert_logging, Litmus1Inserts(),
       "sync=lockstep runs=1 crash=0:0:MidCommitApply:1"},
      {"Lost Decision", txn::ProtocolMode::kFordBaseline, lost_decision,
       Litmus3AbortLogging(),
       "sync=lockstep runs=2 crash=0:0:MidAbortUnlock:1"},
      {"Logging-without-locking", txn::ProtocolMode::kFordBaseline,
       logging_without_locking, Litmus1PartialOverlap(),
       "sync=lockstep runs=1 crash=0:0:BeforeLock:2"},
  };
}

TEST_P(LitmusBugHunt, CaughtTracesReplay) {
  for (const CaughtTrace& caught : CaughtTraces()) {
    SCOPED_TRACE(caught.bug);
    ExpectTraceReplays(HuntConfig(caught.mode, caught.bugs, pipeline()),
                       caught.spec, caught.trace, caught.bug);
  }
}

INSTANTIATE_TEST_SUITE_P(PipelineOnOff, LitmusBugHunt, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Pipelined"
                                             : "Unpipelined";
                         });

// ------------------------------------------------- Schedule exploration --

TEST(LitmusScheduleTest, TraceRoundTrips) {
  CrashSchedule schedule;
  schedule.sync = SyncMode::kLockstep;
  CrashDirective crash;
  crash.slot = 1;
  crash.run = 0;
  crash.point = txn::CrashPoint::kAfterAbort;
  crash.occurrence = 2;
  schedule.crashes.push_back(crash);
  schedule.rc_fault = true;
  schedule.kill_memory_node = 2;

  const std::string text = schedule.ToString();
  CrashSchedule parsed;
  ASSERT_TRUE(CrashSchedule::Parse(text, &parsed)) << text;
  EXPECT_EQ(parsed.ToString(), text);
  EXPECT_EQ(parsed.sync, SyncMode::kLockstep);
  ASSERT_EQ(parsed.crashes.size(), 1u);
  EXPECT_EQ(parsed.crashes[0].slot, 1);
  EXPECT_EQ(parsed.crashes[0].run, 0);
  EXPECT_EQ(parsed.crashes[0].point, txn::CrashPoint::kAfterAbort);
  EXPECT_EQ(parsed.crashes[0].occurrence, 2);
  EXPECT_TRUE(parsed.rc_fault);
  EXPECT_EQ(parsed.kill_memory_node, 2);

  CrashSchedule bad;
  EXPECT_FALSE(CrashSchedule::Parse("crash=0:0:NoSuchPoint:1", &bad));
  EXPECT_FALSE(CrashSchedule::Parse("sync=sideways", &bad));
}

TEST(LitmusScheduleTest, VerbTraceRoundTrips) {
  CrashSchedule schedule;
  schedule.sync = SyncMode::kFree;
  schedule.runs = 1;
  schedule.verb_order = {{0, 0, 0, 0}, {1, 0, 0, 0}, {0, 0, 1, 1}};
  schedule.has_verb_kill = true;
  schedule.verb_kill = {2, 0, 0, 1};

  const std::string text = schedule.ToString();
  EXPECT_EQ(text,
            "sync=free runs=1 vorder=0.0.0.0,1.0.0.0,0.0.1.1 "
            "vkill=2.0.0.1");
  CrashSchedule parsed;
  ASSERT_TRUE(CrashSchedule::Parse(text, &parsed)) << text;
  EXPECT_EQ(parsed.ToString(), text);
  EXPECT_EQ(parsed.runs, 1);
  ASSERT_EQ(parsed.verb_order.size(), 3u);
  EXPECT_TRUE(parsed.verb_order[1] == (VerbToken{1, 0, 0, 0}));
  ASSERT_TRUE(parsed.has_verb_kill);
  EXPECT_TRUE(parsed.verb_kill == (VerbToken{2, 0, 0, 1}));

  // The transient recording flag never serializes.
  CrashSchedule recording;
  recording.record_verbs = true;
  EXPECT_FALSE(recording.empty());
  EXPECT_EQ(recording.ToString(), "sync=free");

  CrashSchedule bad;
  EXPECT_FALSE(CrashSchedule::Parse("runs=0", &bad));
  EXPECT_FALSE(CrashSchedule::Parse("vorder=", &bad));
  EXPECT_FALSE(CrashSchedule::Parse("vorder=0.0.0", &bad));
  EXPECT_FALSE(CrashSchedule::Parse("vkill=1.2.x.4", &bad));
}

// kVerbExhaustive's verb phase must actually explore: a contested window
// is discovered, candidate orders are enforced, equivalent candidates are
// pruned, and run counts beyond the configured one are tried
// automatically. ComplicitAbort is the spec whose catch *requires* the
// verb phase (no crash-point schedule finds it), so its report proves all
// of that end to end: the violating trace is a verb order at run count 1
// even though the config asks for 3 runs.
TEST(LitmusScheduleTest, VerbExhaustiveExploresAndReportsCoverage) {
  txn::BugFlags bugs;
  bugs.complicit_abort = true;
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.txn.bugs = bugs;
  config.schedule = SchedulePolicy::kVerbExhaustive;
  config.iterations = 120;
  config.runs_per_txn = 3;
  config.stop_after_violations = 1;
  LitmusHarness harness(config);
  const LitmusReport report = harness.Run(Litmus1LockRelease());
  EXPECT_TRUE(report.harness_error.empty()) << report.harness_error;
  ASSERT_GT(report.violations, 0);
  EXPECT_GT(report.verb_window, 0);
  EXPECT_GT(report.verb_orders_explored, 0);
  ASSERT_FALSE(report.violation_traces.empty());
  EXPECT_NE(report.violation_traces[0].find("vorder="), std::string::npos)
      << report.violation_traces[0];
  // The catch happened at an automatically-explored run count, and the
  // trace records it so replay repeats the program the same number of
  // times.
  CrashSchedule parsed;
  ASSERT_TRUE(CrashSchedule::Parse(report.violation_traces[0], &parsed));
  EXPECT_GT(parsed.runs, 0);
}

// A recorded violating schedule must replay to the *same* violation:
// identical executed trace, identical checker explanation.
TEST(LitmusScheduleTest, ViolatingScheduleReplaysIdentically) {
  txn::BugFlags bugs;
  bugs.lost_decision = true;
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kFordBaseline;
  config.txn.bugs = bugs;
  config.schedule = SchedulePolicy::kExhaustive;
  config.iterations = 120;
  config.stop_after_violations = 1;
  LitmusHarness harness(config);
  const LitmusReport first = harness.Run(Litmus3AbortLogging());
  ASSERT_GT(first.violations, 0);
  ASSERT_FALSE(first.violation_traces.empty());
  ASSERT_FALSE(first.violation_explanations.empty());

  CrashSchedule schedule;
  ASSERT_TRUE(CrashSchedule::Parse(first.violation_traces[0], &schedule))
      << first.violation_traces[0];

  HarnessConfig replay_config = config;
  replay_config.schedule = SchedulePolicy::kReplay;
  replay_config.replay = schedule;
  LitmusHarness replayer(replay_config);
  const LitmusReport replay = replayer.Run(Litmus3AbortLogging());
  ASSERT_EQ(replay.violations, 1);
  ASSERT_FALSE(replay.violation_traces.empty());
  EXPECT_EQ(replay.violation_traces[0], first.violation_traces[0]);
  EXPECT_EQ(replay.violation_explanations[0],
            first.violation_explanations[0]);
  EXPECT_EQ(replay.schedule_noops, 0);
}

// An iteration is a pure function of (spec, seed, schedule): the slots and
// the migration are fibers on a logical clock, and nothing inside an
// iteration reads the wall clock. So two runs of the same exploration in
// one process must agree field by field: the same schedules planned and
// executed, the same coverage, the same verb-order exploration, the same
// traces and explanations. The Complicit Aborts hunt exercises the
// verb-order phase (holds, free-running tails, unordered reads); the
// reconfiguration run exercises the migration's turns and the cutover
// quiesce.
void ExpectSameReport(const LitmusReport& a, const LitmusReport& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.schedules_planned, b.schedules_planned);
  EXPECT_EQ(a.schedules_skipped, b.schedules_skipped);
  EXPECT_EQ(a.schedule_noops, b.schedule_noops);
  EXPECT_EQ(a.crashes_injected, b.crashes_injected);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.unknown, b.unknown);
  EXPECT_EQ(a.point_visits, b.point_visits);
  EXPECT_EQ(a.point_crashes, b.point_crashes);
  EXPECT_EQ(a.reconfig_point_visits, b.reconfig_point_visits);
  EXPECT_EQ(a.reconfig_point_crashes, b.reconfig_point_crashes);
  EXPECT_EQ(a.reconfig_rollbacks, b.reconfig_rollbacks);
  EXPECT_EQ(a.verb_window, b.verb_window);
  EXPECT_EQ(a.verb_orders_explored, b.verb_orders_explored);
  EXPECT_EQ(a.verb_orders_pruned, b.verb_orders_pruned);
  EXPECT_EQ(a.verb_kills_injected, b.verb_kills_injected);
  EXPECT_EQ(a.verb_schedules_diverged, b.verb_schedules_diverged);
  EXPECT_EQ(a.bug_injections, b.bug_injections);
  EXPECT_EQ(a.violation_traces, b.violation_traces);
  EXPECT_EQ(a.violation_explanations, b.violation_explanations);
}

TEST(LitmusScheduleTest, TracesByteIdenticalRunToRun) {
  {
    SCOPED_TRACE("Complicit Aborts, kVerbExhaustive");
    txn::BugFlags bugs;
    bugs.complicit_abort = true;
    HarnessConfig config =
        HuntConfig(txn::ProtocolMode::kPandora, bugs, /*pipeline=*/true);
    config.schedule = SchedulePolicy::kVerbExhaustive;
    config.runs_per_txn = 3;
    const LitmusReport first = LitmusHarness(config).Run(Litmus1LockRelease());
    const LitmusReport second =
        LitmusHarness(config).Run(Litmus1LockRelease());
    ASSERT_GT(first.violations, 0);
    EXPECT_GT(first.verb_orders_explored, 0);
    ExpectSameReport(first, second);
  }
  {
    SCOPED_TRACE("reconfig=join, kExhaustive");
    HarnessConfig config = FastConfig();
    config.txn.mode = txn::ProtocolMode::kPandora;
    config.schedule = SchedulePolicy::kExhaustive;
    config.reconfig = ReconfigKind::kJoin;
    config.iterations = 64;
    config.runs_per_txn = 1;
    const LitmusReport first = LitmusHarness(config).Run(LitmusReconfig());
    const LitmusReport second = LitmusHarness(config).Run(LitmusReconfig());
    EXPECT_GT(first.reconfigs_run, 0);
    ExpectSameReport(first, second);
  }
}

// Exhaustive mode on a single-transaction spec must crash at *every*
// crash point its profiling run visited — the per-point coverage counters
// prove nothing reachable was skipped.
TEST(LitmusScheduleTest, ExhaustiveCoversAllReachablePointsSingleTxn) {
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.schedule = SchedulePolicy::kExhaustive;
  config.iterations = 60;
  LitmusHarness harness(config);
  const LitmusReport report = harness.Run(LitmusSingle());
  EXPECT_EQ(report.violations, 0)
      << (report.failures.empty() ? "" : report.failures[0]);
  EXPECT_EQ(report.schedules_skipped, 0)
      << "iteration budget too small to enumerate every point";
  int covered = 0;
  for (int p = 0; p < txn::kNumCrashPoints; ++p) {
    const txn::CrashPoint point = static_cast<txn::CrashPoint>(p);
    if (report.point_visits[p] > 0) {
      EXPECT_GT(report.point_crashes[p], 0)
          << "reachable point never crashed: "
          << txn::CrashPointName(point);
      ++covered;
    } else {
      EXPECT_EQ(report.point_crashes[p], 0)
          << "crash fired at an unvisited point: "
          << txn::CrashPointName(point);
    }
  }
  // A solo committing transaction traverses lock, log, apply, unlock (and
  // more); far more than a handful of points must be reachable.
  EXPECT_GE(covered, 8) << report.CoverageSummary();
  EXPECT_FALSE(report.CoverageSummary().empty());
  EXPECT_EQ(report.schedule_noops, 0);
}

// Every commit doorbell group must be crashed at every verb it posts: a
// solo transaction writing two objects at replication 2 posts two applies
// per object and one unlock per object, and every prefix of a group is one
// crashed schedule — between two verbs at kMidCommitApply / kMidUnlock,
// and once at each boundary point around them. Pandora merges one log
// fragment per touched server, the applies and the unlocks into one group
// (kAfterLogWrite between fragments, kAfterValidation after the last,
// kAfterClientAck after the drained group); the FORD baseline runs the
// applies and the unlocks as two groups around the client ack, its undo
// records written during execution (one kAfterLogWrite per write). Each
// schedule recovers with no violation.
TEST(LitmusScheduleTest, ExhaustiveCrashesEveryVerbOfTheMergedGroup) {
  for (const txn::ProtocolMode mode :
       {txn::ProtocolMode::kPandora, txn::ProtocolMode::kFordBaseline}) {
    const bool pandora = mode == txn::ProtocolMode::kPandora;
    SCOPED_TRACE(pandora ? "Pandora" : "FordBaseline");
    LitmusSpec spec;
    spec.name = "litmus-single-two-writes";
    spec.initial = {0, 0, 0};
    constexpr Var kX = 0, kY = 1, kZ = 2;
    spec.txns = {LitmusTxn{"T1",
                           {LitmusOp::Load(0, kZ), LitmusOp::StoreConst(kX, 1),
                            LitmusOp::StoreConst(kY, 1)}}};
    HarnessConfig config = FastConfig();
    config.txn.mode = mode;
    config.schedule = SchedulePolicy::kExhaustive;
    // Two memory servers at replication 2: every object has a replica on
    // both, so the group touches exactly two servers.
    config.memory_nodes = 2;
    config.replication = 2;
    config.runs_per_txn = 1;
    config.iterations = 60;
    LitmusHarness harness(config);
    const LitmusReport report = harness.Run(spec);
    EXPECT_EQ(report.violations, 0)
        << (report.failures.empty() ? "" : report.failures[0]);
    EXPECT_EQ(report.schedules_skipped, 0);
    EXPECT_EQ(report.schedule_noops, 0);

    constexpr int kWrites = 2;
    constexpr int kServers = 2;
    constexpr int kFragmentVerbs = 1 * kServers;   // One fragment each.
    constexpr int kApplyVerbs = kWrites * 2;       // Two replicas each.
    constexpr int kUnlockVerbs = kWrites;
    const auto crashes = [&](txn::CrashPoint point) {
      return report.point_crashes[static_cast<int>(point)];
    };
    EXPECT_EQ(crashes(txn::CrashPoint::kAfterLogWrite),
              pandora ? kFragmentVerbs - 1 : kWrites)
        << report.CoverageSummary();
    EXPECT_EQ(crashes(txn::CrashPoint::kAfterValidation), 1);
    EXPECT_EQ(crashes(txn::CrashPoint::kBeforeCommitApply), 1);
    EXPECT_EQ(crashes(txn::CrashPoint::kMidCommitApply), kApplyVerbs - 1);
    EXPECT_EQ(crashes(txn::CrashPoint::kAfterCommitApply), 1);
    EXPECT_EQ(crashes(txn::CrashPoint::kBeforeUnlock), 1);
    EXPECT_EQ(crashes(txn::CrashPoint::kMidUnlock), kUnlockVerbs - 1);
    EXPECT_EQ(crashes(txn::CrashPoint::kAfterClientAck), 1);
    // The boundary after the unlocks: Pandora's drained group is
    // kAfterClientAck; the baseline's unlock group ends at kAfterUnlock.
    EXPECT_EQ(crashes(txn::CrashPoint::kAfterUnlock), pandora ? 0 : 1)
        << report.CoverageSummary();
    if (pandora) {
      EXPECT_EQ(crashes(txn::CrashPoint::kAfterLogWrite) +
                    crashes(txn::CrashPoint::kAfterValidation) +
                    crashes(txn::CrashPoint::kMidCommitApply) +
                    crashes(txn::CrashPoint::kAfterCommitApply) +
                    crashes(txn::CrashPoint::kMidUnlock) +
                    crashes(txn::CrashPoint::kAfterClientAck),
                kFragmentVerbs + kApplyVerbs + kUnlockVerbs)
          << report.CoverageSummary();
    }
  }
}

// Compound schedules: every coordinator crash chained with an RC death
// and with a memory-node failure must still recover to a serializable
// state.
TEST(LitmusScheduleTest, CompoundSchedulesRecoverCleanly) {
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.schedule = SchedulePolicy::kExhaustive;
  config.iterations = 40;
  config.runs_per_txn = 1;
  config.compound_rc_fault = true;
  config.compound_memory_kill = true;
  LitmusHarness harness(config);
  const LitmusReport report = harness.Run(LitmusSingle());
  EXPECT_EQ(report.violations, 0)
      << (report.failures.empty() ? "" : report.failures[0]);
  EXPECT_GT(report.rc_faults_injected, 0);
  EXPECT_GT(report.memory_kills_injected, 0);
}

// A run whose enabled bug flags never actually deviate from the fixed
// protocol is unsound, and the harness must say so rather than "pass".
TEST(LitmusScheduleTest, FlagsHarnessErrorWhenBugNeverExercised) {
  txn::BugFlags bugs;
  bugs.missing_insert_logging = true;  // Litmus2 performs no inserts.
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kFordBaseline;
  config.txn.bugs = bugs;
  config.schedule = SchedulePolicy::kExhaustive;
  config.iterations = 30;
  LitmusHarness harness(config);
  const LitmusReport report = harness.Run(Litmus2());
  EXPECT_EQ(report.bug_injections, 0u);
  EXPECT_FALSE(report.harness_error.empty());
  EXPECT_FALSE(report.passed());
}

// ----------------------------------------------- Online reconfiguration --
//
// LitmusReconfig races four read-modify-write counters against a live
// memory-node join/drain. With the epoch fence on, a correct cutover must
// never lose a committed increment no matter where the migration driver
// crashes. With the fence deliberately disabled, the naive cutover loses
// updates — objects locked during the bulk copy are deferred and never
// delta-copied, and post-cutover commits keep landing on the old primaries
// — and the checker must turn that into a violation.

TEST(LitmusScheduleTest, ReconfigTraceRoundTrips) {
  CrashSchedule schedule;
  schedule.sync = SyncMode::kLockstep;
  schedule.reconfig = ReconfigKind::kJoin;
  schedule.reconfig_crash =
      static_cast<int>(cluster::ReconfigCrashPoint::kMidRangeCopy);
  schedule.reconfig_kill_target = true;
  EXPECT_FALSE(schedule.empty());

  const std::string text = schedule.ToString();
  EXPECT_NE(text.find("reconfig=join"), std::string::npos) << text;
  EXPECT_NE(text.find("reconfig_crash=MidRangeCopy"), std::string::npos)
      << text;
  EXPECT_NE(text.find("reconfig_kill_target=1"), std::string::npos) << text;
  CrashSchedule parsed;
  ASSERT_TRUE(CrashSchedule::Parse(text, &parsed)) << text;
  EXPECT_EQ(parsed.ToString(), text);
  EXPECT_EQ(parsed.reconfig, ReconfigKind::kJoin);
  EXPECT_EQ(parsed.reconfig_crash,
            static_cast<int>(cluster::ReconfigCrashPoint::kMidRangeCopy));
  EXPECT_FALSE(parsed.reconfig_fence_off);
  EXPECT_TRUE(parsed.reconfig_kill_target);

  // The naive-cutover drain variant.
  CrashSchedule naive;
  naive.sync = SyncMode::kLockstep;
  naive.runs = 4;
  naive.reconfig = ReconfigKind::kDrain;
  naive.reconfig_fence_off = true;
  const std::string naive_text = naive.ToString();
  EXPECT_NE(naive_text.find("reconfig=drain"), std::string::npos)
      << naive_text;
  EXPECT_NE(naive_text.find("reconfig_fence=0"), std::string::npos)
      << naive_text;
  CrashSchedule naive_parsed;
  ASSERT_TRUE(CrashSchedule::Parse(naive_text, &naive_parsed)) << naive_text;
  EXPECT_EQ(naive_parsed.ToString(), naive_text);
  EXPECT_EQ(naive_parsed.reconfig, ReconfigKind::kDrain);
  EXPECT_TRUE(naive_parsed.reconfig_fence_off);
  EXPECT_EQ(naive_parsed.reconfig_crash, -1);
  EXPECT_EQ(naive_parsed.runs, 4);

  CrashSchedule bad;
  EXPECT_FALSE(CrashSchedule::Parse("reconfig=sideways", &bad));
  EXPECT_FALSE(CrashSchedule::Parse("reconfig_crash=NoSuchPoint", &bad));
}

// Exhaustive exploration under a live join must stay serializable AND
// cover every migration crash point: the enumeration prepends one schedule
// per ReconfigCrashPoint (plus a join-target kill), so every rollback /
// roll-forward decision of the migration driver is exercised.
TEST(LitmusReconfigTest, JoinCoversEveryMigrationCrashPoint) {
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.schedule = SchedulePolicy::kExhaustive;
  config.reconfig = ReconfigKind::kJoin;
  config.iterations = 64;
  config.runs_per_txn = 1;
  LitmusHarness harness(config);
  const LitmusReport report = harness.Run(LitmusReconfig());
  if (report.violations > 0) {
    DumpReproducerTraces(report, "reconfig-join");
  }
  EXPECT_EQ(report.violations, 0)
      << (report.failures.empty() ? "" : report.failures[0]);
  EXPECT_GT(report.committed, 0);
  EXPECT_GT(report.reconfigs_run, 0);
  EXPECT_GT(report.reconfig_crashes_injected, 0);
  EXPECT_GT(report.reconfig_rollbacks, 0)
      << "pre-cutover crashes must roll the migration back";
  EXPECT_GT(report.reconfig_kills_injected, 0)
      << "the join-target kill schedule never fired";
  for (int p = 0; p < static_cast<int>(cluster::kNumReconfigCrashPoints); ++p) {
    const auto point = static_cast<cluster::ReconfigCrashPoint>(p);
    EXPECT_GT(report.reconfig_point_visits[p], 0)
        << "migration crash point never visited: "
        << cluster::ReconfigCrashPointName(point) << "\n"
        << report.CoverageSummary();
    EXPECT_GT(report.reconfig_point_crashes[p], 0)
        << "migration crash point never crashed: "
        << cluster::ReconfigCrashPointName(point) << "\n"
        << report.CoverageSummary();
  }
}

// The planned drain (join quietly, then drain under traffic) gets the same
// treatment: serializable at every migration crash point.
TEST(LitmusReconfigTest, DrainCoversEveryMigrationCrashPoint) {
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.schedule = SchedulePolicy::kExhaustive;
  config.reconfig = ReconfigKind::kDrain;
  config.iterations = 64;
  config.runs_per_txn = 1;
  LitmusHarness harness(config);
  const LitmusReport report = harness.Run(LitmusReconfig());
  if (report.violations > 0) {
    DumpReproducerTraces(report, "reconfig-drain");
  }
  EXPECT_EQ(report.violations, 0)
      << (report.failures.empty() ? "" : report.failures[0]);
  EXPECT_GT(report.committed, 0);
  EXPECT_GT(report.reconfigs_run, 0);
  EXPECT_GT(report.reconfig_rollbacks, 0)
      << "pre-cutover crashes must roll the drain back";
  for (int p = 0; p < static_cast<int>(cluster::kNumReconfigCrashPoints); ++p) {
    const auto point = static_cast<cluster::ReconfigCrashPoint>(p);
    EXPECT_GT(report.reconfig_point_visits[p], 0)
        << "migration crash point never visited: "
        << cluster::ReconfigCrashPointName(point) << "\n"
        << report.CoverageSummary();
    EXPECT_GT(report.reconfig_point_crashes[p], 0)
        << "migration crash point never crashed: "
        << cluster::ReconfigCrashPointName(point) << "\n"
        << report.CoverageSummary();
  }
}

// Teeth test: the deliberately naive cutover (epoch fence off, no quiesce,
// no delta pass) must be CAUGHT by the litmus checker, and the catch must
// re-prove from its recorded trace. Whether a join moves a variable that
// a transaction commits between its bulk copy and the ring publish
// depends on where the seed salts the keys on the ring, so the hunt tries
// a bounded number of seeds. The migration's steps interleave with the
// slots' at fixed points, so the replay at the catching seed reproduces
// on its first attempt.
TEST(LitmusReconfigTest, NaiveCutoverIsCaught) {
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.schedule = SchedulePolicy::kReplay;
  config.replay.sync = SyncMode::kLockstep;
  config.replay.runs = 4;
  config.replay.reconfig = ReconfigKind::kJoin;
  config.replay.reconfig_fence_off = true;

  LitmusReport caught;
  bool found = false;
  for (int attempt = 0; attempt < 20 && !found; ++attempt) {
    config.seed = 7000 + attempt;
    LitmusHarness harness(config);
    const LitmusReport report = harness.Run(LitmusReconfig());
    ASSERT_TRUE(report.harness_error.empty()) << report.harness_error;
    if (report.violations > 0) {
      caught = report;
      found = true;
    }
  }
  ASSERT_TRUE(found)
      << "the naive (fence-off) cutover was never caught: the litmus spec "
         "has no teeth";
  DumpReproducerTraces(caught, "reconfig-naive-cutover");
  ASSERT_FALSE(caught.violation_traces.empty());
  const std::string trace = caught.violation_traces[0];
  EXPECT_NE(trace.find("reconfig=join"), std::string::npos) << trace;
  EXPECT_NE(trace.find("reconfig_fence=0"), std::string::npos) << trace;
  std::printf("naive cutover caught at seed %llu: %s\n",
              static_cast<unsigned long long>(config.seed), trace.c_str());

  // Re-prove from the recorded trace alone, at the catching seed.
  ExpectTraceReplays(config, LitmusReconfig(), trace, "naive cutover");
}

// Coordinator crash *pairs* — two slots dying at different points of the
// same iteration, bounded to the contested (lock-holding) window — must
// all recover to a serializable state, and the enumeration must actually
// add pair schedules on top of the singles.
TEST(LitmusScheduleTest, CoordinatorCrashPairsStaySerializable) {
  HarnessConfig config = FastConfig();
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.schedule = SchedulePolicy::kExhaustive;
  config.iterations = 260;
  config.runs_per_txn = 1;

  LitmusHarness single(config);
  const LitmusReport singles = single.Run(Litmus2());
  EXPECT_EQ(singles.violations, 0)
      << (singles.failures.empty() ? "" : singles.failures[0]);

  config.crash_pairs = true;
  LitmusHarness paired(config);
  const LitmusReport pairs = paired.Run(Litmus2());
  if (pairs.violations > 0) {
    DumpReproducerTraces(pairs, "crash-pairs");
  }
  EXPECT_EQ(pairs.violations, 0)
      << (pairs.failures.empty() ? "" : pairs.failures[0]);
  EXPECT_EQ(pairs.schedules_skipped, 0)
      << "budget too small to execute every contested crash pair";
  EXPECT_GT(pairs.schedules_planned, singles.schedules_planned)
      << "crash_pairs added no schedules";
  EXPECT_GT(pairs.crashes_injected, singles.crashes_injected);
}

}  // namespace
}  // namespace litmus
}  // namespace pandora
