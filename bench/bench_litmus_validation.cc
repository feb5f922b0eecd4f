// Reproduces Table 1 (§5.1): the litmus-testing framework's bug findings.
// For each of the six FORD bugs, the corresponding bug switch is enabled
// and the framework must flag a strict-serializability violation — all
// deterministically, in one pass: four via exhaustive crash-schedule
// enumeration, two via verb-order exploration (kVerbExhaustive, for the
// intra-phase races the lockstep rendezvous cannot order). With the
// fixes in place (all switches off), every litmus test passes with a
// crash at every reachable crash point (kExhaustive).

#include <cstdio>

#include "litmus/harness.h"
#include "litmus/litmus_spec.h"
#include "bench/bench_util.h"

namespace pandora {
namespace bench {
namespace {

litmus::HarnessConfig BaseConfig() {
  litmus::HarnessConfig config;
  config.iterations = FastMode() ? 40 : 80;
  config.net.one_way_ns = 1500;
  return config;
}

struct BugCase {
  const char* litmus;
  const char* bug;
  const char* category;
  txn::ProtocolMode mode;
  txn::BugFlags flags;
  litmus::LitmusSpec spec;
  uint64_t seed;
  /// kExhaustive hunts via crash-point enumeration; kVerbExhaustive adds
  /// verb-order exploration for intra-phase races. Both are one
  /// deterministic pass.
  litmus::SchedulePolicy policy = litmus::SchedulePolicy::kExhaustive;
  int runs_per_txn = 2;
};

void RunBugCase(const BugCase& bug_case) {
  litmus::HarnessConfig config = BaseConfig();
  config.txn.mode = bug_case.mode;
  config.txn.bugs = bug_case.flags;
  config.iterations = 120;
  config.seed = bug_case.seed;
  config.schedule = bug_case.policy;
  config.runs_per_txn = bug_case.runs_per_txn;
  config.stop_after_violations = 1;
  litmus::LitmusHarness harness(config);
  const litmus::LitmusReport report = harness.Run(bug_case.spec);
  if (report.violations > 0) {
    std::printf("%-12s %-26s %-4s CAUGHT after %5d iterations: %s\n",
                bug_case.litmus, bug_case.bug, bug_case.category,
                report.iterations,
                report.failures.empty() ? "(violation)"
                                        : report.failures[0].c_str());
    return;
  }
  std::printf("%-12s %-26s %-4s NOT reproduced within budget\n",
              bug_case.litmus, bug_case.bug, bug_case.category);
}

}  // namespace
}  // namespace bench
}  // namespace pandora

int main() {
  using namespace pandora;
  using namespace pandora::bench;
  using litmus::LitmusSpec;

  PrintHeader("Litmus-test validation: bugs found and fixed",
              "Table 1 (§5.1): three bug categories — online-failure-free "
              "(C1), online-recovery (C2) — each caught by the framework "
              "when re-enabled, absent with the fixes");

  // --- The fixed protocols pass every litmus test, crashed at every
  // reachable crash point of one run per transaction (the budget covers
  // the whole enumeration; skipped schedules are reported).
  std::printf("--- fixed protocols, exhaustive crash points ---\n");
  for (const txn::ProtocolMode mode :
       {txn::ProtocolMode::kPandora, txn::ProtocolMode::kFordBaseline}) {
    litmus::HarnessConfig config = BaseConfig();
    config.txn.mode = mode;
    config.schedule = litmus::SchedulePolicy::kExhaustive;
    config.runs_per_txn = 1;
    config.iterations = 400;
    litmus::LitmusHarness harness(config);
    int total_violations = 0;
    int total_crashes = 0;
    int total_skipped = 0;
    for (const LitmusSpec& spec : litmus::AllLitmusSpecs()) {
      const litmus::LitmusReport report = harness.Run(spec);
      total_violations += report.violations;
      total_crashes += report.crashes_injected;
      total_skipped += report.schedules_skipped;
      if (report.violations > 0) {
        std::printf("  VIOLATION in %s: %s\n", spec.name.c_str(),
                    report.failures[0].c_str());
      }
    }
    std::printf("%-10s all litmus specs: %d violations over %d injected "
                "crashes (%d schedules skipped)\n",
                mode == txn::ProtocolMode::kPandora ? "Pandora" : "Baseline",
                total_violations, total_crashes, total_skipped);
  }

  // --- Each Table-1 bug, re-enabled, is caught.
  std::printf("\n--- re-enabled FORD bugs ---\n");
  std::printf("%-12s %-26s %-4s result\n", "litmus", "bug", "cat");

  txn::BugFlags flags;

  flags = {};
  flags.complicit_abort = true;
  // Intra-phase three-party CAS race: needs verb-order exploration (the
  // lockstep rendezvous cannot order it — see DESIGN.md).
  RunBugCase({"litmus-1", "Complicit Aborts", "C1",
              txn::ProtocolMode::kPandora, flags,
              litmus::Litmus1LockRelease(), 7,
              litmus::SchedulePolicy::kVerbExhaustive,
              /*runs_per_txn=*/3});

  flags = {};
  flags.missing_insert_logging = true;
  RunBugCase({"litmus-1", "Missing Actions (inserts)", "C2",
              txn::ProtocolMode::kFordBaseline, flags,
              litmus::Litmus1Inserts(), 17,
              litmus::SchedulePolicy::kVerbExhaustive});

  flags = {};
  flags.covert_locks = true;
  RunBugCase({"litmus-2", "Covert Locks", "C1",
              txn::ProtocolMode::kPandora, flags, litmus::Litmus2(), 11,
              litmus::SchedulePolicy::kExhaustive});

  flags = {};
  flags.relaxed_locks = true;
  RunBugCase({"litmus-2", "Relaxed Locks", "C1",
              txn::ProtocolMode::kPandora, flags, litmus::Litmus2(), 13,
              litmus::SchedulePolicy::kExhaustive});

  flags = {};
  flags.lost_decision = true;
  RunBugCase({"litmus-3", "Lost Decision", "C2",
              txn::ProtocolMode::kFordBaseline, flags,
              litmus::Litmus3AbortLogging(), 19,
              litmus::SchedulePolicy::kExhaustive});

  flags = {};
  flags.logging_without_locking = true;
  flags.lost_decision = true;
  // The guilty unlocked-log window only stays open for a single run per
  // slot; kVerbExhaustive explores run count 1 automatically, so no
  // manual runs_per_txn knob (see tests/litmus_test.cc).
  RunBugCase({"litmus-3", "Logging without locking", "C2",
              txn::ProtocolMode::kFordBaseline, flags,
              litmus::Litmus1PartialOverlap(), 23,
              litmus::SchedulePolicy::kVerbExhaustive});

  return 0;
}
