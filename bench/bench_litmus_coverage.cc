// Schedule-exploration throughput and crash-point coverage of the litmus
// framework's exhaustive mode: for each spec, how many schedules the
// explorer enumerates and executes per second, and what fraction of the
// reachable crash points it actually crashed. Compound rows additionally
// chain every coordinator crash with a recovery-coordinator death and a
// memory-node failure.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "litmus/harness.h"
#include "litmus/litmus_spec.h"

namespace pandora {
namespace bench {
namespace {

litmus::HarnessConfig ExploreConfig() {
  litmus::HarnessConfig config;
  config.schedule = litmus::SchedulePolicy::kExhaustive;
  config.iterations = FastMode() ? 60 : 400;
  return config;
}

struct CoverageRow {
  int schedules = 0;
  int skipped = 0;
  int noops = 0;
  int reachable = 0;
  int covered = 0;
  int violations = 0;
  double schedules_per_sec = 0;
  // kVerbExhaustive only: contested-window size and verb-order coverage.
  int verb_window = 0;
  int verb_orders_explored = 0;
  int verb_orders_pruned = 0;
  int verb_kills = 0;
  int verb_diverged = 0;
};

CoverageRow Explore(const litmus::LitmusSpec& spec, bool compound,
                    int runs_per_txn,
                    litmus::SchedulePolicy policy =
                        litmus::SchedulePolicy::kExhaustive) {
  litmus::HarnessConfig config = ExploreConfig();
  config.schedule = policy;
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.runs_per_txn = runs_per_txn;
  config.compound_rc_fault = compound;
  config.compound_memory_kill = compound;
  litmus::LitmusHarness harness(config);
  const uint64_t start_us = NowMicros();
  const litmus::LitmusReport report = harness.Run(spec);
  const uint64_t elapsed_us = NowMicros() - start_us;

  CoverageRow row;
  row.schedules = report.iterations;
  row.skipped = report.schedules_skipped;
  row.noops = report.schedule_noops;
  row.violations = report.violations;
  for (int p = 0; p < txn::kNumCrashPoints; ++p) {
    if (report.point_visits[p] > 0) {
      row.reachable++;
      if (report.point_crashes[p] > 0) row.covered++;
    }
  }
  row.schedules_per_sec =
      elapsed_us > 0 ? report.iterations * 1e6 / elapsed_us : 0;
  row.verb_window = report.verb_window;
  row.verb_orders_explored = report.verb_orders_explored;
  row.verb_orders_pruned = report.verb_orders_pruned;
  row.verb_kills = report.verb_kills_injected;
  row.verb_diverged = report.verb_schedules_diverged;
  return row;
}

void PrintCoverageRow(const char* label, const CoverageRow& row) {
  std::printf("%-28s %5d schedules (%3d skipped, %2d no-op)  "
              "%5.1f schedules/s  points %2d/%2d  violations %d\n",
              label, row.schedules, row.skipped, row.noops,
              row.schedules_per_sec, row.covered, row.reachable,
              row.violations);
}

void PrintVerbRow(const char* label, const CoverageRow& row) {
  std::printf("%-28s window %2d verbs  orders %3d explored / %3d pruned  "
              "%2d kills  %2d diverged  %5.1f schedules/s\n",
              label, row.verb_window, row.verb_orders_explored,
              row.verb_orders_pruned, row.verb_kills, row.verb_diverged,
              row.schedules_per_sec);
}

void AddCoverageMetrics(BenchJson* json, const std::string& prefix,
                        const CoverageRow& row) {
  json->Set(prefix + ".schedules", row.schedules);
  json->Set(prefix + ".schedules_per_sec", row.schedules_per_sec);
  json->Set(prefix + ".points_reachable", row.reachable);
  json->Set(prefix + ".points_covered", row.covered);
  json->Set(prefix + ".noops", row.noops);
  json->Set(prefix + ".violations", row.violations);
}

void AddVerbMetrics(BenchJson* json, const std::string& prefix,
                    const CoverageRow& row) {
  json->Set(prefix + ".verb_window", row.verb_window);
  json->Set(prefix + ".verb_orders_explored", row.verb_orders_explored);
  json->Set(prefix + ".verb_orders_pruned", row.verb_orders_pruned);
  json->Set(prefix + ".verb_kills", row.verb_kills);
  json->Set(prefix + ".verb_diverged", row.verb_diverged);
}

}  // namespace
}  // namespace bench
}  // namespace pandora

int main() {
  using namespace pandora;
  using namespace pandora::bench;

  PrintHeader("Litmus schedule-exploration coverage",
              "§5 crash injection, deterministic mode: schedules "
              "enumerated and executed per second, and reachable "
              "crash points covered, per litmus spec");

  BenchJson json("litmus_coverage");
  // Config block: exploration shape behind every coverage number below
  // (git_sha is stamped by BenchJson::Write).
  json.Set("config.fast_mode", FastMode() ? 1 : 0);
  json.Set("config.spec_cases", 3);
  json.Set("config.compound_cases", 1);

  struct SpecCase {
    const char* label;
    const char* key;
    litmus::LitmusSpec spec;
    int runs_per_txn;
  };
  const SpecCase cases[] = {
      {"litmus-single", "single", litmus::LitmusSingle(), 1},
      {"litmus-1", "litmus1", litmus::Litmus1(), 1},
      {"litmus-2", "litmus2", litmus::Litmus2(), 2},
  };

  std::printf("--- exhaustive exploration ---\n");
  for (const SpecCase& spec_case : cases) {
    const CoverageRow row = Explore(spec_case.spec, /*compound=*/false,
                                    spec_case.runs_per_txn);
    PrintCoverageRow(spec_case.label, row);
    AddCoverageMetrics(&json, spec_case.key, row);
  }

  std::printf("--- compound schedules (RC death + memory kill) ---\n");
  const CoverageRow compound =
      Explore(litmus::LitmusSingle(), /*compound=*/true,
              /*runs_per_txn=*/1);
  PrintCoverageRow("litmus-single+compound", compound);
  AddCoverageMetrics(&json, "single_compound", compound);

  std::printf("--- verb-order exploration (kVerbExhaustive) ---\n");
  for (const SpecCase& spec_case : cases) {
    const CoverageRow row =
        Explore(spec_case.spec, /*compound=*/false,
                spec_case.runs_per_txn,
                litmus::SchedulePolicy::kVerbExhaustive);
    PrintVerbRow(spec_case.label, row);
    const std::string key = std::string(spec_case.key) + "_verb";
    AddCoverageMetrics(&json, key, row);
    AddVerbMetrics(&json, key, row);
  }

  json.Write();
  return 0;
}
