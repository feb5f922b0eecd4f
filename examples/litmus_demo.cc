// Litmus-framework walkthrough: validate Pandora with a crash at every
// reachable crash point, then re-enable one of FORD's original bugs
// (Covert Locks) and watch the framework catch the strict-serializability
// violation.
//
//   $ ./examples/litmus_demo

#include <cstdio>

#include "litmus/harness.h"
#include "litmus/litmus_spec.h"

using namespace pandora;

namespace {

litmus::HarnessConfig DemoConfig() {
  litmus::HarnessConfig config;
  // Exhaustive crash points (the default policy), one run per
  // transaction; the budget covers every spec's enumeration.
  config.runs_per_txn = 1;
  config.iterations = 400;
  return config;
}

void PrintReport(const litmus::LitmusReport& report) {
  std::printf("  %-26s %3d iterations, %3d crashes injected, "
              "%d schedules skipped, %d violations%s\n",
              report.spec_name.c_str(), report.iterations,
              report.crashes_injected, report.schedules_skipped,
              report.violations, report.passed() ? "" : "  <-- BUG CAUGHT");
  for (const std::string& failure : report.failures) {
    std::printf("      %s\n", failure.c_str());
  }
}

}  // namespace

int main() {
  // --- 1. Pandora passes every litmus test, crashes and all.
  std::printf("validating Pandora (all fixes in) ...\n");
  {
    litmus::HarnessConfig config = DemoConfig();
    config.txn.mode = txn::ProtocolMode::kPandora;
    litmus::LitmusHarness harness(config);
    for (const litmus::LitmusSpec& spec : litmus::AllLitmusSpecs()) {
      PrintReport(harness.Run(spec));
    }
  }

  // --- 2. Re-enable FORD's Covert Locks bug (validation does not check
  //        whether read-set objects are locked) and let litmus 2 expose
  //        the read-write cycle it permits.
  std::printf("\nre-enabling the Covert Locks bug (Table 1, C1) ...\n");
  {
    litmus::HarnessConfig config = DemoConfig();
    config.txn.mode = txn::ProtocolMode::kPandora;
    config.txn.bugs.covert_locks = true;
    // A pure concurrency bug: the lockstep profiling iteration, which
    // crashes nothing, already exposes it.
    config.stop_after_violations = 1;
    litmus::LitmusHarness harness(config);
    PrintReport(harness.Run(litmus::Litmus2()));
  }
  return 0;
}
