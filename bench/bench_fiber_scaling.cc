// Fiber scaling: overlapping RDMA waits across in-flight transactions.
// Every simulated verb wait used to block an entire OS worker thread, so
// the logical coordinators multiplexed over the driver's 2 threads
// serialized behind each other's network stalls. The paper's testbed gets
// its throughput precisely by overlapping many latency-bound coordinators
// per core (128 coordinators over a handful of cores), and the related
// work (FORD-lineage systems, Lotus, the RDMA-CC framework study) isolates
// coroutines-per-thread as a first-order throughput knob.
//
// This bench sweeps DriverConfig::fibers_per_thread under the paper's
// latency model and reports committed MTps, commit-latency percentiles,
// the overlap factor (simulated waits in flight per worker, on average),
// and the per-transaction round-trip counters — which must stay flat
// across the sweep: overlap reclaims CPU time, never simulated time.
// It also reports the simulator's own cost per fiber switch
// (fiber.switch_ns), so scheduler overhead is never read as protocol cost.

#include <algorithm>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/fiber.h"
#include "workloads/micro.h"

namespace pandora {
namespace bench {
namespace {

workloads::DriverResult RunMicro(uint32_t fibers_per_thread) {
  workloads::MicroConfig micro_config;
  micro_config.num_keys = 20'000;
  micro_config.write_percent = 100;
  micro_config.ops_per_txn = 4;
  workloads::MicroWorkload workload(micro_config);

  recovery::RecoveryManagerConfig rm;
  rm.mode = txn::ProtocolMode::kPandora;
  rm.fd = BenchFd();
  Testbed testbed(PaperTestbed(), rm, &workload);

  workloads::DriverConfig driver_config;
  driver_config.threads = 2;
  // Enough slots that even the widest sweep point keeps every fiber fed.
  driver_config.coordinators = 64;
  driver_config.duration_ms = Scaled(1500);
  driver_config.fibers_per_thread = fibers_per_thread;
  auto driver = testbed.MakeDriver(driver_config);
  return driver->Run();
}

// Wall nanoseconds of one suspend+resume round trip of an already-due
// wait: a lone fiber yields `kSwitches` times, so every dispatch is the
// fiber itself and nothing idles. Median of five repetitions.
double MeasureSwitchNanos() {
  const uint64_t kSwitches = Scaled(400'000);
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    FiberScheduler scheduler;
    scheduler.Spawn([&scheduler, kSwitches] {
      for (uint64_t i = 0; i < kSwitches; ++i) scheduler.WaitUntilNanos(0);
    });
    const uint64_t start = NowNanos();
    scheduler.Run();
    reps.push_back(static_cast<double>(NowNanos() - start) /
                   static_cast<double>(kSwitches));
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

}  // namespace
}  // namespace bench
}  // namespace pandora

int main() {
  using namespace pandora;
  using namespace pandora::bench;

  PrintHeader("Fiber scaling: fibers per worker thread",
              "the paper's coordinators-per-core scaling lever (§6.3's "
              "128 coordinators): one transaction's RDMA stall is hidden "
              "by progress on another fiber of the same thread");

  BenchJson json("fiber_scaling");
  json.SetText("git_sha", GitSha());
  json.Set("threads", 2);
  json.Set("coordinators", 64);

  const double switch_ns = MeasureSwitchNanos();
  PrintRow("fiber switch (suspend+resume round trip)", switch_ns, "ns");
  json.Set("fiber.switch_ns", switch_ns);

  const uint32_t sweep[] = {1, 2, 4, 8, 16};
  double base_mtps = 0;
  for (const uint32_t fibers : sweep) {
    const workloads::DriverResult result = RunMicro(fibers);
    if (fibers == 1) base_mtps = result.mtps;
    const std::string tag = "fibers" + std::to_string(fibers);
    PrintRow(tag + " throughput", result.mtps, "MTps");
    PrintRow(tag + " speedup vs 1 fiber",
             base_mtps > 0 ? result.mtps / base_mtps : 0.0, "x");
    PrintRow(tag + " overlap factor", result.overlap_factor,
             "waits in flight per worker");
    PrintRow(tag + " fiber yields",
             static_cast<double>(result.fiber_yields), "yields");
    PrintLatencyRows(tag, result);
    PrintRttRows(tag, result);
    AddDriverMetrics(&json, tag, result);
    json.Set(tag + ".speedup_vs_1fiber",
             base_mtps > 0 ? result.mtps / base_mtps : 0.0);
  }
  json.Write();
  return 0;
}
