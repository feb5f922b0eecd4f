// Scale-out scaling matrix: throughput, abort rate, RTTs/committed, and
// Locator hit rate across {1,2} threads x {4,8,16,32}
// memory nodes at replication 3, plus Zipf-skew and hot-key-storm cells.
// The companion of the placement fast path: sharding a transaction's
// working set over many memory servers is only free if the per-op
// placement lookup stays allocation-free and O(1), so this bench tracks
// the Locator's hit rate next to every throughput number it could affect.
//
// The simulator charges per-verb round trips, not per-node contention, so
// adding memory nodes must NOT cost throughput in the uniform read-heavy
// cells — the gate checks the 4 -> 8 node step stays monotone within
// noise. Skewed cells (Zipf 0.99, hot-key storm) concentrate the key
// space, which is where the direct-mapped per-coordinator Locator earns
// its keep.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workloads/micro.h"
#include "workloads/smallbank.h"
#include "workloads/tatp.h"

namespace pandora {
namespace bench {
namespace {

constexpr uint32_t kCoordinators = 128;
constexpr uint32_t kFibersPerThread = 8;
constexpr uint32_t kReplication = 3;
constexpr uint32_t kReadHeavyWritePercent = 5;
constexpr uint32_t kWriteHeavyWritePercent = 50;

struct Cell {
  std::string label;
  uint32_t threads = 2;
  uint32_t memory_nodes = 8;
  uint64_t num_keys = 0;  // 0 = the sweep default.
  uint64_t hot_keys = 0;
  uint32_t write_percent = kReadHeavyWritePercent;
  double zipf_theta = 0;
};

uint64_t SweepKeys() { return Scaled(1'000'000); }

cluster::ClusterConfig ScaleoutCluster(uint32_t memory_nodes) {
  cluster::ClusterConfig config;
  config.memory_nodes = memory_nodes;
  config.compute_nodes = 2;
  config.replication = kReplication;
  config.net.one_way_ns = 1500;   // Low-us RDMA round trips (PaperTestbed).
  config.net.per_byte_ns = 0.08;  // 100 Gbps.
  // Micro write-sets are 4 objects: a slim log keeps the 32-node cells
  // from reserving PaperTestbed's ~140 MB of log per memory server.
  config.log.slots_per_coordinator = 32;
  config.log.slot_bytes = 1024;
  // Headroom above the 128 live coordinators: ids retire (never reassigned
  // until recycled) when FD false positives fence a saturated compute node
  // mid-cell, and a respawn can need a fresh batch before the recycling
  // scan returns the old ones.
  config.log.max_coordinators = 384;
  return config;
}

workloads::DriverResult RunCell(const Cell& cell) {
  workloads::MicroConfig micro_config;
  micro_config.num_keys = cell.num_keys > 0 ? cell.num_keys : SweepKeys();
  micro_config.hot_keys = cell.hot_keys;
  micro_config.write_percent = cell.write_percent;
  micro_config.zipf_theta = cell.zipf_theta;
  workloads::MicroWorkload workload(micro_config);

  recovery::RecoveryManagerConfig rm;
  rm.mode = txn::ProtocolMode::kPandora;
  rm.fd = BenchFd();
  Testbed testbed(ScaleoutCluster(cell.memory_nodes), rm, &workload);

  workloads::DriverConfig driver_config;
  driver_config.threads = cell.threads;
  driver_config.coordinators = kCoordinators;
  driver_config.duration_ms = Scaled(1200);
  driver_config.bucket_ms = Scaled(1200) / 6;
  driver_config.fibers_per_thread = kFibersPerThread;
  driver_config.txn.mode = txn::ProtocolMode::kPandora;
  auto driver = testbed.MakeDriver(driver_config);
  return driver->Run();
}

// OLTP suite cells: the same scaling step (4 -> 8 memory nodes at 2
// threads) measured on SmallBank's hot-account write mix and TATP's
// read-mostly mix, so the matrix covers real transaction shapes, not just
// the micro workload's uniform point ops.
workloads::DriverResult RunOltpCell(const std::string& suite,
                                    uint32_t memory_nodes) {
  std::unique_ptr<workloads::Workload> workload;
  if (suite == "smallbank") {
    workloads::SmallBankConfig config;
    config.num_accounts = Scaled(10'000);
    config.hot_accounts = Scaled(1000);
    workload = std::make_unique<workloads::SmallBankWorkload>(config);
  } else {
    workloads::TatpConfig config;
    config.subscribers = Scaled(10'000);
    workload = std::make_unique<workloads::TatpWorkload>(config);
  }

  recovery::RecoveryManagerConfig rm;
  rm.mode = txn::ProtocolMode::kPandora;
  rm.fd = BenchFd();
  Testbed testbed(ScaleoutCluster(memory_nodes), rm, workload.get());

  workloads::DriverConfig driver_config;
  driver_config.threads = 2;
  driver_config.coordinators = kCoordinators;
  driver_config.duration_ms = Scaled(1200);
  driver_config.bucket_ms = Scaled(1200) / 6;
  driver_config.fibers_per_thread = kFibersPerThread;
  driver_config.txn.mode = txn::ProtocolMode::kPandora;
  auto driver = testbed.MakeDriver(driver_config);
  return driver->Run();
}

double HitRate(const workloads::DriverResult& result) {
  const double lookups =
      static_cast<double>(result.totals.placement_hits) +
      static_cast<double>(result.totals.placement_misses);
  return lookups > 0
             ? static_cast<double>(result.totals.placement_hits) / lookups
             : 0.0;
}

double AbortRate(const workloads::DriverResult& result) {
  const double attempts =
      static_cast<double>(result.committed + result.aborted);
  return attempts > 0 ? static_cast<double>(result.aborted) / attempts
                      : 0.0;
}

double RttsPerCommitted(const workloads::DriverResult& result) {
  const double committed = result.totals.committed > 0
                               ? static_cast<double>(result.totals.committed)
                               : 1.0;
  return static_cast<double>(result.totals.execution_rtts +
                             result.totals.commit_rtts) /
         committed;
}

struct Gate {
  std::vector<std::string> failures;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

}  // namespace
}  // namespace bench
}  // namespace pandora

int main() {
  using namespace pandora;
  using namespace pandora::bench;

  PrintHeader(
      "Scale-out scaling matrix: threads x memory nodes at replication 3",
      "SS3.2.5 sharded placement: consistent-hash replica sets resolved "
      "through the per-coordinator locator; throughput must not "
      "degrade as the ring grows");

  // The scaling matrix proper: uniform read-heavy cells.
  std::vector<Cell> cells;
  for (const uint32_t threads : {1u, 2u}) {
    for (const uint32_t memory_nodes : {4u, 8u, 16u, 32u}) {
      Cell cell;
      cell.label = "scale.t" + std::to_string(threads) + ".m" +
                   std::to_string(memory_nodes);
      cell.threads = threads;
      cell.memory_nodes = memory_nodes;
      cells.push_back(cell);
    }
  }
  // Skew sweep on the 2-thread / 8-node shape: Zipf theta x write mix.
  for (const double theta : {0.5, 0.9, 0.99}) {
    for (const bool write_heavy : {false, true}) {
      Cell cell;
      char theta_label[16];
      std::snprintf(theta_label, sizeof(theta_label), "theta0p%02d",
                    static_cast<int>(theta * 100 + 0.5));
      cell.label = std::string("zipf.") + theta_label +
                   (write_heavy ? ".write" : ".read");
      cell.zipf_theta = theta;
      cell.write_percent = write_heavy ? kWriteHeavyWritePercent
                                       : kReadHeavyWritePercent;
      cells.push_back(cell);
    }
  }
  // Hot-key storm: every coordinator hammers 64 keys with pure writes —
  // worst case for lock conflicts, best case for the Locator.
  {
    Cell cell;
    cell.label = "storm.hot64";
    cell.hot_keys = 64;
    cell.write_percent = 100;
    cells.push_back(cell);
  }

  BenchJson json("scaleout");
  json.SetText("git_sha", GitSha());
  // Config block: everything needed to re-run the matrix.
  json.Set("config.replication", kReplication);
  json.Set("config.coordinators", kCoordinators);
  json.Set("config.fibers_per_thread", kFibersPerThread);
  json.Set("config.num_keys", static_cast<double>(SweepKeys()));
  json.Set("config.duration_ms", static_cast<double>(Scaled(1200)));
  json.Set("config.read_heavy_write_percent", kReadHeavyWritePercent);
  json.Set("config.write_heavy_write_percent", kWriteHeavyWritePercent);
  json.Set("config.fast_mode", FastMode() ? 1 : 0);

  std::printf("%-22s %10s %9s %9s %9s %9s\n", "cell", "mtps", "abort",
              "rtts/txn", "hit_rate", "p99_us");

  double mtps_t2_m4 = 0;
  double mtps_t2_m8 = 0;
  double hit_uniform_m8 = 0;
  double hit_zipf99_read = 0;
  double hit_storm = 0;
  for (const Cell& cell : cells) {
    const workloads::DriverResult result = RunCell(cell);
    const double hit_rate = HitRate(result);
    std::printf("%-22s %10.4f %9.4f %9.2f %9.4f %9.1f\n",
                cell.label.c_str(), result.mtps, AbortRate(result),
                RttsPerCommitted(result), hit_rate,
                static_cast<double>(result.latency_p99_ns) / 1000.0);
    AddDriverMetrics(&json, cell.label, result);
    json.Set(cell.label + ".abort_rate", AbortRate(result));
    json.Set(cell.label + ".placement_hit_rate", hit_rate);
    json.Set(cell.label + ".rtts_per_committed", RttsPerCommitted(result));
    json.Set(cell.label + ".memory_nodes", cell.memory_nodes);
    json.Set(cell.label + ".threads", cell.threads);
    json.Set(cell.label + ".zipf_theta", cell.zipf_theta);
    json.Set(cell.label + ".write_percent", cell.write_percent);
    if (cell.label == "scale.t2.m4") mtps_t2_m4 = result.mtps;
    if (cell.label == "scale.t2.m8") {
      mtps_t2_m8 = result.mtps;
      hit_uniform_m8 = hit_rate;
    }
    if (cell.label == "zipf.theta0p99.read") hit_zipf99_read = hit_rate;
    if (cell.label == "storm.hot64") hit_storm = hit_rate;
  }

  // The scaling ratio compares two cells measured minutes apart on a
  // shared host, so drift can swamp the real (flat) node-count effect.
  // As bench_steady_state does for the PILL-overhead bar, average
  // interleaved repeats — m8 m4 m4 m8 continues the matrix's m4 m8 — so
  // linear drift cancels across the pair.
  {
    double m4_sum = mtps_t2_m4;
    double m8_sum = mtps_t2_m8;
    const bool repeat_is_m8[] = {true, false, false, true};
    for (const bool is_m8 : repeat_is_m8) {
      Cell cell;
      cell.label = is_m8 ? "scale.t2.m8" : "scale.t2.m4";
      cell.threads = 2;
      cell.memory_nodes = is_m8 ? 8 : 4;
      (is_m8 ? m8_sum : m4_sum) += RunCell(cell).mtps;
    }
    mtps_t2_m4 = m4_sum / 3.0;
    mtps_t2_m8 = m8_sum / 3.0;
  }
  json.Set("scale.t2.m4.mtps_avg3", mtps_t2_m4);
  json.Set("scale.t2.m8.mtps_avg3", mtps_t2_m8);
  json.Set("scaling_m8_over_m4_t2",
           mtps_t2_m4 > 0 ? mtps_t2_m8 / mtps_t2_m4 : 0.0);

  // Per-suite OLTP cells, interleaved (m4 m8 m8 m4 m4 m8 per suite) so
  // host drift cancels across the averaged triple, as above. Short
  // fast-mode cells are noisy enough that a single bad sample can fake a
  // 30% scaling cliff; three samples per shape keep the gate honest.
  struct SuiteRatio {
    std::string suite;
    double ratio = 0;
  };
  std::vector<SuiteRatio> suite_ratios;
  for (const std::string suite : {"smallbank", "tatp"}) {
    double m4_mtps = 0;
    double m8_mtps = 0;
    double m4_abort = 0;
    double m8_abort = 0;
    double m4_hit = 0;
    double m8_hit = 0;
    const bool pass_is_m8[] = {false, true, true, false, false, true};
    for (const bool is_m8 : pass_is_m8) {
      const workloads::DriverResult result =
          RunOltpCell(suite, is_m8 ? 8 : 4);
      (is_m8 ? m8_mtps : m4_mtps) += result.mtps / 3.0;
      (is_m8 ? m8_abort : m4_abort) += AbortRate(result) / 3.0;
      (is_m8 ? m8_hit : m4_hit) += HitRate(result) / 3.0;
      const std::string label =
          suite + ".t2.m" + std::string(is_m8 ? "8" : "4");
      // Last pass of each shape wins the per-cell detail metrics; the
      // averaged triple is recorded separately below.
      AddDriverMetrics(&json, label, result);
      json.Set(label + ".abort_rate", AbortRate(result));
      json.Set(label + ".placement_hit_rate", HitRate(result));
      json.Set(label + ".rtts_per_committed", RttsPerCommitted(result));
      json.Set(label + ".memory_nodes", is_m8 ? 8 : 4);
      json.Set(label + ".threads", 2);
    }
    const double ratio = m4_mtps > 0 ? m8_mtps / m4_mtps : 0.0;
    suite_ratios.push_back({suite, ratio});
    json.Set(suite + ".t2.m4.mtps_avg3", m4_mtps);
    json.Set(suite + ".t2.m8.mtps_avg3", m8_mtps);
    json.Set(suite + ".scaling_m8_over_m4_t2", ratio);
    std::printf("%-22s %10.4f %9.4f %9s %9.4f\n",
                (suite + ".t2.m4").c_str(), m4_mtps, m4_abort, "-", m4_hit);
    std::printf("%-22s %10.4f %9.4f %9s %9.4f\n",
                (suite + ".t2.m8").c_str(), m8_mtps, m8_abort, "-", m8_hit);
    PrintRow(suite + " scaling mtps(m8)/mtps(m4)", ratio, "x");
  }
  json.Write();

  PrintRow("t2 scaling mtps(m8)/mtps(m4)",
           mtps_t2_m4 > 0 ? mtps_t2_m8 / mtps_t2_m4 : 0.0, "x");
  PrintRow("placement hit rate, uniform 1M keys", hit_uniform_m8, "");
  PrintRow("placement hit rate, Zipf 0.99 read-heavy", hit_zipf99_read, "");
  PrintRow("placement hit rate, hot-key storm", hit_storm, "");

  const char* gate_env = std::getenv("PANDORA_BENCH_GATE");
  if (gate_env == nullptr || gate_env[0] != '1') return 0;

  const bool fast = FastMode();
  // The simulator charges per-verb RTTs, so growing the ring must not
  // cost throughput: mtps is monotone non-decreasing 4 -> 8 nodes within
  // noise. Quarter-length fast runs are noisier; loosen accordingly.
  const double min_scaling_ratio = fast ? 0.80 : 0.90;
  Gate gate;
  gate.Check(mtps_t2_m4 > 0 && mtps_t2_m8 / mtps_t2_m4 >= min_scaling_ratio,
             "scaling_m8_over_m4_t2 " +
                 std::to_string(mtps_t2_m4 > 0 ? mtps_t2_m8 / mtps_t2_m4
                                               : 0.0) +
                 " < " + std::to_string(min_scaling_ratio));
  // Skew concentrates lookups into the 1024-entry direct-mapped cache:
  // the hit-rate ordering uniform < zipf0.99 < storm is structural.
  // Quarter-length fast runs spend a larger fraction warming the cache,
  // which lands the storm cell right on the 0.90 bar — same slack there
  // as the scaling ratio gets.
  const double min_storm_hit = fast ? 0.88 : 0.90;
  gate.Check(hit_storm >= min_storm_hit,
             "storm.hot64 placement hit rate " + std::to_string(hit_storm) +
                 " < " + std::to_string(min_storm_hit));
  gate.Check(hit_zipf99_read >= hit_uniform_m8,
             "zipf 0.99 hit rate " + std::to_string(hit_zipf99_read) +
                 " below uniform " + std::to_string(hit_uniform_m8));
  // The same monotonicity check per OLTP suite: growing the ring must not
  // cost SmallBank or TATP throughput either. The suite cells run shorter
  // transactions against far smaller key spaces than the micro sweep, so
  // their averaged triple still wobbles a few percent run to run — the bar
  // is set to catch a real scaling cliff, not that wobble.
  const double min_suite_ratio = fast ? 0.78 : 0.85;
  for (const SuiteRatio& suite : suite_ratios) {
    gate.Check(suite.ratio >= min_suite_ratio,
               suite.suite + " scaling_m8_over_m4_t2 " +
                   std::to_string(suite.ratio) + " < " +
                   std::to_string(min_suite_ratio));
  }

  if (!gate.failures.empty()) {
    for (const std::string& failure : gate.failures) {
      std::fprintf(stderr, "BENCH GATE VIOLATION: %s\n", failure.c_str());
    }
    return 1;
  }
  std::printf("bench gate: scaling matrix bars met%s\n",
              fast ? " (fast-mode thresholds)" : "");
  return 0;
}
