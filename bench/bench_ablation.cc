// Ablations of Pandora's design choices (DESIGN.md §5), beyond the
// paper's headline experiments:
//
//  1. Doorbell batching: Pandora's commit posts the validation reads in
//     one doorbell and the log record, applies and unlocks in another
//     (§3.1.4 "we can log all writes with the same single RDMA Write").
//     The OFF row runs the same protocol on a fabric in
//     NetworkConfig::sequential_verbs mode, where every verb pays its own
//     round trip instead of one per group.
//  2. Persistence mode (§7): DRAM (volatile with replication-only
//     durability, or battery-backed: either way nothing is flushed) vs NVM
//     with FORD's selective one-sided flush (an extra read per touched
//     server behind the log fragments and again behind the applies).
//  3. PILL failed-ids density: the per-conflict bitset check must stay
//     O(1) even with thousands of failed coordinator ids (§3.1.2).

#include "bench/bench_util.h"
#include "workloads/micro.h"

namespace pandora {
namespace bench {
namespace {

workloads::DriverResult RunMicro(const cluster::ClusterConfig& cluster_cfg,
                                 const txn::TxnConfig& txn_cfg,
                                 uint32_t preset_failed_ids = 0) {
  workloads::MicroConfig micro_config;
  micro_config.num_keys = 20'000;
  micro_config.write_percent = 100;
  workloads::MicroWorkload workload(micro_config);

  recovery::RecoveryManagerConfig rm;
  rm.mode = txn_cfg.mode;
  rm.fd = BenchFd();
  Testbed testbed(cluster_cfg, rm, &workload);
  for (uint32_t id = 0; id < preset_failed_ids; ++id) {
    // Densely populate the failed-ids bitsets (ids from hypothetical
    // long-gone coordinators; none owns a live lock).
    for (auto* server : testbed.cluster().ComputeServers()) {
      server->failed_ids().Set(60'000 + (id % 5000));
    }
  }

  workloads::DriverConfig driver_config;
  driver_config.threads = 2;
  driver_config.coordinators = 64;
  driver_config.duration_ms = Scaled(2000);
  driver_config.txn = txn_cfg;
  auto driver = testbed.MakeDriver(driver_config);
  return driver->Run();
}

}  // namespace
}  // namespace bench
}  // namespace pandora

int main() {
  using namespace pandora;
  using namespace pandora::bench;

  PrintHeader("Design ablations",
              "doorbell batching, §7 persistence modes, PILL failed-ids "
              "density (supporting analysis; not a paper figure)");

  // --- 1. Doorbell batching.
  {
    txn::TxnConfig txn_cfg;
    const workloads::DriverResult batched =
        RunMicro(PaperTestbed(), txn_cfg);
    cluster::ClusterConfig sequential_cfg = PaperTestbed();
    sequential_cfg.net.sequential_verbs = true;
    const workloads::DriverResult sequential =
        RunMicro(sequential_cfg, txn_cfg);
    PrintRow("doorbell batching ON", batched.mtps, "MTps");
    PrintRow("doorbell batching OFF (verb-per-RTT)", sequential.mtps,
             "MTps");
    PrintRow("batching speedup",
             sequential.mtps > 0 ? batched.mtps / sequential.mtps : 0.0,
             "x");
  }

  // --- 1b. Execution-phase pipelining (§3.1.1): the single-RTT
  // lock-then-read chain and batched range reads, independently of the
  // commit-phase batching above. bench_execution_pipeline has the full
  // latency story; this row tracks the throughput effect.
  {
    txn::TxnConfig txn_cfg;
    const workloads::DriverResult pipelined =
        RunMicro(PaperTestbed(), txn_cfg);
    txn_cfg.pipeline_execution = false;
    const workloads::DriverResult unpipelined =
        RunMicro(PaperTestbed(), txn_cfg);
    PrintRow("execution pipelining ON", pipelined.mtps, "MTps");
    PrintRow("execution pipelining OFF (2-RTT lock+fetch)",
             unpipelined.mtps, "MTps");
    PrintRttRows("pipelining ON", pipelined);
    PrintRttRows("pipelining OFF", unpipelined);
  }

  // --- 2. Persistence modes.
  {
    txn::TxnConfig txn_cfg;
    const workloads::DriverResult dram = RunMicro(PaperTestbed(), txn_cfg);
    cluster::ClusterConfig nvm = PaperTestbed();
    nvm.persistence = cluster::PersistenceMode::kNvmWithFlush;
    const workloads::DriverResult nvm_flush = RunMicro(nvm, txn_cfg);
    PrintRow("DRAM (volatile or battery-backed: no flush)", dram.mtps,
             "MTps");
    PrintRow("NVM + selective flush", nvm_flush.mtps, "MTps");
    PrintRow("NVM flushes issued",
             static_cast<double>(nvm_flush.totals.nvm_flushes), "flushes");
  }

  // --- 3. PILL failed-ids density.
  {
    txn::TxnConfig txn_cfg;
    const workloads::DriverResult empty = RunMicro(PaperTestbed(), txn_cfg);
    const workloads::DriverResult dense =
        RunMicro(PaperTestbed(), txn_cfg, /*preset_failed_ids=*/5000);
    PrintRow("failed-ids empty", empty.mtps, "MTps");
    PrintRow("failed-ids with 5000 dead coordinators", dense.mtps,
             "MTps  (O(1) check: expected ~equal)");
  }
  return 0;
}
