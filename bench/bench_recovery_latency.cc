// Reproduces Table 2 (Pandora recovery latency vs. outstanding
// coordinators per compute node), the §6.1 Traditional Logging Scheme
// recovery latencies, and the §6.1 Baseline full-KVS scan cost (~5 s per
// 1M keys on the paper's testbed).

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "recovery/recovery_coordinator.h"
#include "txn/coordinator.h"
#include "workloads/micro.h"
#include "workloads/smallbank.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"

namespace pandora {
namespace bench {
namespace {

// Crash hook that fires once at the given protocol point.
class CrashOnce : public txn::CrashHook {
 public:
  explicit CrashOnce(txn::CrashPoint point) : point_(point) {}
  bool MaybeCrash(txn::CrashPoint point) override {
    if (fired_ || point != point_) return false;
    fired_ = true;
    return true;
  }

 private:
  txn::CrashPoint point_;
  bool fired_ = false;
};

std::unique_ptr<workloads::Workload> MakeWorkload(const std::string& name) {
  if (name == "TPC-C") {
    workloads::TpccConfig config;
    config.warehouses = 1;
    config.districts_per_warehouse = 4;
    config.customers_per_district = 100;
    config.items = 200;
    config.max_orders_per_district = 8192;
    return std::make_unique<workloads::TpccWorkload>(config);
  }
  if (name == "SmallBank") {
    workloads::SmallBankConfig config;
    config.num_accounts = 5000;
    config.hot_accounts = 0;  // Uniform: staged txns must not conflict.
    return std::make_unique<workloads::SmallBankWorkload>(config);
  }
  if (name == "TATP") {
    workloads::TatpConfig config;
    config.subscribers = 5000;
    return std::make_unique<workloads::TatpWorkload>(config);
  }
  workloads::MicroConfig config;
  config.num_keys = 20'000;
  config.write_percent = 100;  // The paper's 100%-write microbenchmark.
  return std::make_unique<workloads::MicroWorkload>(config);
}

// Stages `coordinators` in-flight transactions on compute node 0 (each
// crashed right after its decision point, so logs and locks are live in
// memory), then times the recovery protocol for all of them. Each cell
// prints the log-recovery latency and the log bytes read per coordinator:
// one slot-0 probe per memory server when every record fits it, more for
// longer records, multi-slot spans and the baselines' span-0 records.
// The recovery coordinator is a long-lived service, so each cell first
// runs one untimed stage-and-recover round: the timed round then finds
// the RC's log-read buffers already faulted in, as every recovery after a
// process's first does.
void MeasureRecovery(const std::string& workload_name,
                     txn::ProtocolMode mode,
                     const std::vector<uint32_t>& coordinator_counts) {
  std::printf("%-12s", workload_name.c_str());
  for (const uint32_t coordinators : coordinator_counts) {
    auto workload = MakeWorkload(workload_name);
    recovery::RecoveryManagerConfig rm;
    rm.mode = mode;
    rm.fd = PaperFd();
    Testbed testbed(PaperTestbed(), rm, workload.get(),
                    /*start_fd=*/false);
    cluster::Cluster& cluster = testbed.cluster();
    const rdma::NodeId victim = cluster.compute_node_id(0);

    txn::TxnConfig txn_config;
    txn_config.mode = mode;
    Random rng(42);
    std::vector<std::unique_ptr<txn::Coordinator>> coords;
    std::vector<std::unique_ptr<CrashOnce>> hooks;
    recovery::RecoveryStats stats;
    for (int round = 0; round < 2; ++round) {
      std::vector<uint16_t> all_ids;
      for (uint32_t c = 0; c < coordinators; ++c) {
        std::vector<uint16_t> ids;
        PANDORA_CHECK(testbed.manager()
                          .RegisterComputeNode(cluster.compute(0), 1, &ids)
                          .ok());
        all_ids.push_back(ids[0]);
        coords.push_back(std::make_unique<txn::Coordinator>(
            &cluster, cluster.compute(0), ids[0], txn_config,
            &testbed.gate()));
        hooks.push_back(std::make_unique<CrashOnce>(
            txn::CrashPoint::kAfterValidation));
        coords.back()->set_crash_hook(hooks.back().get());
        // Stage: the transaction dies right after its logs are durable and
        // validation passed, leaving a logged stray transaction. Read-only
        // profiles leave nothing, as in the real mixed workloads.
        workload->RunTransaction(coords.back().get(), &rng);
        // Next coordinator on the same node needs the fabric back.
        cluster.fabric().ResumeNode(victim);
      }

      cluster.fabric().HaltNode(victim);
      PANDORA_CHECK(testbed.manager()
                        .RecoverComputeFailure(victim, all_ids)
                        .ok());
      stats = testbed.manager().last_recovery_stats();
      cluster.RestartComputeNode(victim);
    }
    std::printf(" %8.0f us %7.0f B",
                static_cast<double>(stats.log_recovery_ns) / 1000.0,
                static_cast<double>(stats.log_bytes_read) / coordinators);
    std::fflush(stdout);
  }
  std::printf("\n");
}

void PrintCoordinatorHeader(const std::vector<uint32_t>& counts) {
  std::printf("%-12s", "Bench\\Coord.");
  for (const uint32_t c : counts) std::printf(" %21u", c);
  std::printf("\n");
}

void ScanRecoverySection() {
  PrintHeader("Baseline scan-based stray-lock recovery",
              "§6.1 (\"~5 seconds per 1 million keys\": latency grows "
              "linearly with KVS size and blocks the whole system)");
  std::printf("%-24s %14s %16s\n", "keys in KVS", "scan latency",
              "per 1M keys");
  for (const uint64_t keys :
       {Scaled(100'000), Scaled(200'000), Scaled(400'000)}) {
    workloads::MicroConfig config;
    config.num_keys = keys;
    workloads::MicroWorkload workload(config);
    recovery::RecoveryManagerConfig rm;
    rm.mode = txn::ProtocolMode::kFordBaseline;
    Testbed testbed(PaperTestbed(), rm, &workload, /*start_fd=*/false);

    recovery::RecoveryCoordinator rc(&testbed.cluster());
    recovery::RecoveryStats stats;
    PANDORA_CHECK(rc.ScanAndReleaseStrayLocks({1}, &stats).ok());
    const double seconds = static_cast<double>(stats.scan_ns) / 1e9;
    std::printf("%-24lu %12.3f s %13.3f s\n",
                static_cast<unsigned long>(keys), seconds,
                seconds * 1e6 / static_cast<double>(keys));
  }
}

}  // namespace
}  // namespace bench
}  // namespace pandora

int main() {
  using namespace pandora;
  using namespace pandora::bench;

  std::vector<uint32_t> counts = {1, 8, 64, 128, 256, 512};
  if (FastMode()) counts = {1, 8, 64};

  PrintHeader("Pandora recovery latency (log-recovery step)",
              "Table 2: latency in microseconds while increasing the "
              "number of outstanding coordinators per compute node");
  PrintCoordinatorHeader(counts);
  for (const char* name : {"TPC-C", "SmallBank", "TATP", "MicroBench"}) {
    MeasureRecovery(name, txn::ProtocolMode::kPandora, counts);
  }

  PrintHeader("Traditional lock-logging scheme recovery latency",
              "§6.1: recovers locks from lock-intent logs without "
              "scanning, but ~2x slower than Pandora at high coordinator "
              "counts");
  PrintCoordinatorHeader(counts);
  for (const char* name : {"TPC-C", "SmallBank", "TATP", "MicroBench"}) {
    MeasureRecovery(name, txn::ProtocolMode::kTraditionalLogging, counts);
  }

  ScanRecoverySection();
  return 0;
}
