#ifndef PANDORA_BENCH_BENCH_UTIL_H_
#define PANDORA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "recovery/recovery_manager.h"
#include "txn/system_gate.h"
#include "workloads/driver.h"
#include "workloads/workload.h"

namespace pandora {
namespace bench {

/// True when PANDORA_BENCH_FAST=1: shrink run times for smoke testing.
bool FastMode();

/// Scales a duration/count down 4x in fast mode.
uint64_t Scaled(uint64_t normal);

/// The paper's testbed shape (§6.3): two memory nodes, two compute nodes,
/// replication f+1 = 2, one service node for FD + recovery coordinator.
/// Latency model defaults approximate the 100 Gbps RDMA fabric.
cluster::ClusterConfig PaperTestbed();

/// FD configuration: the paper's 5 ms timeout (§3.2.2), plus heartbeat
/// cadence suited to the simulator. Use only for lightly loaded runs
/// (e.g. the detection-latency bench): heartbeats are real threads, and
/// under a saturating benchmark on two cores they starve for longer than
/// 5 ms, flooding the run with false positives.
recovery::FdConfig PaperFd();

/// FD configuration for saturating throughput benches: same protocol,
/// relaxed timing (100 ms) so detection noise does not drown the
/// throughput shapes. Detection latency then costs about one timeline
/// bucket in the fail-over figures.
recovery::FdConfig BenchFd();

/// A fully wired deployment: cluster + workload + recovery manager + gate.
class Testbed {
 public:
  /// `start_fd` = false leaves heartbeat detection off, for benches that
  /// trigger recovery manually to time it in isolation.
  Testbed(const cluster::ClusterConfig& cluster_config,
          const recovery::RecoveryManagerConfig& rm_config,
          workloads::Workload* workload, bool start_fd = true);
  ~Testbed();

  cluster::Cluster& cluster() { return *cluster_; }
  recovery::RecoveryManager& manager() { return *manager_; }
  txn::SystemGate& gate() { return gate_; }

  /// Builds a driver over this testbed.
  std::unique_ptr<workloads::Driver> MakeDriver(
      const workloads::DriverConfig& config);

 private:
  txn::SystemGate gate_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<recovery::RecoveryManager> manager_;
  workloads::Workload* workload_;
};

/// Printing helpers: every bench prints the same rows/series the paper
/// reports, in a plain, grep-able format.
void PrintHeader(const std::string& title, const std::string& paper_ref);
void PrintTimeline(const std::string& label,
                   const std::vector<double>& mtps, uint64_t bucket_ms);
void PrintRow(const std::string& label, double value,
              const std::string& unit);

/// Machine-readable results: an ordered flat map of metric name -> number
/// (or string), written as BENCH_<name>.json into PANDORA_BENCH_JSON_DIR
/// (or the working directory when unset), stamped with git_sha and
/// peak_rss_mb. Keys use dotted prefixes to group runs, e.g.
/// "pipelined.p50_us".
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Set(const std::string& key, double value);
  /// String-valued metadata (git SHA, config labels); emitted quoted.
  void SetText(const std::string& key, const std::string& value);

  /// Writes the file and returns its path ("" on I/O failure, which is
  /// logged but never fatal — benches must still print their rows).
  std::string Write() const;

 private:
  struct Metric {
    std::string key;
    double number = 0;
    std::string text;
    bool is_text = false;
  };
  std::string name_;
  std::vector<Metric> metrics_;
};

/// The git commit the bench binary's tree was at: the PANDORA_GIT_SHA env
/// var if set, else `git rev-parse --short HEAD` from the working
/// directory, else "unknown". Stamped into bench artifacts so the perf
/// trajectory is attributable.
std::string GitSha();

/// Adds the standard result metrics under `prefix.`: throughput
/// (committed/aborted/mtps), commit latency (p50/p99/mean, µs), and the
/// round-trip counters (execution_rtts, commit_rtts, doorbells — total
/// and per committed transaction).
void AddDriverMetrics(BenchJson* json, const std::string& prefix,
                      const workloads::DriverResult& result);

/// Prints the round-trip counter rows every bench reports the same way.
void PrintRttRows(const std::string& label,
                  const workloads::DriverResult& result);

/// Prints the commit-latency percentile rows (p50/p95/p99, µs) from the
/// result's precomputed percentiles.
void PrintLatencyRows(const std::string& label,
                      const workloads::DriverResult& result);

}  // namespace bench
}  // namespace pandora

#endif  // PANDORA_BENCH_BENCH_UTIL_H_
