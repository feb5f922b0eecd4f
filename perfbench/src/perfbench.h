#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

// The repository benchmark: one workload per invocation, driven through the
// public APIs of the workloads, txn, recovery and common modules. See
// perfbench/README.md for the workloads, the metrics and how to run it.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/fiber.h"
#include "common/histogram.h"
#include "common/random.h"
#include "recovery/recovery_manager.h"
#include "txn/coordinator.h"
#include "txn/system_gate.h"
#include "workloads/workload.h"

namespace perfbench {

using pandora::LatencyHistogram;
using pandora::Random;
using pandora::Status;

// --- Call timers (call_timers.cc) ---------------------------------------

/// Wall time of each call into the coordinator's public API, recorded by
/// link-time wrappers around Coordinator::Read / Write / Commit. A worker
/// thread points t_call_timers at its own instance while it runs a traced
/// phase; everywhere else the pointer is null and the wrappers only pass
/// the call through.
struct CallTimers {
  LatencyHistogram read;
  LatencyHistogram write;
  LatencyHistogram commit;
  void Merge(const CallTimers& other) {
    read.Merge(other.read);
    write.Merge(other.write);
    commit.Merge(other.commit);
  }
};
extern thread_local CallTimers* t_call_timers;
/// Rows loaded through Cluster::LoadRow by this thread (counted always:
/// the load is a control path).
extern thread_local uint64_t t_rows_loaded;

// --- Workloads ------------------------------------------------------------

/// One benchmark workload: how to build it, how a client runs one of its
/// transactions, and the shapes the isolated layer probes use.
struct WorkloadSpec {
  std::string name;
  std::function<std::unique_ptr<pandora::workloads::Workload>()> make;
  /// recovery-128: audit money and stray locks after every crash cycle,
  /// and replay the first cycles on a fresh deployment to check that the
  /// recovery counts repeat.
  bool per_cycle_checks = false;
  /// Crash cycles per run (each yields one recovery latency sample).
  uint32_t crash_cycles = 100;
  /// Write-set shape of a typical update transaction, for the log probes.
  uint32_t log_entries = 2;
  uint32_t log_value_bytes = 40;
  /// Key distribution over table 0, for the ReplicaSetFor probe.
  std::function<uint64_t(Random*)> sample_key;
};

/// Looks a workload up by name; nullptr if unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Mixes a run seed, a stream tag and an index into one generator seed, so
/// every phase and client draws from its own reproducible stream.
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index);

// --- Deployment (phases.cc) -----------------------------------------------

/// The paper's testbed (§6.3): 2 memory nodes, 2 compute nodes, replication
/// 2, 1.5 µs one-way latency, 100 Gbps; log slots sized for the largest
/// write-sets. Identical to the repository benches' PaperTestbed().
pandora::cluster::ClusterConfig PaperTestbed();

/// Cluster + loaded workload + recovery manager + system gate. The failure
/// detector is never started and no heartbeat pump runs: coordinator ids
/// come straight from the detector's id allocator.
class Testbed {
 public:
  Testbed(const pandora::cluster::ClusterConfig& config,
          const WorkloadSpec& spec);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  pandora::cluster::Cluster& cluster() { return *cluster_; }
  pandora::recovery::RecoveryManager& manager() { return *manager_; }
  pandora::txn::SystemGate& gate() { return gate_; }
  pandora::workloads::Workload& workload() { return *workload_; }
  const WorkloadSpec& spec() const { return spec_; }

  /// Cluster construction + Workload::Setup + manager construction.
  double setup_seconds() const { return setup_seconds_; }
  /// Workload::Setup alone, and the rows it loaded.
  double load_seconds() const { return load_seconds_; }
  uint64_t rows_loaded() const { return rows_loaded_; }

  /// Allocates `n` coordinator ids on compute node `compute_index`,
  /// recycling retired ids first when the log region has no room left.
  std::vector<uint16_t> AllocateIds(uint32_t compute_index, uint32_t n);
  /// Hands the ids of a recovered node to the next recycling scan.
  void Retire(const std::vector<uint16_t>& ids);
  /// Scans memory for locks still owned by retired ids, releases them and
  /// frees the ids for reuse.
  void RecycleRetired();
  /// Locks the recycling scans found still owned by a recovered
  /// coordinator. Recovery must leave none.
  uint64_t stray_locks() const { return stray_locks_; }

  /// A coordinator on compute node 1 (never crashed) for audits.
  pandora::txn::Coordinator* AuditCoordinator();

 private:
  const WorkloadSpec& spec_;
  pandora::txn::SystemGate gate_;
  std::unique_ptr<pandora::workloads::Workload> workload_;
  std::unique_ptr<pandora::cluster::Cluster> cluster_;
  std::unique_ptr<pandora::recovery::RecoveryManager> manager_;
  // Declared after the cluster and gate it uses, so destroyed first.
  std::unique_ptr<pandora::txn::Coordinator> audit_coord_;
  std::vector<uint16_t> retired_;
  uint32_t free_ids_ = 0;
  uint64_t stray_locks_ = 0;
  double setup_seconds_ = 0;
  double load_seconds_ = 0;
  uint64_t rows_loaded_ = 0;
};

/// Keys a micro-rw client wrote in its committed transactions (a bounded
/// ring), for the read-back audit.
struct WrittenKeys {
  static constexpr size_t kCapacity = 32;
  std::vector<uint64_t> keys;
  size_t next = 0;
  void Add(uint64_t key);
};

/// Runs one transaction of the workload on `coord`. micro-rw transactions
/// are issued here through Coordinator::Begin/Read/Write/Commit and append
/// the keys they stage for writing to `staged`; the others go through
/// Workload::RunTransaction.
Status RunClientTxn(Testbed& tb, pandora::txn::Coordinator* coord,
                    Random* rng, std::vector<uint64_t>* staged);

// --- Phases ---------------------------------------------------------------

struct SteadyResult {
  /// The measured span (after the warm-up), and commits per second in it.
  double window_seconds = 0;
  double throughput_tps = 0;
  /// Commit latency (wall time of the committed attempt) of every
  /// transaction committed in the measured span.
  LatencyHistogram latency;
  /// Commits in each 0.5 s window of the measured span (diagnostic).
  std::vector<uint64_t> window_commits;
  /// Whole phase (warm-up included).
  uint64_t attempts = 0;
  uint64_t aborted = 0;
  uint64_t failed = 0;  // crashed, fenced, or any other error
  pandora::txn::TxnStats totals;
  /// Summed over workers, except max_resume_lag_ns (max); wait_ns,
  /// resumes and os_yields are not collected.
  pandora::FiberScheduler::Stats fiber;
  uint64_t worker_wall_ns = 0;
  CallTimers timers;
  std::vector<uint64_t> written_sample;  // micro-rw only
};

/// Closed loop of 128 coordinators, round-robin over the two compute
/// nodes, on 2 worker threads x 8 fibers (lag budget 150 µs, OS-yield
/// cadence 50 µs). Each client waits for its transaction's outcome, then
/// draws the next. Runs a 0.5 s warm-up, then measures for `seconds`.
SteadyResult RunSteadyPhase(Testbed& tb, uint64_t seed, double seconds,
                            bool trace_calls);

struct CycleResult {
  uint64_t recovery_ns = 0;  // RecoverComputeFailure wall time
  pandora::recovery::RecoveryStats stats;
  uint32_t staged = 0;
  uint32_t staged_aborted = 0;
  uint32_t in_flight = 0;
  bool ok = true;
};

/// One crash cycle: 128 coordinators on compute node 0 each run one
/// transaction that crashes at kAfterValidation (conflict aborts leave
/// fewer in flight), then the node halts, RecoverComputeFailure runs, and
/// the node restarts with its ids retired.
CycleResult RunCrashCycle(Testbed& tb, uint64_t seed, uint32_t cycle);

/// Money audit: TotalBalance == ExpectedTotal() + committed_delta().
bool AuditSmallBank(Testbed& tb, std::string* detail);
/// micro-rw read-back: bytes 8..15 of each written key's value encode it.
bool AuditWrittenKeys(Testbed& tb, const std::vector<uint64_t>& keys,
                      std::string* detail);

struct HostPassResult {
  uint64_t wall_ns = 0;
  pandora::txn::TxnStats totals;
};

/// Latency-off pass: the same clients and seed on a zero-latency network,
/// one worker and no fibers, for a fixed number of attempts. Its counts
/// are deterministic for a seed.
HostPassResult RunHostPass(const WorkloadSpec& spec, uint64_t seed);

// --- Isolated layer probes (probes.cc) ------------------------------------

struct ProbeResult {
  double rdma_read_ns = 0;
  double rdma_write_ns = 0;
  double rdma_cas_ns = 0;
  double rdma_chain_ns = 0;
  double log_writer_ns = 0;
  double log_parse_ns = 0;
  double spin_overshoot_p50_ns = 0;
  double spin_overshoot_p99_ns = 0;
};

/// The simulator's own per-verb costs on a zero-latency fabric, the log
/// record writer/parser on the workload's write-set shape, and the
/// lateness of a 3 µs SpinUntilNanos on a bare thread.
ProbeResult RunProbes(const WorkloadSpec& spec);

/// ns per Cluster::ReplicaSetFor over the workload's key distribution on
/// the loaded cluster.
double ProbeReplicaSetNs(Testbed& tb, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
