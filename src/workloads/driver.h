#ifndef PANDORA_WORKLOADS_DRIVER_H_
#define PANDORA_WORKLOADS_DRIVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/fiber.h"
#include "common/histogram.h"
#include "recovery/recovery_manager.h"
#include "txn/system_gate.h"
#include "workloads/workload.h"

namespace pandora {
namespace workloads {

/// Experiment driver: runs a workload on a set of logical transaction
/// coordinators multiplexed over a small pool of OS threads, records a
/// committed-transactions timeline, and injects scheduled faults — the
/// machinery behind every fail-over figure in §6.
struct DriverConfig {
  /// OS worker threads (the container has 2 cores; logical coordinators
  /// beyond this are multiplexed, as the paper's 128 coordinators
  /// multiplex over its cores).
  uint32_t threads = 2;
  /// Logical transaction coordinators, spread round-robin over the
  /// cluster's compute nodes.
  uint32_t coordinators = 8;
  uint64_t duration_ms = 1000;
  /// Timeline bucket width.
  uint64_t bucket_ms = 50;
  /// Closed-loop pacing: each logical coordinator starts at most one
  /// transaction per `pace_us`. On the real testbed throughput scales
  /// with the number of (latency-bound) coordinators; with 2 simulation
  /// cores it would otherwise be thread-bound and fail-over would not
  /// show the per-coordinator capacity loss the figures report. 0 = off.
  uint64_t pace_us = 0;
  /// Stackful fibers per worker thread (common/fiber.h): each worker runs
  /// its slots as max(1, min(fibers_per_thread, slots)) cooperative
  /// fibers of one FiberScheduler. At 1 (default) one fiber runs the
  /// worker's transactions one at a time and the scheduler waits out each
  /// simulated RDMA wait; above 1 one transaction's network stall is
  /// hidden by progress on another — the paper's coordinators-per-core
  /// scaling lever. Simulated RTT accounting is the same at every value.
  uint32_t fibers_per_thread = 1;
  txn::TxnConfig txn;
  uint64_t seed = 42;
};

/// A scheduled fault.
struct FaultEvent {
  enum class Kind {
    kComputeCrash,    // crash compute node (by compute index)
    kComputeRestart,  // restart it and respawn its coordinators
    kMemoryCrash,     // crash memory node (by memory index)
    kReconfig,        // run `action` (live join / drain) under traffic
  };
  Kind kind = Kind::kComputeCrash;
  uint64_t at_ms = 0;
  uint32_t node_index = 0;
  /// kReconfig only: the reconfiguration step to run at `at_ms`, invoked
  /// from the fault thread while the workload keeps going (blocking there,
  /// so a long migration delays later faults, not the workload).
  std::function<void()> action = nullptr;
};

struct DriverResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t crashed = 0;
  double mtps = 0;  // Committed millions of txns per second (wall clock).
  /// Committed-throughput timeline, one entry per bucket_ms.
  std::vector<double> timeline_mtps;
  /// Aggregated coordinator counters.
  txn::TxnStats totals;
  /// Commit latency (wall time of committed transactions).
  LatencyHistogram commit_latency;
  /// Commit-latency percentiles, precomputed from commit_latency.
  uint64_t latency_p50_ns = 0;
  uint64_t latency_p95_ns = 0;
  uint64_t latency_p99_ns = 0;
  /// Fiber-scheduler accounting, summed over workers. wait_ns is the
  /// simulated wait suspended through the schedulers; idle_ns the wall
  /// time no fiber was runnable.
  uint64_t fiber_yields = 0;
  uint64_t fiber_wait_ns = 0;
  uint64_t fiber_idle_ns = 0;
  /// Worst resume lag across all workers' schedulers (max, not sum): how
  /// long a runnable fiber sat undispatched. The starvation metric.
  uint64_t fiber_max_resume_lag_ns = 0;
  /// Admissions deferred by lag-budget pacing, summed over workers.
  uint64_t fiber_paced_admissions = 0;
  /// fiber_wait_ns / (threads × run wall ns): the mean number of simulated
  /// waits in flight per worker. At most the fibers a worker runs; ~N = N
  /// waits hidden behind each other. One fiber reads at most 1: the share
  /// of the run its worker spent waiting.
  double overlap_factor = 0.0;
};

class Driver {
 public:
  Driver(cluster::Cluster* cluster, recovery::RecoveryManager* manager,
         txn::SystemGate* gate, Workload* workload,
         const DriverConfig& config);

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Schedules a fault before Run().
  void AddFault(const FaultEvent& event) { faults_.push_back(event); }

  /// Runs the workload for duration_ms and returns the aggregate result.
  DriverResult Run();

 private:
  struct Slot {
    rdma::NodeId node = rdma::kInvalidNodeId;
    uint32_t compute_index = 0;
    std::atomic<txn::Coordinator*> coord{nullptr};
    uint64_t next_allowed_ns = 0;  // Pacing deadline (owner thread only).
  };

  void RunWorker(uint32_t worker_index, uint64_t start_ns,
                 uint64_t deadline_ns, LatencyHistogram* latency,
                 FiberScheduler::Stats* fiber_stats);
  /// Runs one transaction on the slot's coordinator and accounts the
  /// outcome.
  void RunSlotTxn(Slot* slot, Random* rng, uint64_t start_ns,
                  LatencyHistogram* latency);
  void FaultLoop(uint64_t start_ns);
  txn::Coordinator* SpawnCoordinator(uint32_t compute_index);

  // Rejoins a compute node that was fenced by a failure-detector false
  // positive: waits for its recovery to finish, restores its links, and
  // respawns its coordinators with fresh coordinator-ids.
  void RejoinFencedNode(rdma::NodeId node);

  cluster::Cluster* cluster_;
  recovery::RecoveryManager* manager_;
  txn::SystemGate* gate_;
  Workload* workload_;
  DriverConfig config_;
  std::vector<FaultEvent> faults_;

  std::vector<std::unique_ptr<Slot>> slots_;
  std::mutex coords_mu_;  // Guards coords_ growth (spawn/respawn).
  std::vector<std::unique_ptr<txn::Coordinator>> coords_;

  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> bucket_commits_;
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> crashed_{0};
  /// Rejoin critical section; a cooperative flag instead of a mutex so a
  /// fiber suspended mid-rejoin cannot deadlock its worker thread.
  std::atomic<bool> rejoin_busy_{false};
};

}  // namespace workloads
}  // namespace pandora

#endif  // PANDORA_WORKLOADS_DRIVER_H_
