#ifndef PANDORA_RECOVERY_RECOVERY_MANAGER_H_
#define PANDORA_RECOVERY_RECOVERY_MANAGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/reconfig.h"
#include "common/status.h"
#include "recovery/failure_detector.h"
#include "recovery/recovery_coordinator.h"
#include "txn/system_gate.h"
#include "txn/txn_config.h"

namespace pandora {
namespace recovery {

struct RecoveryManagerConfig {
  /// Which protocol's recovery to run. kPandora uses PILL (non-blocking);
  /// kFordBaseline adds the stop-the-world stray-lock scan; the
  /// traditional scheme recovers stray locks from lock-intent logs.
  txn::ProtocolMode mode = txn::ProtocolMode::kPandora;
  FdConfig fd;
  /// Reconfiguration pause after a memory-server failure (§3.2.5; §6.3:
  /// fail-over throughput drops to zero, then rapidly recovers).
  uint64_t memory_reconfig_us = 2000;
  /// Per-slot cost charged to the Baseline's stray-lock scan, modelling
  /// the paper's production-sized KVS (§3.1.1). 0 = scan at simulator
  /// memory speed.
  uint64_t scan_throttle_ns_per_slot = 0;
};

/// End-to-end recovery orchestration (Figure 3): failure detection,
/// active-link termination, log recovery, stray-lock notification — plus
/// the memory-server failure path and coordinator-id recycling.
class RecoveryManager {
 public:
  RecoveryManager(cluster::Cluster* cluster,
                  const RecoveryManagerConfig& config,
                  txn::SystemGate* gate = nullptr);
  ~RecoveryManager();

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  FailureDetector& fd() { return *fd_; }
  RecoveryCoordinator& rc() { return *rc_; }

  /// Starts the failure detector.
  void Start();
  void Stop();

  /// Registers a compute server: allocates `coordinators` coordinator-ids,
  /// seeds the server's failed-ids bitset from the master copy, and starts
  /// a heartbeat pump for the node.
  Status RegisterComputeNode(cluster::ComputeServer* server,
                             uint32_t coordinators,
                             std::vector<uint16_t>* ids);

  /// Runs the §3.2.2 recovery steps 2-4 for a failed compute node, once;
  /// returns the first failure. Blocking.
  Status RecoverComputeFailure(rdma::NodeId node,
                               const std::vector<uint16_t>& coordinator_ids);

  /// The failure decision: recovers `node` (RecoverComputeFailure),
  /// restarting the recovery coordinator up to twice when an attempt
  /// dies. The FD callback runs it on a recovery thread; the litmus
  /// harness, which runs no detector, calls it at a fixed point of each
  /// schedule. Blocking.
  Status DeclareComputeFailure(rdma::NodeId node,
                               const std::vector<uint16_t>& ids);

  /// §3.2.5 memory-failure handling: marks the server dead (if the fabric
  /// has not already), pauses the DKVS behind the reconfiguration barrier
  /// while compute servers recompute primaries, then resumes. Blocking.
  Status RecoverMemoryFailure(rdma::NodeId node);

  /// Number of completed compute recoveries for `node` so far. Capture it
  /// before inducing a crash and pass it as `completions_before` to wait
  /// for the *next* recovery rather than a stale earlier one.
  uint64_t recovery_count(rdma::NodeId node) const;

  /// Waits until `node`'s completed-recovery count exceeds
  /// `completions_before` (stray-lock notification sent). Returns false on
  /// timeout.
  bool WaitForComputeRecovery(rdma::NodeId node, uint64_t timeout_us,
                              uint64_t completions_before = 0);

  /// Compute recoveries currently in flight (started, not yet completed).
  uint64_t pending_recoveries() const {
    return started_.load(std::memory_order_acquire) -
           completed_.load(std::memory_order_acquire);
  }

  /// Stats of the most recent completed compute recovery.
  RecoveryStats last_recovery_stats() const;

  /// Time from FD verdict to stray-lock notification of the most recent
  /// compute recovery.
  uint64_t last_recovery_latency_ns() const {
    return last_latency_ns_.load(std::memory_order_acquire);
  }

  /// §3.2.5 re-replication: quiesces the system, rebuilds the dead
  /// memory server as a fresh replica (data copied from the surviving
  /// primaries), and resumes. Restores the replication degree after a
  /// memory failure.
  Status ReplaceMemoryNode(rdma::NodeId node);

  /// Reconfiguration options wired to this manager's system gate: the
  /// cutover quiesce blocks new transactions, drains the in-flight ones,
  /// and additionally waits out any compute recovery currently running
  /// (recovery-during-reconfiguration re-plans instead of interleaving).
  cluster::ReconfigOptions MakeReconfigOptions();

  /// §3.1.2 "Recycling coordinator-ids": when more than 95% of the id
  /// space is used, scan memory, release all stray locks of failed ids and
  /// return them to the free pool. Blocking (quiesces the system).
  Status RecycleIdsIfNeeded(double threshold = 0.95);

 private:
  cluster::Cluster* cluster_;
  RecoveryManagerConfig config_;
  txn::SystemGate* gate_;
  std::unique_ptr<FailureDetector> fd_;
  std::unique_ptr<RecoveryCoordinator> rc_;

  mutable std::mutex mu_;
  std::map<rdma::NodeId, uint64_t> recoveries_done_;  // node -> count
  std::vector<std::unique_ptr<HeartbeatPump>> pumps_;
  std::set<rdma::NodeId> pumped_nodes_;
  std::vector<std::thread> recovery_threads_;
  std::vector<uint16_t> all_failed_ids_;  // for recycling
  RecoveryStats last_stats_;
  std::atomic<uint64_t> last_latency_ns_{0};
  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> completed_{0};
  // Serializes compute-failure recovery against memory reconfiguration
  // (joint failures run both protocols, but not interleaved). Held across
  // the recovery's waits, which suspend a fiber (the litmus harness's
  // recovery fiber), so recovery must never run from two fibers of one
  // thread.
  std::mutex recovery_mu_;
};

}  // namespace recovery
}  // namespace pandora

#endif  // PANDORA_RECOVERY_RECOVERY_MANAGER_H_
