#ifndef PANDORA_RECOVERY_FAILURE_DETECTOR_H_
#define PANDORA_RECOVERY_FAILURE_DETECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/fixed_bitset.h"
#include "common/status.h"
#include "rdma/types.h"

namespace pandora {
namespace recovery {

/// Configuration of the heartbeat failure detector (§3.2.2 step 1 and
/// §3.2.4).
struct FdConfig {
  /// Failure is declared after this silence (the paper uses 5 ms).
  uint64_t timeout_us = 5000;
  /// Heartbeat send period on the compute side.
  uint64_t heartbeat_period_us = 1000;
  /// Detector poll period.
  uint64_t poll_period_us = 500;
  /// Number of FD replicas (1 = standalone, Figure 4a; 3 = the
  /// ZooKeeper-backed distributed FD of Figure 4b). A node is declared
  /// failed only when a majority of replicas see its heartbeat as stale.
  uint32_t replicas = 1;
  /// Extra per-replica latency for reaching consensus in the distributed
  /// configuration (models the ZooKeeper quorum round; §6.4 reports <20 ms
  /// recovery with 3 replicas vs ~5+ ms standalone).
  uint64_t quorum_latency_us = 0;
};

/// Heartbeat-based failure detector for compute servers.
///
/// Compute servers "write" their heartbeat timestamps directly into each FD
/// replica's heartbeat array — modelling the paper's one-sided RDMA
/// heartbeats into the FD replicas' memory (§3.2.4: "compute servers send
/// RDMA-based heartbeat messages to all Zookeeper replicas"). The detector
/// thread scans the arrays; when a majority of replicas see a node's last
/// heartbeat older than the timeout, the failure callback fires (once per
/// registered incarnation).
///
/// Leases do not age while the memory membership is reconfiguring: a
/// quiesced reconfiguration (e.g. a stop-the-world ReplaceMemoryNode
/// rebuild) may outlast the timeout without any compute node having gone
/// silent. The detector declares nothing while the barrier is up and
/// re-arms every lease when it drops.
///
/// The FD also owns coordinator-id allocation (§3.1.2): ids are handed out
/// by a strictly serialized counter so no two coordinators ever share an
/// id, and the master failed-ids bitset lives here.
class FailureDetector {
 public:
  using FailureCallback =
      std::function<void(rdma::NodeId node,
                         const std::vector<uint16_t>& coordinator_ids)>;

  FailureDetector(cluster::Cluster* cluster, const FdConfig& config);
  ~FailureDetector();

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Invoked (from the detector thread) when a compute server is declared
  /// failed. Must be set before Start().
  void set_failure_callback(FailureCallback callback) {
    failure_callback_ = std::move(callback);
  }

  void Start();
  void Stop();

  /// --- Compute-server control path --------------------------------------

  /// Registers a compute server and allocates `coordinators` fresh
  /// coordinator-ids for it. The returned ids are globally unique over the
  /// lifetime of the FD (never recycled unless RecycleIds runs). Also
  /// starts tracking heartbeats for the node.
  Status RegisterComputeNode(rdma::NodeId node, uint32_t coordinators,
                             std::vector<uint16_t>* ids);

  /// One-sided heartbeat: stores "now" into every FD replica's array.
  /// Called from a compute-side heartbeat thread; does nothing (heartbeat
  /// goes stale) once the node's fabric link is halted.
  void Heartbeat(rdma::NodeId node);

  /// --- Failed-id bookkeeping --------------------------------------------

  const FailedIdBitset& failed_ids() const { return failed_ids_; }
  void MarkFailed(uint16_t coord_id) { failed_ids_.Set(coord_id); }

  /// Fraction of the 64K id space consumed (recycling triggers at 95%).
  double IdSpaceUsed() const;

  /// Number of ids handed out so far.
  uint32_t ids_allocated() const {
    return next_coord_id_.load(std::memory_order_acquire);
  }

  /// Marks a set of ids as recycled (called by the recycling scanner after
  /// it has released all their stray locks, §3.1.2).
  void ReleaseRecycledIds(const std::vector<uint16_t>& ids);

 private:
  struct NodeRecord {
    rdma::NodeId node = rdma::kInvalidNodeId;
    std::vector<uint16_t> coordinator_ids;
    bool failed = false;
  };

  void DetectorLoop();
  bool MajoritySeesStale(rdma::NodeId node, uint64_t now_us,
                         uint64_t lease_start_us) const;

  cluster::Cluster* cluster_;
  FdConfig config_;
  FailureCallback failure_callback_;

  // Heartbeat arrays, one per FD replica, indexed by NodeId. Atomic so the
  // compute-side "RDMA write" and the detector's read don't race.
  std::vector<std::unique_ptr<std::atomic<uint64_t>[]>> heartbeats_;

  mutable std::mutex mu_;  // Guards records_.
  std::vector<NodeRecord> records_;

  std::atomic<uint32_t> next_coord_id_{0};
  std::atomic<uint32_t> recycled_count_{0};
  std::vector<uint16_t> free_ids_;  // Recycled, reassignable ids.
  FailedIdBitset failed_ids_;

  std::atomic<bool> running_{false};
  std::thread detector_thread_;
};

/// Compute-side heartbeat pump: a thread per compute server that calls
/// FailureDetector::Heartbeat until the node halts or the pump stops.
class HeartbeatPump {
 public:
  HeartbeatPump(FailureDetector* fd, cluster::Cluster* cluster,
                rdma::NodeId node, uint64_t period_us);
  ~HeartbeatPump();

  HeartbeatPump(const HeartbeatPump&) = delete;
  HeartbeatPump& operator=(const HeartbeatPump&) = delete;

  void Stop();

 private:
  FailureDetector* fd_;
  cluster::Cluster* cluster_;
  rdma::NodeId node_;
  uint64_t period_us_;
  std::atomic<bool> running_{true};
  std::thread thread_;
};

}  // namespace recovery
}  // namespace pandora

#endif  // PANDORA_RECOVERY_FAILURE_DETECTOR_H_
