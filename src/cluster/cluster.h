#ifndef PANDORA_CLUSTER_CLUSTER_H_
#define PANDORA_CLUSTER_CLUSTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/address_cache.h"
#include "cluster/catalog.h"
#include "cluster/compute_server.h"
#include "cluster/membership.h"
#include "cluster/placement.h"
#include "common/slice.h"
#include "common/status.h"
#include "rdma/fabric.h"

namespace pandora {
namespace cluster {

/// Memory technology of the memory servers (§7). The protocols are
/// identical; only the durability mechanism differs.
enum class PersistenceMode {
  /// DRAM: durability comes from f+1 in-memory replication (the paper's
  /// default deployment). Battery-backed DRAM behaves the same: every
  /// landed write is durable and "no flushing is required on the critical
  /// path".
  kVolatileDram,
  /// NVM behind an RNIC cache: durable writes need FORD's selective
  /// one-sided flush (a small RDMA read to the same region forces the
  /// preceding writes out of the RNIC cache into the NVM).
  kNvmWithFlush,
};

/// Deployment parameters for one simulated DKVS.
struct ClusterConfig {
  uint32_t memory_nodes = 2;
  /// Spare memory servers attached to the fabric but outside the initial
  /// hash ring: their regions exist (so queue pairs and rkeys are valid)
  /// but they hold no data and are marked dead in the membership until a
  /// live join (cluster::ReconfigManager) migrates ranges onto them.
  uint32_t standby_memory_nodes = 0;
  uint32_t compute_nodes = 2;
  /// Replication degree f+1 (each object lives on one primary + f backups).
  uint32_t replication = 2;
  PersistenceMode persistence = PersistenceMode::kVolatileDram;
  rdma::NetworkConfig net;
  store::LogConfig log;
};

/// Builds and owns the whole simulated deployment: the fabric, the memory
/// servers (regions), the compute servers, placement and the catalog.
///
/// Node-id convention: memory servers take ids [0, memory_nodes); compute
/// servers take [memory_nodes, memory_nodes + compute_nodes); auxiliary
/// services (failure detector, recovery coordinator) take ids above that.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return config_; }
  rdma::Fabric& fabric() { return *fabric_; }
  /// The active hash ring. Swapped atomically by InstallRing during an
  /// online reconfiguration; superseded rings stay alive until the cluster
  /// is destroyed, so a reference obtained here never dangles.
  const HashRing& ring() const {
    return *active_ring_.load(std::memory_order_acquire);
  }
  Catalog& catalog() { return *catalog_; }
  const Catalog& catalog() const { return *catalog_; }
  Membership& membership() { return membership_; }
  const Membership& membership() const { return membership_; }
  AddressCache& addresses() { return *addresses_; }
  const AddressCache& addresses() const { return *addresses_; }

  uint32_t num_memory_nodes() const { return config_.memory_nodes; }
  /// Attached memory servers including standbys outside the initial ring.
  uint32_t total_memory_nodes() const {
    return config_.memory_nodes + config_.standby_memory_nodes;
  }
  uint32_t num_compute_nodes() const { return config_.compute_nodes; }

  rdma::NodeId memory_node_id(uint32_t i) const {
    return static_cast<rdma::NodeId>(i);
  }
  rdma::NodeId compute_node_id(uint32_t i) const {
    return static_cast<rdma::NodeId>(total_memory_nodes() + i);
  }
  /// Node id reserved for control services (FD / recovery coordinator).
  rdma::NodeId service_node_id() const {
    return static_cast<rdma::NodeId>(total_memory_nodes() +
                                     config_.compute_nodes);
  }

  ComputeServer* compute(uint32_t i) { return computes_[i].get(); }

  /// All compute servers (for failed-id broadcast).
  std::vector<ComputeServer*> ComputeServers();

  /// --- Control-path schema & bulk load ---------------------------------

  /// Creates a table able to hold `expected_keys` objects with values of
  /// `value_size` bytes, allocating a region on every memory server.
  store::TableId CreateTable(const std::string& name, uint32_t value_size,
                             uint64_t expected_keys);

  /// Loads one row into every replica (control path, before transactions
  /// start). Records the slot addresses in the shared address cache.
  Status LoadRow(store::TableId table, store::Key key, Slice value);

  /// Allocation-free replica set (static, primary candidate first).
  ReplicaSet ReplicaSetFor(store::TableId table, store::Key key) const {
    return ring().ReplicaSetFor(table, key);
  }

  /// Epoch covering everything a Locator entry depends on: the ring
  /// identity, the membership view (primary = first *alive* replica, so a
  /// failover must invalidate entries too) and the memory-node wipes
  /// (which reassign slots). All three are monotonic, so the sum advances
  /// on every change and never repeats.
  uint64_t placement_epoch() const {
    return ring().epoch() + membership_.epoch() +
           wipes_.load(std::memory_order_acquire);
  }

  /// First *alive* node of the replica set = the current primary (§3.2.5).
  /// Returns kInvalidNodeId if every replica is dead (> f failures).
  rdma::NodeId PrimaryFor(store::TableId table, store::Key key) const;

  /// Liveness filter over an already-resolved replica set: the current
  /// primary without re-walking the ring.
  rdma::NodeId PrimaryOf(const ReplicaSet& replicas) const {
    for (const rdma::NodeId node : replicas) {
      if (membership_.IsMemoryAlive(node)) return node;
    }
    return rdma::kInvalidNodeId;
  }

  /// --- Failure emulation -------------------------------------------------

  /// Crashes a compute server's process.
  void CrashComputeNode(rdma::NodeId node) { fabric_->HaltNode(node); }

  /// Restores a previously crashed compute server (models restarting the
  /// process on the freed resources; it must obtain fresh coordinator-ids).
  void RestartComputeNode(rdma::NodeId node) {
    fabric_->RestoreNodeEverywhere(node);
    fabric_->ResumeNode(node);
  }

  /// Crashes a memory server.
  void CrashMemoryNode(rdma::NodeId node) {
    fabric_->HaltNode(node);
    membership_.MarkMemoryDead(node);
  }

  /// §3.2.5 re-replication: brings a previously crashed memory server
  /// back as a *fresh* replica — wipes its regions, copies every object
  /// it should replicate from the current primaries, and re-admits it to
  /// the membership. The caller must have quiesced transactions (the
  /// paper stops the DKVS for this); when a quiesce check is installed
  /// (set_quiesce_check), the call refuses (Busy) if the check reports
  /// in-flight traffic instead of silently corrupting.
  Status RebuildMemoryNode(rdma::NodeId node);

  /// Installs the precondition probe RebuildMemoryNode consults: must
  /// return true only when the system is quiesced (no in-flight
  /// transactions). Installed by the recovery layer, which owns the gate;
  /// bare clusters without one keep the unchecked legacy behavior.
  void set_quiesce_check(std::function<bool()> check) {
    quiesce_check_ = std::move(check);
  }

  /// --- Online reconfiguration hooks (cluster::ReconfigManager) ---------

  /// Atomically publishes a new active ring. The superseded ring is kept
  /// alive (readers may still hold references); its distinct epoch makes
  /// every Locator entry self-invalidate. Returns the new ring.
  const HashRing& InstallRing(std::unique_ptr<HashRing> ring);

  /// Wipes a memory server's table regions, address entries, and log
  /// region back to the freshly-attached state, then advances the
  /// placement epoch: every slot it held may be reassigned. Used by
  /// RebuildMemoryNode and by reconfiguration rollback/drain cleanup.
  void WipeMemoryNode(rdma::NodeId node);

  /// Direct access to a memory server's protection domain (control path:
  /// bulk loaders, litmus harness, reconfiguration copy loops).
  rdma::ProtectionDomain* memory_pd(rdma::NodeId node) const {
    return memory_pds_[node];
  }

 private:
  ClusterConfig config_;
  std::unique_ptr<rdma::Fabric> fabric_;
  std::vector<rdma::ProtectionDomain*> memory_pds_;
  /// Active ring + every ring ever installed. Swap-only, never freed
  /// mid-run: one retained ring per reconfiguration is a bounded cost and
  /// keeps the read path a single atomic load (no reference counting).
  std::atomic<const HashRing*> active_ring_{nullptr};
  std::vector<std::unique_ptr<HashRing>> ring_storage_;
  std::mutex ring_mu_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<AddressCache> addresses_;
  Membership membership_;
  /// WipeMemoryNode calls so far (one input of placement_epoch).
  std::atomic<uint64_t> wipes_{0};
  std::vector<std::unique_ptr<ComputeServer>> computes_;
  std::function<bool()> quiesce_check_;
};

}  // namespace cluster
}  // namespace pandora

#endif  // PANDORA_CLUSTER_CLUSTER_H_
