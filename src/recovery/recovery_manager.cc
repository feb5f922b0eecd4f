#include "recovery/recovery_manager.h"

#include "common/clock.h"
#include "common/logging.h"

namespace pandora {
namespace recovery {

RecoveryManager::RecoveryManager(cluster::Cluster* cluster,
                                 const RecoveryManagerConfig& config,
                                 txn::SystemGate* gate)
    : cluster_(cluster), config_(config), gate_(gate) {
  fd_ = std::make_unique<FailureDetector>(cluster, config.fd);
  rc_ = std::make_unique<RecoveryCoordinator>(cluster);
  rc_->set_scan_throttle_ns_per_slot(config.scan_throttle_ns_per_slot);
  fd_->set_failure_callback(
      [this](rdma::NodeId node, const std::vector<uint16_t>& ids) {
        // Recover off the detector thread so one failure does not delay
        // detection of the next.
        std::lock_guard<std::mutex> lock(mu_);
        recovery_threads_.emplace_back(
            [this, node, ids] { DeclareComputeFailure(node, ids); });
      });
  if (gate_ != nullptr) {
    // Arm the stop-the-world precondition of RebuildMemoryNode: with a
    // system gate present, a rebuild is legal only while the gate is
    // blocked and drained (as ReplaceMemoryNode arranges). Direct calls
    // under traffic get refused instead of silently corrupting replicas.
    txn::SystemGate* gate = gate_;
    cluster_->set_quiesce_check(
        [gate] { return gate->blocked() && gate->active_txns() == 0; });
  }
}

RecoveryManager::~RecoveryManager() { Stop(); }

void RecoveryManager::Start() { fd_->Start(); }

void RecoveryManager::Stop() {
  fd_->Stop();
  std::vector<std::unique_ptr<HeartbeatPump>> pumps;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pumps.swap(pumps_);
    threads.swap(recovery_threads_);
  }
  for (auto& pump : pumps) pump->Stop();
  for (auto& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

Status RecoveryManager::RegisterComputeNode(cluster::ComputeServer* server,
                                            uint32_t coordinators,
                                            std::vector<uint16_t>* ids) {
  PANDORA_RETURN_NOT_OK(
      fd_->RegisterComputeNode(server->node(), coordinators, ids));
  // Initial configuration message: current failed-ids snapshot (§3.1.2).
  server->failed_ids().CopyFrom(fd_->failed_ids());
  {
    std::lock_guard<std::mutex> lock(mu_);
    // One heartbeat pump per node, even across re-registrations (a node
    // restarting after a crash re-registers with fresh ids).
    if (!pumped_nodes_.count(server->node())) {
      pumps_.push_back(std::make_unique<HeartbeatPump>(
          fd_.get(), cluster_, server->node(),
          config_.fd.heartbeat_period_us));
      pumped_nodes_.insert(server->node());
    }
    all_failed_ids_.insert(all_failed_ids_.end(), ids->begin(), ids->end());
    // (ids are only *candidates* for failure; kept for recycling scans.)
  }
  return Status::OK();
}

Status RecoveryManager::DeclareComputeFailure(
    rdma::NodeId node, const std::vector<uint16_t>& ids) {
  Status status = RecoverComputeFailure(node, ids);
  // The recovery coordinator itself can die mid-recovery (fault injection
  // via rc().set_step_fault_hook, or a real RC crash). Recovery is
  // idempotent (§3.2.3), so a restarted RC simply re-runs the whole
  // procedure from the top.
  for (int restart = 0; !status.ok() && restart < 2; ++restart) {
    PANDORA_LOG(kWarning) << "recovery coordinator died recovering node "
                          << node << " (" << status.ToString()
                          << "); restarting";
    status = RecoverComputeFailure(node, ids);
  }
  if (!status.ok()) {
    PANDORA_LOG(kError) << "recovery of node " << node
                        << " failed: " << status.ToString();
  }
  return status;
}

Status RecoveryManager::RecoverComputeFailure(
    rdma::NodeId node, const std::vector<uint16_t>& coordinator_ids) {
  started_.fetch_add(1, std::memory_order_acq_rel);
  // Balance started_/completed_ on every exit path.
  struct Completion {
    std::atomic<uint64_t>* counter;
    ~Completion() { counter->fetch_add(1, std::memory_order_acq_rel); }
  } completion{&completed_};
  std::lock_guard<std::mutex> recovery_lock(recovery_mu_);
  const uint64_t start = NowNanos();

  // Step 2 — active-link termination: revoke the suspect's RDMA rights on
  // every memory server so even a false positive cannot corrupt memory
  // (Cor1).
  cluster_->fabric().RevokeNodeEverywhere(node);

  // Make sure the master failed-ids copy covers these ids even when this
  // call bypassed the FD (tests / manual invocation).
  for (const uint16_t id : coordinator_ids) fd_->MarkFailed(id);

  // Step 3 — log recovery: roll every logged stray transaction forward or
  // back, then truncate the logs (idempotence, §3.2.3).
  RecoveryStats stats;
  PANDORA_RETURN_NOT_OK(rc_->RecoverLogs(coordinator_ids, &stats));

  // Baseline only: stray locks of *not-logged* transactions cannot be
  // found without scanning the whole KVS, and the scan cannot tell live
  // locks from stray ones, so the entire system is blocked (§3.1.1).
  if (config_.mode == txn::ProtocolMode::kFordBaseline) {
    if (gate_ != nullptr) gate_->BlockAndQuiesce();
    const Status scan_status =
        rc_->ScanAndReleaseStrayLocks(coordinator_ids, &stats);
    if (gate_ != nullptr) gate_->Unblock();
    PANDORA_RETURN_NOT_OK(scan_status);
  }

  // Step 4 — stray-lock notification: only now may live coordinators
  // steal (Cor4: every surviving lock of these ids belongs to a
  // not-logged transaction).
  for (cluster::ComputeServer* server : cluster_->ComputeServers()) {
    for (const uint16_t id : coordinator_ids) {
      server->failed_ids().Set(id);
    }
  }

  const uint64_t elapsed = NowNanos() - start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_stats_ = stats;
    recoveries_done_[node]++;
  }
  last_latency_ns_.store(elapsed, std::memory_order_release);
  PANDORA_LOG(kInfo) << "recovered compute node " << node << " ("
                     << coordinator_ids.size() << " coordinators) in "
                     << elapsed / 1000 << " us: " << stats.logged_txns
                     << " logged txns, " << stats.rolled_forward
                     << " forward, " << stats.rolled_back << " back, "
                     << stats.locks_released << " locks released";
  return Status::OK();
}

Status RecoveryManager::RecoverMemoryFailure(rdma::NodeId node) {
  std::lock_guard<std::mutex> recovery_lock(recovery_mu_);
  if (cluster_->membership().IsMemoryAlive(node)) {
    cluster_->membership().MarkMemoryDead(node);
  }
  // §3.2.5: the whole KVS pauses briefly while the new replica
  // configuration is installed; in-flight transactions decide for
  // themselves (coordinators commit if all live replicas are updated).
  cluster_->membership().BeginReconfiguration();
  SleepForMicros(config_.memory_reconfig_us);
  cluster_->membership().EndReconfiguration();
  PANDORA_LOG(kInfo) << "memory node " << node
                     << " failed over; new primaries installed";
  return Status::OK();
}

uint64_t RecoveryManager::recovery_count(rdma::NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = recoveries_done_.find(node);
  return it == recoveries_done_.end() ? 0 : it->second;
}

bool RecoveryManager::WaitForComputeRecovery(rdma::NodeId node,
                                             uint64_t timeout_us,
                                             uint64_t completions_before) {
  const uint64_t deadline = NowMicros() + timeout_us;
  while (NowMicros() < deadline) {
    if (recovery_count(node) > completions_before) return true;
    SleepForMicros(100);
  }
  return false;
}

RecoveryStats RecoveryManager::last_recovery_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_stats_;
}

Status RecoveryManager::ReplaceMemoryNode(rdma::NodeId node) {
  std::lock_guard<std::mutex> recovery_lock(recovery_mu_);
  cluster_->membership().BeginReconfiguration();
  if (gate_ != nullptr) gate_->BlockAndQuiesce();
  const Status status = cluster_->RebuildMemoryNode(node);
  if (gate_ != nullptr) gate_->Unblock();
  cluster_->membership().EndReconfiguration();
  if (status.ok()) {
    PANDORA_LOG(kInfo) << "memory node " << node
                       << " re-replicated and re-admitted";
  }
  return status;
}

cluster::ReconfigOptions RecoveryManager::MakeReconfigOptions() {
  cluster::ReconfigOptions options;
  if (gate_ == nullptr) return options;
  options.quiesce_block = [this] {
    gate_->BlockAndQuiesce();
    // A compute recovery started before the gate closed may still be
    // repairing state; let it finish so the delta pass copies the repaired
    // images rather than racing the recovery coordinator's writes.
    const uint64_t deadline = NowMicros() + 1'000'000;
    while (pending_recoveries() > 0 && NowMicros() < deadline) {
      SleepForMicros(100);
    }
  };
  options.quiesce_unblock = [this] { gate_->Unblock(); };
  return options;
}

Status RecoveryManager::RecycleIdsIfNeeded(double threshold) {
  if (fd_->IdSpaceUsed() < threshold) return Status::OK();
  // Gather the ids that are currently marked failed; release all their
  // stray locks with a quiesced scan, then return them to the pool.
  std::vector<uint16_t> recyclable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const uint16_t id : all_failed_ids_) {
      if (fd_->failed_ids().Test(id)) recyclable.push_back(id);
    }
  }
  if (recyclable.empty()) {
    return Status::ResourceExhausted("id space full but nothing failed");
  }
  if (gate_ != nullptr) gate_->BlockAndQuiesce();
  RecoveryStats stats;
  const Status status = rc_->ScanAndReleaseStrayLocks(recyclable, &stats);
  if (gate_ != nullptr) gate_->Unblock();
  PANDORA_RETURN_NOT_OK(status);
  fd_->ReleaseRecycledIds(recyclable);
  // The recycled ids must also disappear from every compute server's
  // failed-ids set (they may be reassigned).
  for (cluster::ComputeServer* server : cluster_->ComputeServers()) {
    for (const uint16_t id : recyclable) server->failed_ids().Clear(id);
  }
  PANDORA_LOG(kInfo) << "recycled " << recyclable.size()
                     << " coordinator ids (" << stats.locks_released
                     << " stray locks released)";
  return Status::OK();
}

}  // namespace recovery
}  // namespace pandora
