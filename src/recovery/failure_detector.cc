#include "recovery/failure_detector.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "store/object_header.h"

namespace pandora {
namespace recovery {

FailureDetector::FailureDetector(cluster::Cluster* cluster,
                                 const FdConfig& config)
    : cluster_(cluster), config_(config) {
  PANDORA_CHECK(config_.replicas >= 1);
  heartbeats_.reserve(config_.replicas);
  for (uint32_t r = 0; r < config_.replicas; ++r) {
    auto array = std::make_unique<std::atomic<uint64_t>[]>(rdma::kMaxNodes);
    for (uint32_t i = 0; i < rdma::kMaxNodes; ++i) {
      array[i].store(0, std::memory_order_relaxed);
    }
    heartbeats_.push_back(std::move(array));
  }
}

FailureDetector::~FailureDetector() { Stop(); }

void FailureDetector::Start() {
  PANDORA_CHECK(!running_.load());
  running_.store(true);
  detector_thread_ = std::thread([this] { DetectorLoop(); });
}

void FailureDetector::Stop() {
  if (!running_.exchange(false)) return;
  if (detector_thread_.joinable()) detector_thread_.join();
}

Status FailureDetector::RegisterComputeNode(rdma::NodeId node,
                                            uint32_t coordinators,
                                            std::vector<uint16_t>* ids) {
  const uint32_t max_ids = std::min<uint32_t>(
      cluster_->catalog().log_layout().config().max_coordinators,
      store::kMaxCoordinatorIds);
  ids->clear();

  std::lock_guard<std::mutex> lock(mu_);
  // Prefer recycled ids (their stray locks were all released by the
  // recycling scan, §3.1.2).
  while (ids->size() < coordinators && !free_ids_.empty()) {
    ids->push_back(free_ids_.back());
    free_ids_.pop_back();
  }
  const uint32_t fresh = coordinators - static_cast<uint32_t>(ids->size());
  if (fresh > 0) {
    const uint32_t first =
        next_coord_id_.fetch_add(fresh, std::memory_order_acq_rel);
    if (first + fresh > max_ids) {
      return Status::ResourceExhausted(
          "coordinator-id space exhausted; recycling required");
    }
    for (uint32_t i = 0; i < fresh; ++i) {
      ids->push_back(static_cast<uint16_t>(first + i));
    }
  }

  // A node may re-register after a restart; it gets a fresh record with
  // fresh ids (old ids stay retired — the paper never reassigns ids whose
  // stray locks may exist).
  for (NodeRecord& record : records_) {
    if (record.node == node && !record.failed) {
      record.failed = true;  // Stale record from an unreported incarnation.
    }
  }
  NodeRecord record;
  record.node = node;
  record.coordinator_ids = *ids;
  records_.push_back(std::move(record));
  Heartbeat(node);
  return Status::OK();
}

void FailureDetector::Heartbeat(rdma::NodeId node) {
  if (cluster_->fabric().IsHalted(node)) return;  // Dead nodes are silent.
  const uint64_t now = NowMicros();
  for (auto& replica : heartbeats_) {
    replica[node].store(now, std::memory_order_release);
  }
}

double FailureDetector::IdSpaceUsed() const {
  const uint32_t allocated = next_coord_id_.load(std::memory_order_acquire);
  const uint32_t recycled = recycled_count_.load(std::memory_order_acquire);
  return static_cast<double>(allocated - recycled) /
         static_cast<double>(store::kMaxCoordinatorIds);
}

void FailureDetector::ReleaseRecycledIds(const std::vector<uint16_t>& ids) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const uint16_t id : ids) {
    failed_ids_.Clear(id);
    free_ids_.push_back(id);
  }
  recycled_count_.fetch_add(static_cast<uint32_t>(ids.size()),
                            std::memory_order_acq_rel);
}

bool FailureDetector::MajoritySeesStale(rdma::NodeId node, uint64_t now_us,
                                        uint64_t lease_start_us) const {
  uint32_t stale = 0;
  for (const auto& replica : heartbeats_) {
    const uint64_t last = std::max(
        replica[node].load(std::memory_order_acquire), lease_start_us);
    if (now_us > last && now_us - last > config_.timeout_us) ++stale;
  }
  return stale * 2 > config_.replicas;
}

void FailureDetector::DetectorLoop() {
  const cluster::Membership& membership = cluster_->membership();
  uint64_t seen_barrier_changes = membership.barrier_changes();
  uint64_t lease_start = 0;  // Every lease runs from at least here.
  while (running_.load(std::memory_order_acquire)) {
    SleepForMicros(config_.poll_period_us);
    // A reconfiguration barrier is up, or rose and fell since the last
    // poll: its wall time is not compute silence. Re-arm and declare
    // nothing this round. (The clock is read after the barrier, so a
    // re-armed lease never starts before the barrier dropped.)
    const uint64_t barrier_changes = membership.barrier_changes();
    const bool barrier_up = membership.reconfiguring();
    const uint64_t now = NowMicros();
    if (barrier_up || barrier_changes != seen_barrier_changes) {
      seen_barrier_changes = barrier_changes;
      lease_start = now;
      continue;
    }

    // Collect verdicts under the lock, fire callbacks outside it.
    std::vector<NodeRecord> newly_failed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (NodeRecord& record : records_) {
        if (record.failed) continue;
        if (MajoritySeesStale(record.node, now, lease_start)) {
          record.failed = true;
          newly_failed.push_back(record);
        }
      }
    }
    for (const NodeRecord& record : newly_failed) {
      // Distributed FD: reaching the quorum decision costs extra latency.
      if (config_.quorum_latency_us > 0 && config_.replicas > 1) {
        SleepForMicros(config_.quorum_latency_us);
      }
      PANDORA_LOG(kInfo) << "FD: compute node " << record.node
                         << " declared failed ("
                         << record.coordinator_ids.size()
                         << " coordinators)";
      for (const uint16_t id : record.coordinator_ids) {
        failed_ids_.Set(id);
      }
      if (failure_callback_) {
        failure_callback_(record.node, record.coordinator_ids);
      }
    }
  }
}

HeartbeatPump::HeartbeatPump(FailureDetector* fd, cluster::Cluster* cluster,
                             rdma::NodeId node, uint64_t period_us)
    : fd_(fd), cluster_(cluster), node_(node), period_us_(period_us) {
  thread_ = std::thread([this] {
    // Runs for the pump's lifetime; Heartbeat() itself goes silent while
    // the node is halted, and resumes if the node is restarted.
    while (running_.load(std::memory_order_acquire)) {
      fd_->Heartbeat(node_);
      SleepForMicros(period_us_);
    }
  });
}

HeartbeatPump::~HeartbeatPump() { Stop(); }

void HeartbeatPump::Stop() {
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

}  // namespace recovery
}  // namespace pandora
