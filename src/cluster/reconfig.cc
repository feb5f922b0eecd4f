#include "cluster/reconfig.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "rdma/doorbell_group.h"
#include "store/object_header.h"
#include "store/remote_object.h"

namespace pandora {
namespace cluster {

namespace {

// Key words scanned per enumeration doorbell: the scan flies chunk-sized
// batches of 8-byte reads, so a region walk costs capacity/chunk max-RTT
// rounds instead of capacity sequential round trips.
constexpr uint64_t kScanChunk = 512;

const char* kReconfigPointNames[kNumReconfigCrashPoints] = {
    "BeforeCopy", "MidRangeCopy", "AfterCopy", "BeforeCutover",
    "AfterCutover",
};

}  // namespace

const char* ReconfigCrashPointName(ReconfigCrashPoint point) {
  const uint32_t i = static_cast<uint32_t>(point);
  return i < kNumReconfigCrashPoints ? kReconfigPointNames[i] : "?";
}

bool ReconfigCrashPointFromName(const char* name,
                                ReconfigCrashPoint* point) {
  for (uint32_t i = 0; i < kNumReconfigCrashPoints; ++i) {
    if (std::strcmp(name, kReconfigPointNames[i]) == 0) {
      *point = static_cast<ReconfigCrashPoint>(i);
      return true;
    }
  }
  return false;
}

ReconfigManager::ReconfigManager(Cluster* cluster, ReconfigOptions options)
    : cluster_(cluster), options_(options) {
  options_.ranges = std::max<uint32_t>(1, options_.ranges);
  range_states_ = std::vector<std::atomic<uint8_t>>(options_.ranges);
  for (uint32_t i = 0; i < cluster_->total_memory_nodes(); ++i) {
    qps_.push_back(cluster_->fabric().CreateQueuePair(
        cluster_->service_node_id(), cluster_->memory_node_id(i)));
  }
}

bool ReconfigManager::InjectorMaybeCrash(ReconfigCrashPoint point) {
  ReconfigFaultInjector* injector =
      injector_.load(std::memory_order_acquire);
  return injector != nullptr && injector->MaybeCrash(point);
}

Status ReconfigManager::JoinMemoryNode(rdma::NodeId node) {
  if (node >= cluster_->total_memory_nodes()) {
    return Status::InvalidArgument("join target is not an attached node");
  }
  if (cluster_->ring().nodes().end() !=
      std::find(cluster_->ring().nodes().begin(),
                cluster_->ring().nodes().end(), node)) {
    return Status::InvalidArgument("join target already in the ring");
  }
  if (cluster_->fabric().IsHalted(node)) {
    return Status::Unavailable("join target is halted");
  }
  std::vector<rdma::NodeId> nodes = cluster_->ring().nodes();
  nodes.push_back(node);
  return Migrate(Kind::kJoin, node, std::move(nodes));
}

Status ReconfigManager::DrainMemoryNode(rdma::NodeId node) {
  const std::vector<rdma::NodeId>& current = cluster_->ring().nodes();
  if (std::find(current.begin(), current.end(), node) == current.end()) {
    return Status::InvalidArgument("drain target is not in the ring");
  }
  if (current.size() <= cluster_->ring().replication()) {
    return Status::InvalidArgument(
        "drain would leave fewer nodes than the replication factor");
  }
  std::vector<rdma::NodeId> nodes;
  for (const rdma::NodeId n : current) {
    if (n != node) nodes.push_back(n);
  }
  return Migrate(Kind::kDrain, node, std::move(nodes));
}

Status ReconfigManager::EnumerateMoves(
    const HashRing& old_ring, const HashRing& target,
    std::vector<std::vector<MoveItem>>* by_range) {
  by_range->assign(options_.ranges, {});
  const Catalog& catalog = cluster_->catalog();
  const Membership& membership = cluster_->membership();
  std::vector<char> key_buf(kScanChunk * 8);
  rdma::DoorbellGroup group;

  for (size_t t = 0; t < catalog.num_tables(); ++t) {
    const store::TableId table = static_cast<store::TableId>(t);
    const TableInfo& info = catalog.table(table);
    const store::TableLayout& layout = info.layout;

    for (const rdma::NodeId source : old_ring.nodes()) {
      if (!membership.IsMemoryAlive(source)) continue;
      rdma::QueuePair* qp = qps_[source].get();

      for (uint64_t start = 0; start < layout.capacity();
           start += kScanChunk) {
        const uint64_t n =
            std::min<uint64_t>(kScanChunk, layout.capacity() - start);
        for (uint64_t i = 0; i < n; ++i) {
          group.Read(qp, info.region_rkeys[source],
                     layout.KeyOffset(start + i), key_buf.data() + i * 8,
                     8);
        }
        const Status status = group.Execute();
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          stats_.copy_rtts += 1;  // One doorbell round per chunk.
        }
        if (!status.ok()) return status;

        for (uint64_t i = 0; i < n; ++i) {
          const store::Key key = DecodeFixed64(key_buf.data() + i * 8);
          if (key == store::kFreeKey) continue;
          const uint64_t hash = HashRing::PlacementHash(table, key);
          const ReplicaSet old_set = old_ring.ReplicaSetForHash(hash);
          // Copy each object exactly once, from its *current* primary;
          // after a source death the re-plan naturally falls over to the
          // first alive backup.
          if (cluster_->PrimaryOf(old_set) != source) continue;
          const ReplicaSet new_set = target.ReplicaSetForHash(hash);
          bool moved = false;
          for (const rdma::NodeId d : new_set) {
            if (!old_set.Contains(d)) moved = true;
          }
          if (!moved) continue;
          MoveItem item;
          item.table = table;
          item.key = key;
          item.hash = hash;
          item.source = source;
          item.source_slot = start + i;
          (*by_range)[RangeOf(hash)].push_back(item);
        }
      }
    }
  }
  return Status::OK();
}

Status ReconfigManager::CopyObject(const HashRing& old_ring,
                                   const HashRing& target, Kind kind,
                                   rdma::NodeId subject,
                                   const MoveItem& item, bool delta) {
  const TableInfo& info = cluster_->catalog().table(item.table);
  const store::TableLayout& layout = info.layout;
  auto& recs = copied_versions_[item.table];
  uint64_t rtts = 0;

  // Full slot image from the source (one verb: the layout keeps a slot
  // contiguous exactly so it can be fetched in a single read).
  Status status = qps_[item.source]->Read(
      info.region_rkeys[item.source], layout.SlotOffset(item.source_slot),
      slot_buf_.data(), layout.slot_size());
  ++rtts;
  if (status.ok()) {
    const store::SlotReadView view = store::DecodeSlotRead(slot_buf_.data());
    if (view.key != item.key) {
      // The slot no longer names this key (stale enumeration after a
      // re-plan); the caller re-enumerates.
      status = Status::NotFound("source slot changed under migration");
    } else if (delta) {
      const auto it = recs.find(item.key);
      if (it != recs.end() && it->second == view.version &&
          !store::LockHeld(view.lock)) {
        status = Status::OK();  // Unchanged since the bulk pass.
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.copy_rtts += rtts;
        return status;
      }
    } else if (store::LockHeld(view.lock)) {
      // Locked by an in-flight transaction: don't copy a possibly
      // half-applied image. The quiesced delta pass (no live locks left)
      // picks it up.
      recs[item.key] = kDeferredVersion;
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.copy_rtts += rtts;
      return Status::OK();
    }
  }
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.copy_rtts += rtts;
    return status;
  }

  // The bulk pass copies only unlocked objects. A lock the quiesced delta
  // pass finds belongs to a coordinator that died before its recovery ran,
  // and that recovery will run against the new ring: the lock goes to
  // every new replica and to every replica that stays, which may now be
  // the primary. Copied unlocked, a live transaction could commit over the
  // half-applied image there, and the dead owner's roll-back would then
  // restore over that commit. Without the quiesce hooks a lock may be a
  // live owner's, released only where it was taken: the copy lands
  // unlocked.
  const bool carry_lock = delta && options_.quiesce_block &&
                          store::LockHeld(DecodeFixed64(slot_buf_.data()));
  if (!carry_lock) EncodeFixed64(slot_buf_.data(), store::kUnlocked);
  const uint64_t source_version =
      DecodeFixed64(slot_buf_.data() + 8);  // Version word follows the lock.

  const ReplicaSet old_set = old_ring.ReplicaSetForHash(item.hash);
  const ReplicaSet new_set = target.ReplicaSetForHash(item.hash);
  const Membership& membership = cluster_->membership();
  for (const rdma::NodeId d : new_set) {
    const bool stays = old_set.Contains(d);
    if (stays && !carry_lock) continue;
    // A dead destination (crashed mid-migration) is skipped: the cutover
    // publishes it as a dead replica and the normal §3.2.5 rebuild path
    // re-replicates it later. The join subject is membership-dead by
    // design until the cutover admits it.
    if (!membership.IsMemoryAlive(d) &&
        !(kind == Kind::kJoin && d == subject)) {
      continue;
    }
    store::SlotState state;
    bool existed = false;
    status = store::FindOrClaimSlot(qps_[d].get(), info.region_rkeys[d],
                                    layout, item.key, &state, &existed,
                                    &rtts);
    if (!status.ok()) break;
    // A staying replica keeps its image and gets only the lock word.
    status = qps_[d]->Write(info.region_rkeys[d],
                            layout.SlotOffset(state.slot), slot_buf_.data(),
                            stays ? sizeof(store::LockWord)
                                  : layout.slot_size());
    ++rtts;
    if (!status.ok()) break;
    cluster_->addresses().InsertOverlay(item.table, d, item.key,
                                        state.slot);
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.copy_rtts += rtts;
  if (status.ok()) {
    if (delta && recs.count(item.key) > 0) {
      ++stats_.objects_recopied;
    } else {
      ++stats_.objects_copied;
    }
    recs[item.key] = source_version;
  }
  return status;
}

Status ReconfigManager::Migrate(Kind kind, rdma::NodeId subject,
                                std::vector<rdma::NodeId> new_nodes) {
  std::lock_guard<std::mutex> migration_lock(mu_);
  in_progress_.store(true, std::memory_order_release);
  struct InProgressGuard {
    std::atomic<bool>* flag;
    ~InProgressGuard() { flag->store(false, std::memory_order_release); }
  } in_progress_guard{&in_progress_};

  const uint64_t start_ns = NowNanos();
  for (auto& state : range_states_) {
    state.store(static_cast<uint8_t>(RangeState::kOld),
                std::memory_order_release);
  }
  copied_versions_.assign(cluster_->catalog().num_tables(), {});
  uint64_t max_slot = 0;
  for (size_t t = 0; t < cluster_->catalog().num_tables(); ++t) {
    max_slot = std::max(max_slot, cluster_->catalog()
                                      .table(static_cast<store::TableId>(t))
                                      .layout.slot_size());
  }
  slot_buf_.resize(max_slot);

  const HashRing& old_ring = cluster_->ring();
  auto target =
      std::make_unique<HashRing>(new_nodes, old_ring.replication());

  const auto rollback = [&](Status why) {
    // Strictly before the cutover publish the old ring is still the
    // truth: wipe the join target's partial regions (and their address
    // entries) so a later attempt starts clean. Orphan copies left on
    // surviving nodes by a drain rollback are unreachable under the old
    // ring and get overwritten by the next migration.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rollbacks;
    }
    if (kind == Kind::kJoin) cluster_->WipeMemoryNode(subject);
    for (auto& state : range_states_) {
      state.store(static_cast<uint8_t>(RangeState::kOld),
                  std::memory_order_release);
    }
    PANDORA_LOG(kInfo) << "reconfig: rolled back (" << why.ToString()
                       << ")";
    return why;
  };

  if (InjectorMaybeCrash(ReconfigCrashPoint::kBeforeCopy)) {
    return rollback(Status::Aborted("reconfig crashed before copy"));
  }

  // --- Bulk copy (traffic keeps committing against the old ring) -------
  uint32_t replans = 0;
  while (true) {
    const uint64_t plan_epoch = cluster_->membership().epoch();
    std::vector<std::vector<MoveItem>> by_range;
    Status status = EnumerateMoves(old_ring, *target, &by_range);
    if (status.ok()) {
      for (uint32_t r = 0; r < options_.ranges && status.ok(); ++r) {
        range_states_[r].store(
            static_cast<uint8_t>(RangeState::kMigrating),
            std::memory_order_release);
        for (const MoveItem& item : by_range[r]) {
          status = CopyObject(old_ring, *target, kind, subject, item,
                              /*delta=*/false);
          if (!status.ok()) break;
        }
        if (!status.ok()) break;
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.ranges_migrated;
        }
        if (InjectorMaybeCrash(ReconfigCrashPoint::kMidRangeCopy)) {
          return rollback(
              Status::Aborted("reconfig crashed mid-range copy"));
        }
      }
    }
    if (status.ok() && cluster_->membership().epoch() == plan_epoch) {
      break;  // Copied everything against a stable membership view.
    }
    if (kind == Kind::kJoin && cluster_->fabric().IsHalted(subject)) {
      // The joining server died mid-join: no re-plan can complete this
      // migration; roll back gracefully to the old ring.
      return rollback(
          Status::Unavailable("joining memory node died mid-join"));
    }
    if (!status.ok() && cluster_->membership().epoch() == plan_epoch) {
      // A verb failed but the membership has no verdict yet (the failure
      // detector hasn't marked the source dead). Wait bounded for it.
      const uint64_t deadline = NowMicros() + options_.verdict_timeout_us;
      while (cluster_->membership().epoch() == plan_epoch &&
             NowMicros() < deadline) {
        SleepForMicros(100);
      }
      if (cluster_->membership().epoch() == plan_epoch) {
        return rollback(status);
      }
    }
    if (++replans > options_.max_replans) {
      return rollback(
          Status::Aborted("reconfig re-plan budget exhausted"));
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.replans;
    }
    PANDORA_LOG(kInfo) << "reconfig: membership changed mid-copy, "
                       << "re-planning (attempt " << replans << ")";
  }

  if (InjectorMaybeCrash(ReconfigCrashPoint::kAfterCopy)) {
    return rollback(Status::Aborted("reconfig crashed after copy"));
  }

  // --- Cutover ----------------------------------------------------------
  // The fence guard models the membership barrier's lease: it releases on
  // every exit path — including a driver crash injected at or after the
  // publish — so an abandoned migration can never wedge the cluster.
  struct FenceGuard {
    Membership* membership = nullptr;
    const std::function<void()>* unblock = nullptr;
    bool armed = false;
    void Release() {
      if (!armed) return;
      armed = false;
      if (unblock != nullptr && *unblock) (*unblock)();
      membership->EndReconfiguration();
    }
    ~FenceGuard() { Release(); }
  } fence;

  const uint64_t cutover_start_ns = NowNanos();
  if (options_.epoch_fence) {
    cluster_->membership().BeginReconfiguration();
    fence.membership = &cluster_->membership();
    fence.unblock = &options_.quiesce_unblock;
    fence.armed = true;
    if (options_.quiesce_block) options_.quiesce_block();

    // Delta pass: with no transaction in flight, re-enumerate and re-copy
    // exactly the objects whose version moved since the bulk pass (plus
    // inserts the bulk scan never saw and objects deferred while locked).
    std::vector<std::vector<MoveItem>> by_range;
    Status status = EnumerateMoves(old_ring, *target, &by_range);
    for (uint32_t r = 0; r < options_.ranges && status.ok(); ++r) {
      for (const MoveItem& item : by_range[r]) {
        status = CopyObject(old_ring, *target, kind, subject, item,
                            /*delta=*/true);
        if (!status.ok()) break;
      }
    }
    if (!status.ok()) return rollback(status);
  }
  // With the fence disabled (deliberately naive cutover) the ring is
  // published right here, straight after the bulk copy: updates committed
  // during the copy are lost on the new replicas. The crash-during-
  // migration litmus spec exists to catch exactly this.

  if (InjectorMaybeCrash(ReconfigCrashPoint::kBeforeCutover)) {
    return rollback(Status::Aborted("reconfig crashed before cutover"));
  }

  // Publish: admit/remove the subject and swap the ring. The ring epoch
  // bump is the fence every cached placement checks.
  if (kind == Kind::kJoin) cluster_->membership().MarkMemoryAlive(subject);
  cluster_->InstallRing(std::move(target));
  if (kind == Kind::kDrain) cluster_->membership().MarkMemoryDead(subject);
  for (auto& state : range_states_) {
    state.store(static_cast<uint8_t>(RangeState::kNew),
                std::memory_order_release);
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    switch (kind) {
      case Kind::kJoin: ++stats_.joins; break;
      case Kind::kDrain: ++stats_.drains; break;
    }
    stats_.last_cutover_ns = NowNanos() - cutover_start_ns;
  }

  // At or after the publish a crash rolls *forward*: the new ring is the
  // truth, only cleanup is skipped (the fence guard still releases).
  const bool abandoned =
      InjectorMaybeCrash(ReconfigCrashPoint::kAfterCutover);
  fence.Release();
  if (kind == Kind::kDrain && !abandoned) {
    // The drained server leaves the ring with its (now unreachable) data
    // wiped — back to the standby pool.
    cluster_->WipeMemoryNode(subject);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.last_migration_ns = NowNanos() - start_ns;
  }
  return Status::OK();
}

}  // namespace cluster
}  // namespace pandora
