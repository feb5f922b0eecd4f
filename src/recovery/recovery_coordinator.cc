#include "recovery/recovery_coordinator.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "store/object_header.h"
#include "store/remote_object.h"

namespace pandora {
namespace recovery {

void RecoveryStats::Add(const RecoveryStats& other) {
  log_bytes_read += other.log_bytes_read;
  logged_txns += other.logged_txns;
  lock_intents += other.lock_intents;
  rolled_forward += other.rolled_forward;
  rolled_back += other.rolled_back;
  torn_records += other.torn_records;
  locks_released += other.locks_released;
  objects_restored += other.objects_restored;
  slots_scanned += other.slots_scanned;
  doorbells += other.doorbells;
  log_recovery_ns += other.log_recovery_ns;
  scan_ns += other.scan_ns;
}

RecoveryCoordinator::RecoveryCoordinator(cluster::Cluster* cluster)
    : cluster_(cluster) {
  // The RC runs on the service node; its QPs are set up on the control
  // path like any other connection.
  // Standbys included: a live join can admit them to the ring at any
  // time, and recovery must be able to read their logs and regions.
  const rdma::NodeId self = cluster->service_node_id();
  qps_.resize(cluster->total_memory_nodes());
  for (uint32_t m = 0; m < cluster->total_memory_nodes(); ++m) {
    qps_[m] = cluster->fabric().CreateQueuePair(
        self, cluster->memory_node_id(m));
  }
}

uint32_t RecoveryCoordinator::ProbeBytes() const {
  return std::min(kLogProbeBytes,
                  cluster_->catalog().log_layout().config().slot_bytes);
}

uint32_t RecoveryCoordinator::CoordinatorsPerWindow() const {
  const uint64_t per_coordinator =
      static_cast<uint64_t>(
          cluster_->catalog().log_layout().config().slots_per_coordinator) *
      ProbeBytes() * cluster_->total_memory_nodes();
  return static_cast<uint32_t>(
      std::max<uint64_t>(1, kLogReadBufferBytes / per_coordinator));
}

Status RecoveryCoordinator::RecoverLogs(
    const std::vector<uint16_t>& coord_ids, RecoveryStats* stats) {
  const uint64_t start = NowNanos();
  const size_t per_window = CoordinatorsPerWindow();
  const std::span<const uint16_t> ids(coord_ids);
  for (size_t first = 0; first < ids.size(); first += per_window) {
    PANDORA_RETURN_NOT_OK(RecoverWindow(
        ids.subspan(first, std::min(per_window, ids.size() - first)),
        stats));
  }
  stats->log_recovery_ns += NowNanos() - start;
  return Status::OK();
}

Status RecoveryCoordinator::FinishRound(RecoveryStats* stats) {
  if (!group_.empty()) stats->doorbells++;
  PANDORA_RETURN_NOT_OK(group_.Execute());
  return MaybeFault();
}

Status RecoveryCoordinator::ReadLogs(std::span<const uint16_t> coord_ids,
                                     const std::vector<rdma::NodeId>& servers,
                                     RecoveryStats* stats) {
  const store::LogLayout& layout = cluster_->catalog().log_layout();
  const uint32_t slot_bytes = layout.config().slot_bytes;
  const uint32_t probe = ProbeBytes();
  const size_t num_areas = coord_ids.size() * servers.size();
  images_.clear();
  next_slot_.assign(num_areas, 1);

  // Round 1 — log probes (§3.2.2 "F+1 Log Reads", over the dense log):
  // the first `probe` bytes of slot 0 of each coordinator's area on every
  // live server. Every transaction starts at slot 0, so its header tells
  // the record's length and how many slots the transaction spans there;
  // most records fit the probe and span one slot, and then this is the
  // only log round. Otherwise each round reads what the last one's images
  // call for (PlanReads), until none calls for more.
  std::vector<AreaRead> reads;
  std::vector<TailRead> tails;
  for (size_t area = 0; area < num_areas; ++area) {
    reads.push_back({area, 0, 1, false});
  }
  for (size_t round = 0; !reads.empty() || !tails.empty(); ++round) {
    size_t bytes = tails.size() * slot_bytes;
    for (const AreaRead& read : reads) {
      bytes += static_cast<size_t>(read.count) *
               (read.whole ? slot_bytes : probe);
    }
    if (log_bufs_.size() == round) log_bufs_.emplace_back();
    log_bufs_[round].resize(bytes);
    char* next = log_bufs_[round].data();
    std::vector<size_t> fresh;  // The images this round fills.
    // A tail lands behind a copy of its record's probe in a slot-sized
    // image, so ParseLogRecord checks the whole record's checksum and
    // torn-write detection is unchanged.
    for (const TailRead& tail : tails) {
      SlotImage& image = images_[tail.image];
      std::memcpy(next, image.image, probe);
      image.image = next;
      image.whole = true;
      const rdma::NodeId server = servers[image.area % servers.size()];
      group_.Read(qp(server), cluster_->catalog().log_rkey(server),
                  layout.SlotOffset(coord_ids[image.area / servers.size()],
                                    image.slot) +
                      probe,
                  next + probe, tail.bytes - probe);
      stats->log_bytes_read += tail.bytes - probe;
      fresh.push_back(tail.image);
      next += slot_bytes;
    }
    for (const AreaRead& read : reads) {
      const uint16_t id = coord_ids[read.area / servers.size()];
      const rdma::NodeId server = servers[read.area % servers.size()];
      const uint32_t image_bytes = read.whole ? slot_bytes : probe;
      if (read.whole) {
        group_.Read(qp(server), cluster_->catalog().log_rkey(server),
                    layout.SlotOffset(id, read.slot), next,
                    static_cast<size_t>(read.count) * slot_bytes);
      }
      for (uint32_t k = 0; k < read.count; ++k) {
        if (!read.whole) {
          group_.Read(qp(server), cluster_->catalog().log_rkey(server),
                      layout.SlotOffset(id, read.slot + k), next, probe);
        }
        fresh.push_back(images_.size());
        images_.push_back({read.area, read.slot + k, next, read.whole});
        next += image_bytes;
      }
      stats->log_bytes_read += static_cast<size_t>(read.count) * image_bytes;
    }
    PANDORA_RETURN_NOT_OK(FinishRound(stats));
    reads.clear();
    tails.clear();
    for (const size_t image : fresh) PlanReads(image, &reads, &tails);
  }
  return Status::OK();
}

void RecoveryCoordinator::PlanReads(size_t index, std::vector<AreaRead>* reads,
                                    std::vector<TailRead>* tails) {
  const uint32_t slot_bytes =
      cluster_->catalog().log_layout().config().slot_bytes;
  const SlotImage& image = images_[index];
  if (!image.whole) {
    const Result<store::LogExtent> header =
        store::LogRecordExtent(image.image, slot_bytes);
    if (header.ok() && header.value().bytes > ProbeBytes()) {
      tails->push_back({index, header.value().bytes});
      // Slot 0's span rides the tail's doorbell before the checksum has
      // vouched for it; a torn record reads the rest of the area once its
      // tail is in.
      if (image.slot == 0) PlanSpan(image.area, header.value().span, reads);
      return;
    }
  }
  if (image.slot != 0) return;
  const Result<store::LogExtent> record =
      store::VerifiedLogRecordExtent(image.image, slot_bytes);
  if (record.ok() && record.value().bytes == 0) return;  // Empty.
  // A torn slot 0 hides its span: read the whole area, as for span 0.
  PlanSpan(image.area, record.ok() ? record.value().span : 0, reads);
}

void RecoveryCoordinator::PlanSpan(size_t area, uint16_t span,
                                   std::vector<AreaRead>* reads) {
  // Slots beyond a known span hold only completed transactions' records
  // (DESIGN.md "Dense per-coordinator log"). An unknown span's slots are
  // probed like slot 0, so reading a whole area costs what a probe of
  // every slot does, plus the long records' tails.
  const uint32_t slots =
      cluster_->catalog().log_layout().config().slots_per_coordinator;
  const uint32_t end = span == 0 ? slots : std::min<uint32_t>(span, slots);
  uint32_t& next = next_slot_[area];
  if (next >= end) return;
  reads->push_back({area, next, end - next, /*whole=*/span > 0});
  next = end;
}

void RecoveryCoordinator::ParseSlot(const char* image, size_t server,
                                    uint32_t slot, CoordinatorLog* log,
                                    RecoveryStats* stats) {
  store::LogRecord record;
  const Status status = store::ParseLogRecord(
      image, cluster_->catalog().log_layout().config().slot_bytes, &record);
  if (status.IsNotFound()) return;  // Empty or truncated slot.
  log->used_slots.push_back({server, slot});
  if (!status.ok()) {
    // Torn write: the coordinator died mid-log-write. The transaction
    // cannot have applied any update (validation completes only after the
    // log write), so ignoring the record is exactly right — its locks are
    // stray and will be stolen / scanned.
    stats->torn_records++;
    return;
  }
  if (record.coord_id != log->coord_id) return;
  // Merge record copies / per-object fragments by transaction id; keep
  // lock intents separate (they are processed last, Cor4-safe).
  for (store::LogEntry& entry : record.entries) {
    if (entry.is_lock_intent) {
      log->intents.push_back(std::move(entry));
      continue;
    }
    std::vector<store::LogEntry>& entries = log->txns[record.txn_id];
    const bool duplicate =
        std::any_of(entries.begin(), entries.end(),
                    [&](const store::LogEntry& e) {
                      return e.table == entry.table && e.key == entry.key;
                    });
    if (!duplicate) entries.push_back(std::move(entry));
  }
}

void RecoveryCoordinator::AddTarget(uint16_t coord_id,
                                    const store::LogEntry* entry,
                                    size_t txn) {
  Target target;
  target.coord_id = coord_id;
  target.entry = entry;
  target.txn = txn;
  target.first_replica = replicas_.size();
  for (const rdma::NodeId node :
       cluster_->ReplicaSetFor(entry->table, entry->key)) {
    if (!cluster_->membership().IsMemoryAlive(node)) continue;
    ReplicaView view;
    view.node = node;
    replicas_.push_back(view);
  }
  target.num_replicas = replicas_.size() - target.first_replica;
  targets_.push_back(target);
}

Status RecoveryCoordinator::ResolveSlots(RecoveryStats* stats) {
  // Cache misses (replica index, key), grouped by table: a batched probe
  // walks one table layout.
  std::map<store::TableId, std::vector<std::pair<size_t, store::Key>>>
      misses;
  for (const Target& target : targets_) {
    const store::LogEntry& entry = *target.entry;
    for (size_t r = target.first_replica;
         r < target.first_replica + target.num_replicas; ++r) {
      ReplicaView& view = replicas_[r];
      if (const auto cached =
              cluster_->addresses().Lookup(entry.table, view.node,
                                           entry.key)) {
        view.slot = *cached;
        view.found = true;
      } else {
        misses[entry.table].push_back({r, entry.key});
      }
    }
  }

  std::vector<store::ProbeRequest> requests;
  std::vector<store::ProbeOutcome> outcomes;
  for (const auto& [table, wanted] : misses) {
    const cluster::TableInfo& info = cluster_->catalog().table(table);
    requests.clear();
    for (const auto& [r, key] : wanted) {
      const rdma::NodeId node = replicas_[r].node;
      requests.push_back({qp(node), info.region_rkeys[node], key});
    }
    uint64_t rounds = 0;
    const Status status = store::FindSlotsByBatchedProbe(
        info.layout, requests, &outcomes, &rounds, &probe_scratch_);
    stats->doorbells += rounds;
    PANDORA_RETURN_NOT_OK(status);
    for (size_t i = 0; i < wanted.size(); ++i) {
      // NotFound: an insert whose slot claim never reached this replica.
      if (outcomes[i].status.IsNotFound()) continue;
      PANDORA_RETURN_NOT_OK(outcomes[i].status);
      ReplicaView& view = replicas_[wanted[i].first];
      view.slot = outcomes[i].state.slot;
      view.found = true;
      cluster_->addresses().InsertOverlay(table, view.node, wanted[i].second,
                                          view.slot);
    }
  }
  return Status::OK();
}

Status RecoveryCoordinator::RecoverWindow(std::span<const uint16_t> coord_ids,
                                          RecoveryStats* stats) {
  const store::LogLayout& layout = cluster_->catalog().log_layout();
  std::vector<rdma::NodeId> servers;
  for (uint32_t m = 0; m < cluster_->total_memory_nodes(); ++m) {
    const rdma::NodeId node = cluster_->memory_node_id(m);
    if (cluster_->membership().IsMemoryAlive(node)) servers.push_back(node);
  }

  // Round 1 (and the conditional log rounds) — log reads.
  PANDORA_RETURN_NOT_OK(ReadLogs(coord_ids, servers, stats));
  std::vector<CoordinatorLog> logs(coord_ids.size());
  for (size_t c = 0; c < coord_ids.size(); ++c) {
    logs[c].coord_id = coord_ids[c];
  }
  for (const SlotImage& image : images_) {
    ParseSlot(image.image, image.area % servers.size(), image.slot,
              &logs[image.area / servers.size()], stats);
  }
  for (const CoordinatorLog& log : logs) {
    stats->logged_txns += log.txns.size();
    stats->lock_intents += log.intents.size();
  }

  // The objects to repair. Per coordinator, logged transactions go in
  // *descending* order with a per-object handled set: a coordinator's
  // transactions are sequential, so only the latest logged transaction
  // touching an object can be responsible for its current lock/state —
  // records of earlier (necessarily completed) transactions must not
  // re-release a lock the latest transaction still holds. Lock intents
  // (traditional scheme) skip objects a logged transaction covers; the
  // conditional CAS makes stale intents no-ops.
  targets_.clear();
  replicas_.clear();
  std::vector<bool> roll_forward;  // Per transaction with targets.
  for (const CoordinatorLog& log : logs) {
    std::set<std::pair<store::TableId, store::Key>> handled;
    for (auto it = log.txns.rbegin(); it != log.txns.rend(); ++it) {
      const size_t before = targets_.size();
      for (const store::LogEntry& entry : it->second) {
        if (handled.insert({entry.table, entry.key}).second) {
          AddTarget(log.coord_id, &entry, roll_forward.size());
        }
      }
      if (targets_.size() > before) roll_forward.push_back(true);
    }
    for (const store::LogEntry& intent : log.intents) {
      if (handled.count({intent.table, intent.key})) continue;
      AddTarget(log.coord_id, &intent, Target::kIntent);
    }
  }
  PANDORA_RETURN_NOT_OK(ResolveSlots(stats));

  // Round 2 — decision (§3.2.2): roll forward iff every replica of every
  // write-set object carries a post-commit version; otherwise roll back.
  // Sound because the client commit-ack is sent only after all replicas
  // are updated (Cor3), and versions only grow. One version snapshot
  // decides the whole window: a restore could flip another transaction's
  // decision only if both logged the same (object, old version), which
  // the lock discipline rules out (DESIGN.md).
  for (const Target& target : targets_) {
    if (target.txn == Target::kIntent) continue;
    const cluster::TableInfo& info =
        cluster_->catalog().table(target.entry->table);
    for (ReplicaView& view : ReplicasOf(target)) {
      if (!view.found) continue;
      group_.Read(qp(view.node), info.region_rkeys[view.node],
                  info.layout.VersionOffset(view.slot), &view.version_word,
                  sizeof(view.version_word));
    }
  }
  PANDORA_RETURN_NOT_OK(FinishRound(stats));
  for (const Target& target : targets_) {
    if (target.txn == Target::kIntent) continue;
    const uint64_t old_version = store::VersionOf(target.entry->old_version);
    for (const ReplicaView& view : ReplicasOf(target)) {
      // Not found: an insert whose slot claim never reached this replica.
      if (!view.found || store::VersionOf(view.version_word) == old_version) {
        roll_forward[target.txn] = false;
      }
    }
  }
  for (const bool forward : roll_forward) {
    forward ? stats->rolled_forward++ : stats->rolled_back++;
  }

  // Round 3 — roll back: restore the undo image on every replica carrying
  // the failed coordinator's own update (exactly old+1). Under joint
  // compute+memory failures a promoted backup may already carry a later
  // committed version; that state must be preserved. Value restores are
  // safe while the primary lock is still held by the dead (and
  // link-terminated) coordinator, and idempotent if re-executed.
  std::vector<std::vector<char>> images;
  for (const Target& target : targets_) {
    if (target.txn == Target::kIntent || roll_forward[target.txn]) continue;
    const store::LogEntry& entry = *target.entry;
    const cluster::TableInfo& info = cluster_->catalog().table(entry.table);
    for (const ReplicaView& view : ReplicasOf(target)) {
      if (!view.found || store::VersionOf(view.version_word) !=
                             store::VersionOf(entry.old_version) + 1) {
        continue;
      }
      std::vector<char>& buf =
          images.emplace_back(16 + info.layout.padded_value_size(), 0);
      EncodeFixed64(buf.data(), entry.old_version);
      EncodeFixed64(buf.data() + 8, entry.key);
      if (!entry.old_value.empty()) {
        std::memcpy(buf.data() + 16, entry.old_value.data(),
                    std::min<size_t>(entry.old_value.size(),
                                     buf.size() - 16));
      }
      // For inserts old_version is 0, which makes the slot invisible
      // again (the key claim itself is left in place; harmless).
      group_.Write(qp(view.node), info.region_rkeys[view.node],
                   info.layout.VersionOffset(view.slot), buf.data(),
                   buf.size());
      stats->objects_restored++;
    }
  }
  PANDORA_RETURN_NOT_OK(FinishRound(stats));

  // Round 4 — release every named lock on every alive replica, with a CAS
  // conditional on the failed coordinator still owning it (a transaction
  // that already unlocked makes it a no-op). A separate doorbell from the
  // restores, so no lock is released before every restore has landed.
  for (const Target& target : targets_) {
    const cluster::TableInfo& info =
        cluster_->catalog().table(target.entry->table);
    for (ReplicaView& view : ReplicasOf(target)) {
      if (!view.found) continue;
      group_.CompareSwap(qp(view.node), info.region_rkeys[view.node],
                         info.layout.LockOffset(view.slot),
                         store::MakeLock(target.coord_id), store::kUnlocked,
                         &view.observed_lock);
    }
  }
  PANDORA_RETURN_NOT_OK(FinishRound(stats));
  for (const Target& target : targets_) {
    const store::LockWord theirs = store::MakeLock(target.coord_id);
    for (const ReplicaView& view : ReplicasOf(target)) {
      if (view.found && view.observed_lock == theirs) stats->locks_released++;
    }
  }

  // Round 5 — idempotent truncation (§3.2.3) before the stray-lock
  // notification. The invalid marker is the empty slot's magic word, so
  // only the slots the log reads found non-empty (torn ones included)
  // need it: the fenced coordinators cannot have written since. Slot 0
  // goes last on each queue pair, so an RC that dies mid-doorbell never
  // leaves slot 0 empty in front of a record its successor must still
  // read and truncate.
  const uint64_t marker = store::InvalidRecordMarker();
  for (const bool slot0 : {false, true}) {
    for (const CoordinatorLog& log : logs) {
      for (const auto& [s, slot] : log.used_slots) {
        if ((slot == 0) != slot0) continue;
        group_.Write(qp(servers[s]), cluster_->catalog().log_rkey(servers[s]),
                     layout.SlotOffset(log.coord_id, slot), &marker,
                     sizeof(marker));
      }
    }
  }
  return FinishRound(stats);
}

Status RecoveryCoordinator::ScanAndReleaseStrayLocks(
    const std::vector<uint16_t>& failed_ids, RecoveryStats* stats) {
  const uint64_t start = NowNanos();
  for (size_t t = 0; t < cluster_->catalog().num_tables(); ++t) {
    const cluster::TableInfo& info =
        cluster_->catalog().table(static_cast<store::TableId>(t));
    const store::TableLayout& layout = info.layout;
    const uint64_t slot_size = layout.slot_size();
    // Chunked one-sided reads over the whole region (this is the
    // multi-second blocking path PILL exists to avoid, §3.1.1).
    const uint64_t slots_per_chunk = std::max<uint64_t>(
        1, (1u << 20) / slot_size);
    std::vector<char> chunk(slots_per_chunk * slot_size);

    for (uint32_t m = 0; m < cluster_->total_memory_nodes(); ++m) {
      const rdma::NodeId node = cluster_->memory_node_id(m);
      if (!cluster_->membership().IsMemoryAlive(node)) continue;
      for (uint64_t base = 0; base < layout.capacity();
           base += slots_per_chunk) {
        const uint64_t count =
            std::min(slots_per_chunk, layout.capacity() - base);
        PANDORA_RETURN_NOT_OK(
            qp(node)->Read(info.region_rkeys[node],
                           layout.SlotOffset(base), chunk.data(),
                           count * slot_size));
        if (scan_throttle_ns_per_slot_ > 0) {
          SpinForNanos(count * scan_throttle_ns_per_slot_);
        }
        for (uint64_t s = 0; s < count; ++s) {
          stats->slots_scanned++;
          const store::LockWord lock =
              DecodeFixed64(chunk.data() + s * slot_size);
          if (!store::LockHeld(lock)) continue;
          const uint16_t owner = store::LockOwner(lock);
          if (std::find(failed_ids.begin(), failed_ids.end(), owner) ==
              failed_ids.end()) {
            continue;
          }
          uint64_t observed = 0;
          PANDORA_RETURN_NOT_OK(qp(node)->CompareSwap(
              info.region_rkeys[node], layout.LockOffset(base + s), lock,
              store::kUnlocked, &observed));
          if (observed == lock) stats->locks_released++;
        }
      }
    }
  }
  stats->scan_ns += NowNanos() - start;
  return Status::OK();
}

}  // namespace recovery
}  // namespace pandora
