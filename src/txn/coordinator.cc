#include "txn/coordinator.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/checksum.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "store/remote_object.h"

namespace pandora {
namespace txn {

namespace {

// Stable-address source for unlock writes (the lock word's unlocked value).
const uint64_t kUnlockedWord = store::kUnlocked;

// Landing buffer of the NVM selective-flush reads (§7): reading any byte
// of a server's log region drains the RNIC cache for the writes posted
// before it on the same connection (FORD's selective flush).
alignas(8) thread_local uint64_t flush_sink = 0;

// How long to wait for the failure detector's verdict about an unreachable
// memory server before giving up.
constexpr uint64_t kMemoryVerdictTimeoutUs = 100'000;

// Poll interval of the §6.4 stalling path (TxnConfig::stall_on_conflict)
// while an object awaits recovery.
constexpr uint64_t kStallRetryIntervalUs = 5;

// Backoff after a reconfiguration abort: the next Begin sleeps
// min(max, base << level) microseconds; a successful commit resets the
// level.
constexpr uint64_t kReconfigBackoffBaseUs = 20;
constexpr uint64_t kReconfigBackoffMaxUs = 2000;

}  // namespace

Coordinator::Coordinator(cluster::Cluster* cluster,
                         cluster::ComputeServer* server, uint16_t coord_id,
                         const TxnConfig& config, SystemGate* gate)
    : cluster_(cluster),
      server_(server),
      locator_(cluster),
      coord_id_(coord_id),
      config_(config),
      gate_(gate),
      log_writer_(cluster, server, coord_id) {
  // A transaction can touch at most every memory server; reserving here
  // keeps TouchedReplicaServers() allocation-free per commit.
  touched_servers_.reserve(cluster->total_memory_nodes());
}

Status Coordinator::MaybeCrash(CrashPoint point) {
  if (crash_hook_ != nullptr && crash_hook_->MaybeCrash(point)) {
    PANDORA_LOG(kDebug) << "coordinator " << coord_id_
                        << " crash injected at " << CrashPointName(point);
    cluster_->fabric().HaltNode(server_->node());
    return Status::Unavailable("injected crash");
  }
  return Status::OK();
}

Status Coordinator::FinalizeIfCrashed(Status status) {
  // A coordinator whose node died mid-operation abandons the transaction
  // exactly as a real process death would: memory keeps the partial state
  // for recovery to repair, and only local bookkeeping (including the
  // system-gate registration) is torn down. A fenced node (PermissionDenied
  // after active-link termination, possibly a failure-detector false
  // positive) is logically dead too: its verbs are dropped at the memory
  // side and its in-flight work is recovered like any crash; the process
  // must rejoin with fresh coordinator-ids.
  const bool dead = (status.IsUnavailable() && server_->halted()) ||
                    status.IsPermissionDenied();
  if (dead && in_txn_) {
    stats_.crashed++;
    FinishTxn();
    return status;
  }
  if (status.IsUnavailable() && in_txn_) {
    // Unavailable without a self-crash: a memory server died under an
    // operation that could not fail over in place. §3.2.5's rule for
    // in-flight transactions is to abort the ones that cannot complete;
    // the abort path skips dead replicas, so the coordinator stays
    // usable for the next transaction.
    const Status abort_status = AbortInternal();
    if (abort_status.IsUnavailable() || abort_status.IsPermissionDenied()) {
      stats_.crashed++;
      if (in_txn_) FinishTxn();
      return abort_status;
    }
    return Status::Aborted("memory failure during transaction");
  }
  return status;
}

Status Coordinator::Begin() {
  if (in_txn_) return Status::InvalidArgument("transaction already open");
  if (server_->halted()) return Status::Unavailable("compute node halted");
  // Backoff armed by a reconfig abort: sleep *before* registering with the
  // gate, so a backing-off coordinator never delays a cutover quiesce.
  ReconfigBackoff();
  // Memory-failure reconfiguration barrier (§3.2.5).
  while (cluster_->membership().reconfiguring()) {
    if (server_->halted()) return Status::Unavailable("compute node halted");
    SleepForMicros(50);
  }
  if (gate_ != nullptr && !gate_->EnterTxn(server_->halted_flag())) {
    return Status::Unavailable("compute node halted");
  }
  begin_ring_epoch_ = cluster_->ring().epoch();
  in_txn_ = true;
  txn_id_ = (static_cast<uint64_t>(coord_id_) << 32) | next_txn_seq_++;
  write_set_.clear();
  read_set_.clear();
  log_writer_.ResetForNewTxn();
  return Status::OK();
}

void Coordinator::FinishTxn() {
  in_txn_ = false;
  write_set_.clear();
  read_set_.clear();
  if (gate_ != nullptr) gate_->ExitTxn();
}

bool Coordinator::RingEpochChanged(bool refresh) {
  const uint64_t current = cluster_->ring().epoch();
  if (current == begin_ring_epoch_) return false;
  if (refresh) begin_ring_epoch_ = current;
  return true;
}

void Coordinator::ReconfigBackoff() {
  if (reconfig_backoff_level_ == 0) return;
  const uint32_t shift = std::min<uint32_t>(reconfig_backoff_level_ - 1, 10);
  const uint64_t us = std::min<uint64_t>(
      kReconfigBackoffMaxUs, kReconfigBackoffBaseUs << shift);
  stats_.reconfig_retries++;
  SleepForMicros(us);
}

Coordinator::WriteOp* Coordinator::WriteSet::Find(store::TableId table,
                                                  store::Key key) {
  for (WriteOp& op : *this) {
    if (op.key == key && op.table == table) return &op;
  }
  return nullptr;
}

Coordinator::WriteOp* Coordinator::WriteSet::Prepare(store::TableId table,
                                                     store::Key key,
                                                     size_t value_bytes) {
  if (size_ == ops_.size()) ops_.emplace_back();
  WriteOp& op = ops_[size_];
  // Every field back to its default; the buffers keep their capacity.
  std::vector<char> new_value = std::move(op.new_value);
  std::vector<char> old_value = std::move(op.old_value);
  std::vector<std::pair<rdma::NodeId, uint32_t>> log_slots =
      std::move(op.log_slots);
  op = WriteOp{};
  op.table = table;
  op.key = key;
  op.new_value = std::move(new_value);
  op.new_value.assign(value_bytes, 0);
  op.old_value = std::move(old_value);
  op.old_value.clear();
  op.log_slots = std::move(log_slots);
  op.log_slots.clear();
  return &op;
}

bool Coordinator::StallDeadlineOpen(uint64_t* deadline_us) const {
  const uint64_t now = NowMicros();
  if (*deadline_us == 0) *deadline_us = now + config_.stall_timeout_us;
  return now < *deadline_us;
}

cluster::Locator::Entry& Coordinator::Locate(store::TableId table,
                                             store::Key key) {
  bool hit = false;
  cluster::Locator::Entry& entry = locator_.Locate(table, key, &hit);
  ++(hit ? stats_.placement_hits : stats_.placement_misses);
  return entry;
}

uint32_t Coordinator::PrimaryIndex(const cluster::ReplicaSet& replicas) const {
  uint32_t i = 0;
  while (i < replicas.size() &&
         !cluster_->membership().IsMemoryAlive(replicas[i])) {
    ++i;
  }
  return i;
}

Status Coordinator::ResolveSlot(cluster::Locator::Entry& entry, uint32_t i,
                                bool claim_for_insert, uint64_t* slot,
                                bool* existed, uint64_t* rtt_counter) {
  if (const auto known = locator_.SlotOn(entry, i)) {
    *slot = *known;
    *existed = true;
    return Status::OK();
  }
  const store::TableId table = entry.table;
  const store::Key key = entry.key;
  const rdma::NodeId node = entry.replicas[i];
  const cluster::TableInfo& info = cluster_->catalog().table(table);
  rdma::QueuePair* qp = server_->qp(node);
  store::SlotState state;
  uint64_t probe_rtts = 0;
  Status status;
  if (claim_for_insert) {
    bool was_there = false;
    status = store::FindOrClaimSlot(qp, info.region_rkeys[node],
                                    info.layout, key, &state, &was_there,
                                    &probe_rtts);
    *existed = was_there;
  } else {
    status = store::FindSlotByProbe(qp, info.region_rkeys[node],
                                    info.layout, key, &state, &probe_rtts);
    if (status.IsNotFound()) *existed = false;
    if (status.ok()) *existed = true;
  }
  CountRtts(rtt_counter, probe_rtts);
  if (status.IsNotFound() && !claim_for_insert) return Status::OK();
  PANDORA_RETURN_NOT_OK(status);
  *slot = state.slot;
  locator_.Learn(table, key, node, state.slot);
  return Status::OK();
}

Status Coordinator::ResolvePlacement(WriteOp* op) {
  cluster::Locator::Entry& entry = Locate(op->table, op->key);
  op->replicas = entry.replicas;
  op->slots.fill(std::numeric_limits<uint64_t>::max());
  op->lock_node = rdma::kInvalidNodeId;
  for (uint32_t i = 0; i < op->replicas.size(); ++i) {
    const rdma::NodeId node = op->replicas[i];
    if (!cluster_->membership().IsMemoryAlive(node)) continue;
    bool existed = false;
    uint64_t slot = 0;
    PANDORA_RETURN_NOT_OK(ResolveSlot(entry, i, op->is_insert, &slot,
                                      &existed, &stats_.execution_rtts));
    if (!existed && !op->is_insert) {
      return Status::NotFound("key absent");
    }
    op->slots[i] = slot;
    if (op->lock_node == rdma::kInvalidNodeId) {
      // First alive replica = current primary; locks live there.
      op->lock_node = node;
      op->lock_slot = slot;
    }
  }
  if (op->lock_node == rdma::kInvalidNodeId) {
    return Status::Internal("all replicas of object lost (> f failures)");
  }
  return Status::OK();
}

Status Coordinator::FetchUndoImage(WriteOp* op) {
  const cluster::TableInfo& info = cluster_->catalog().table(op->table);
  const store::TableLayout& layout = info.layout;
  const size_t len = 16 + layout.padded_value_size();
  fetch_buf_.resize(len);
  CountRtts(&stats_.execution_rtts, 1);
  PANDORA_RETURN_NOT_OK(server_->qp(op->lock_node)
                            ->Read(info.region_rkeys[op->lock_node],
                                   layout.VersionOffset(op->lock_slot),
                                   fetch_buf_.data(), len));
  op->old_version = DecodeFixed64(fetch_buf_.data());
  op->old_value.assign(fetch_buf_.begin() + 16, fetch_buf_.begin() + len);
  return Status::OK();
}

Status Coordinator::TryLock(WriteOp* op, uint64_t expected,
                            uint64_t* observed, bool* won) {
  const cluster::TableInfo& info = cluster_->catalog().table(op->table);
  const store::TableLayout& layout = info.layout;
  const rdma::RKey rkey = info.region_rkeys[op->lock_node];
  const uint64_t lock_offset = layout.LockOffset(op->lock_slot);
  const store::LockWord mine = store::MakeLock(coord_id_);
  *won = false;
  bool fetched = false;
  CountRtts(&stats_.execution_rtts, 1);
  if (config_.pipeline_execution) {
    // §3.1.1: lock CAS + speculative undo-image read, one doorbell, one
    // round trip. RC in-order delivery makes the read observe the post-CAS
    // state; if the CAS loses, the read is discarded. A log rider already
    // in the group rings with them under the same wait.
    const size_t len = 16 + layout.padded_value_size();
    fetch_buf_.resize(len);
    rdma::QueuePair* qp = server_->qp(op->lock_node);
    group_.CompareSwap(qp, rkey, lock_offset, expected, mine, observed);
    group_.Read(qp, rkey, layout.VersionOffset(op->lock_slot),
                fetch_buf_.data(), len);
    PANDORA_RETURN_NOT_OK(group_.Execute());
    fetched = *observed == expected;
    if (fetched) {
      op->old_version = DecodeFixed64(fetch_buf_.data());
      op->old_value.assign(fetch_buf_.begin() + 16, fetch_buf_.begin() + len);
    }
  } else {
    PANDORA_RETURN_NOT_OK(server_->qp(op->lock_node)
                              ->CompareSwap(rkey, lock_offset, expected,
                                            mine, observed));
  }
  if (*observed != expected) return Status::OK();
  *won = true;
  if (expected != store::kUnlocked) stats_.locks_stolen++;
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterLock));
  op->locked = true;
  if (!fetched) PANDORA_RETURN_NOT_OK(FetchUndoImage(op));
  return MaybeCrash(CrashPoint::kAfterLockFetch);
}

Status Coordinator::LockAndFetch(WriteOp* op) {
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kBeforeLock));
  uint64_t stall_deadline_us = 0;

  while (true) {
    // Reconfiguration epoch fence: a ring cutover since Begin means this
    // op's resolved placement may point into a moved range. With locks
    // already held the transaction aborts cheaply (the abort path releases
    // them wherever they were taken); before the first lock it simply
    // re-resolves against the new ring and proceeds.
    if (config_.reconfig_fence && RingEpochChanged(/*refresh=*/false)) {
      bool any_locked = false;
      for (const WriteOp& w : write_set_) any_locked |= w.locked;
      if (any_locked) {
        stats_.reconfig_aborts++;
        if (reconfig_backoff_level_ < 16) reconfig_backoff_level_++;
        return Status::Busy("placement epoch changed by reconfiguration");
      }
      stats_.reconfig_retries++;
      RingEpochChanged(/*refresh=*/true);
      PANDORA_RETURN_NOT_OK(ResolvePlacement(op));
    }
    uint64_t observed = 0;
    bool won = false;
    const Status status = TryLock(op, store::kUnlocked, &observed, &won);
    if (won) return status;
    if (status.IsUnavailable() && !server_->halted()) {
      // Primary died under us: fail over to the next alive replica.
      PANDORA_RETURN_NOT_OK(ResolveApplyFailure(op->lock_node));
      PANDORA_RETURN_NOT_OK(ResolvePlacement(op));
      continue;
    }
    PANDORA_RETURN_NOT_OK(status);

    const uint16_t owner = store::LockOwner(observed);
    if (server_->failed_ids().Test(owner)) {
      if (config_.pill_enabled()) {
        // PILL (§3.1.2): the lock is stray — its owner has failed and its
        // transaction was never logged (stray-lock notification is sent
        // only after log recovery). Steal it with one more attempt.
        uint64_t steal_observed = 0;
        const Status steal = TryLock(op, observed, &steal_observed, &won);
        if (won || !steal.ok()) return steal;
        continue;  // Someone else stole or released it first; retry.
      }
      // No PILL: the object needs recovery. §6.4's stalling path waits
      // out the recovery (scan / intent processing) instead of aborting.
      // Stalling only on *recovery-pending* locks (never on live owners)
      // cannot deadlock live transactions against each other.
      stats_.lock_conflicts++;
      if (config_.stall_on_conflict &&
          StallDeadlineOpen(&stall_deadline_us) &&
          (gate_ == nullptr || !gate_->blocked())) {
        stats_.stall_retries++;
        SleepForMicros(kStallRetryIntervalUs);
        continue;
      }
      return Status::Busy("object awaiting recovery");
    }

    stats_.lock_conflicts++;
    return Status::Busy("object locked by live transaction");
  }
}

Status Coordinator::WriteLockIntent(const WriteOp& op) {
  store::LogRecord record;
  record.txn_id = txn_id_;
  record.coord_id = coord_id_;
  store::LogEntry entry;
  entry.table = op.table;
  entry.key = op.key;
  entry.is_lock_intent = true;
  record.entries.push_back(std::move(entry));

  // Intents are never invalidated (a stale one is a no-op CAS), so their
  // slots need no tracking.
  std::vector<std::pair<rdma::NodeId, uint32_t>> slots;
  PANDORA_RETURN_NOT_OK(log_writer_.PostIncrementalRecord(
      record, log_writer_.log_servers(), &group_, &slots));
  stats_.log_records_written++;
  CountRtts(&stats_.execution_rtts, 1);
  return group_.Execute();
}

Status Coordinator::PostPerObjectLog(WriteOp* op) {
  store::LogRecord record;
  record.txn_id = txn_id_;
  record.coord_id = coord_id_;
  store::LogEntry entry;
  entry.table = op->table;
  entry.key = op->key;
  entry.old_version = op->old_version;
  entry.is_insert = op->is_insert;
  entry.is_delete = op->is_delete;
  if (!op->is_insert) entry.old_value = op->old_value;
  record.entries.push_back(std::move(entry));

  PANDORA_RETURN_NOT_OK(log_writer_.PostIncrementalRecord(
      record, op->replicas, &group_, &op->log_slots));
  stats_.log_records_written++;
  return Status::OK();
}

Status Coordinator::WritePerObjectLog(WriteOp* op) {
  if (config_.disable_recovery_logging) return Status::OK();
  if (op->is_insert && config_.bugs.missing_insert_logging) {
    stats_.bug_injections++;
    return Status::OK();  // FORD bug: inserts never logged.
  }
  PANDORA_RETURN_NOT_OK(PostPerObjectLog(op));
  const Status crash = MaybeCrash(CrashPoint::kBeforeLogWrite);
  if (!crash.ok()) {
    group_.Reset();
    return crash;
  }
  CountRtts(&stats_.execution_rtts, 1);
  PANDORA_RETURN_NOT_OK(group_.Execute());
  return MaybeCrash(CrashPoint::kAfterLogWrite);
}

Status Coordinator::AbortIfLogFull(Status status) {
  if (!status.IsResourceExhausted()) return status;
  const Status abort_status = AbortInternal();
  if (abort_status.IsUnavailable()) return abort_status;
  return Status::Aborted(status);
}

Status Coordinator::StageWrite(WriteOp* op) {
  PANDORA_RETURN_NOT_OK(ResolvePlacement(op));

  // Baseline records take one slot each on their servers; a transaction
  // that fills a server's log area aborts (AbortIfLogFull).
  if (config_.mode == ProtocolMode::kTraditionalLogging) {
    // §6.1: lock-intent logged *before* the lock CAS — the extra round
    // trip that lets recovery release stray locks without scanning.
    PANDORA_RETURN_NOT_OK(AbortIfLogFull(WriteLockIntent(*op)));
  }

  if (config_.bugs.relaxed_locks) {
    // FORD bug: defer the lock to commit time, where it overlaps
    // validation. Prefetch the undo image without holding the lock.
    stats_.bug_injections++;
    PANDORA_RETURN_NOT_OK(FetchUndoImageUnlocked(op));
    write_set_.Append();
    return Status::OK();
  }

  const bool log_before_lock = config_.bugs.logging_without_locking &&
                               config_.mode != ProtocolMode::kPandora;
  if (log_before_lock) {
    // FORD bug: undo record written before the lock is grabbed, with a
    // pre-lock value image.
    stats_.bug_injections++;
    PANDORA_RETURN_NOT_OK(FetchUndoImageUnlocked(op));
    if (config_.pipeline_execution && !config_.disable_recovery_logging &&
        !(op->is_insert && config_.bugs.missing_insert_logging)) {
      // The record's content is already known here (pre-lock image), so
      // its writes can ride the lock CAS + read doorbell group instead of
      // costing a round trip of their own. The normal (fixed) FORD path
      // cannot coalesce this way: its record carries the post-lock image
      // the chain is about to fetch.
      PANDORA_RETURN_NOT_OK(AbortIfLogFull(PostPerObjectLog(op)));
    } else {
      PANDORA_RETURN_NOT_OK(AbortIfLogFull(WritePerObjectLog(op)));
    }
  }

  // Stage before locking so the abort path sees this op (the Complicit
  // Aborts bug releases locks of ops that never acquired them).
  write_set_.Append();

  Status status = LockAndFetch(op);
  // A return before the first lock attempt (a crash at kBeforeLock, a
  // fence, a failed re-resolve) leaves a log rider posted but unrung.
  group_.Reset();
  if (status.IsBusy()) {
    Status abort_status = AbortInternal();
    if (abort_status.IsUnavailable()) return abort_status;
    return Status::Aborted("lock conflict");
  }
  PANDORA_RETURN_NOT_OK(status);

  if (config_.mode != ProtocolMode::kPandora && !log_before_lock) {
    // FORD writes the per-object undo record during execution, after
    // lock + read (lock-to-log order holds per object).
    PANDORA_RETURN_NOT_OK(AbortIfLogFull(WritePerObjectLog(op)));
  }
  return Status::OK();
}

Status Coordinator::FetchUndoImageUnlocked(WriteOp* op) {
  const rdma::NodeId saved = op->lock_node;
  PANDORA_RETURN_NOT_OK(FetchUndoImage(op));
  op->lock_node = saved;
  return Status::OK();
}

Status Coordinator::Read(store::TableId table, store::Key key,
                         std::string* value) {
  return FinalizeIfCrashed(ReadInternal(table, key, value));
}

Status Coordinator::ReadInternal(store::TableId table, store::Key key,
                                 std::string* value) {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  const cluster::TableInfo& info = cluster_->catalog().table(table);

  // Read-your-writes.
  if (const WriteOp* op = write_set_.Find(table, key)) {
    if (op->is_delete) return Status::NotFound("deleted in this txn");
    value->assign(op->new_value.data(), info.spec.value_size);
    return Status::OK();
  }

  uint64_t stall_deadline_us = 0;
  while (true) {
    cluster::Locator::Entry& entry = Locate(table, key);
    const uint32_t primary = PrimaryIndex(entry.replicas);
    if (primary == entry.replicas.size()) {
      return Status::Internal("all replicas of object lost (> f failures)");
    }
    const rdma::NodeId node = entry.replicas[primary];
    uint64_t slot = 0;
    bool existed = false;
    PANDORA_RETURN_NOT_OK(
        ResolveSlot(entry, primary, /*claim_for_insert=*/false, &slot,
                    &existed, &stats_.execution_rtts));
    if (!existed) return Status::NotFound("key absent");

    const store::TableLayout& layout = info.layout;
    const size_t len = store::SlotReadSize(layout);
    read_buf_.resize(len);
    char* buf = read_buf_.data();
    CountRtts(&stats_.execution_rtts, 1);
    const Status status =
        server_->qp(node)->Read(info.region_rkeys[node],
                                layout.LockOffset(slot), buf, len);
    if (status.IsUnavailable()) {
      if (server_->halted()) return status;
      PANDORA_RETURN_NOT_OK(ResolveApplyFailure(node));
      continue;  // Primary died; re-resolve.
    }
    PANDORA_RETURN_NOT_OK(status);

    const store::LockWord lock = DecodeFixed64(buf);
    const store::VersionWord version = DecodeFixed64(buf + 8);
    if (store::LockHeld(lock) && store::LockOwner(lock) != coord_id_) {
      const uint16_t owner = store::LockOwner(lock);
      if (server_->failed_ids().Test(owner)) {
        if (config_.pill_enabled()) {
          // Stray lock: its owner failed before logging, so the object
          // state is the last committed one — proceed as if unlocked
          // (§3.1.2).
          stats_.stray_reads_ignored++;
        } else if (config_.stall_on_conflict &&
                   StallDeadlineOpen(&stall_deadline_us) &&
                   (gate_ == nullptr || !gate_->blocked())) {
          // §6.4 stalling path: the object awaits recovery; wait it out.
          stats_.stall_retries++;
          SleepForMicros(kStallRetryIntervalUs);
          continue;
        } else {
          stats_.lock_conflicts++;
          Status abort_status = AbortInternal();
          if (abort_status.IsUnavailable()) return abort_status;
          return Status::Aborted("read conflict: object awaiting recovery");
        }
      } else {
        stats_.lock_conflicts++;
        Status abort_status = AbortInternal();
        if (abort_status.IsUnavailable()) return abort_status;
        return Status::Aborted("read conflict: object locked");
      }
    }

    // Track absence too: validation re-checks the version word, so a
    // not-found read stays stable until commit.
    read_set_.push_back({table, key, node, slot, version});
    if (!store::ObjectVisible(version)) {
      return Status::NotFound("object deleted or not yet committed");
    }
    value->assign(buf + 24, info.spec.value_size);
    return Status::OK();
  }
}

Status Coordinator::ReadRange(
    store::TableId table, store::Key lo, store::Key hi,
    std::vector<std::pair<store::Key, std::string>>* out) {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  if (hi < lo || hi - lo > 4096) {
    return Status::InvalidArgument("range too large (cap 4096 keys)");
  }
  if (config_.pipeline_execution) {
    return FinalizeIfCrashed(ReadRangeBatched(table, lo, hi, out));
  }
  for (store::Key key = lo;; ++key) {
    std::string value;
    const Status status = Read(table, key, &value);
    if (status.ok()) {
      out->emplace_back(key, std::move(value));
    } else if (!status.IsNotFound()) {
      return status;
    }
    if (key == hi) break;
  }
  return Status::OK();
}

Status Coordinator::ReadRangeBatched(
    store::TableId table, store::Key lo, store::Key hi,
    std::vector<std::pair<store::Key, std::string>>* out) {
  const cluster::TableInfo& info = cluster_->catalog().table(table);
  const store::TableLayout& layout = info.layout;
  const size_t count = static_cast<size_t>(hi - lo) + 1;

  // Per-key resolved value; unset entries are absent keys. Filled out of
  // order, emitted in key order at the end.
  std::vector<std::string> values(count);
  std::vector<bool> present(count, false);

  struct Target {
    store::Key key = 0;
    rdma::NodeId node = rdma::kInvalidNodeId;
    uint64_t slot = 0;
  };
  std::vector<Target> targets;
  std::vector<store::ProbeRequest> probes;
  std::vector<Target> probe_targets;  // Aligned with `probes` (slot unset).
  // Reads one key through the sequential path, which carries the
  // fail-over, retry and stall machinery; an absent key is not an error.
  const auto read_sequentially = [&](store::Key key) {
    std::string value;
    const Status status = ReadInternal(table, key, &value);
    if (status.ok()) {
      values[key - lo] = std::move(value);
      present[key - lo] = true;
    }
    return status.IsNotFound() ? Status::OK() : status;
  };

  for (store::Key key = lo;; ++key) {
    if (const WriteOp* op = write_set_.Find(table, key)) {
      // Read-your-writes, straight from the staged image.
      if (!op->is_delete) {
        values[key - lo].assign(op->new_value.data(),
                                info.spec.value_size);
        present[key - lo] = true;
      }
      if (key == hi) break;
      continue;
    }
    cluster::Locator::Entry& entry = Locate(table, key);
    const uint32_t primary = PrimaryIndex(entry.replicas);
    if (primary == entry.replicas.size()) {
      return Status::Internal("all replicas of object lost (> f failures)");
    }
    const rdma::NodeId node = entry.replicas[primary];
    if (const auto slot = locator_.SlotOn(entry, primary)) {
      targets.push_back({key, node, *slot});
    } else {
      probes.push_back(
          {server_->qp(node), info.region_rkeys[node], key});
      probe_targets.push_back({key, node, 0});
    }
    if (key == hi) break;
  }

  // Resolve cache misses with batched probe rounds (max-RTT per round
  // across all unresolved keys, instead of a sequential chain per key).
  if (!probes.empty()) {
    std::vector<store::ProbeOutcome> outcomes;
    uint64_t probe_rounds = 0;
    const Status probe_status = store::FindSlotsByBatchedProbe(
        layout, probes, &outcomes, &probe_rounds, &probe_scratch_);
    CountRtts(&stats_.execution_rtts, probe_rounds);
    if (!probe_status.ok()) {
      // A verb failed (dead server / our own halt): fall back to the
      // sequential path for the unresolved keys.
      for (const Target& target : probe_targets) {
        PANDORA_RETURN_NOT_OK(read_sequentially(target.key));
      }
    } else {
      for (size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status.IsNotFound()) continue;  // Key absent.
        PANDORA_RETURN_NOT_OK(outcomes[i].status);
        Target target = probe_targets[i];
        target.slot = outcomes[i].state.slot;
        locator_.Learn(table, target.key, target.node, target.slot);
        targets.push_back(target);
      }
    }
  }

  // One combined {lock, version, key, value} read per existing key, all in
  // one doorbell round.
  const size_t len = store::SlotReadSize(layout);
  range_buf_.resize(len * targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    store::PostSlotRead(&group_, server_->qp(targets[i].node),
                        info.region_rkeys[targets[i].node], layout,
                        targets[i].slot, range_buf_.data() + i * len);
  }
  if (!group_.empty()) {
    CountRtts(&stats_.execution_rtts, 1);
    const Status status = group_.Execute();
    if (!status.ok()) {
      if (status.IsUnavailable() && server_->halted()) return status;
      if (status.IsPermissionDenied()) return status;
      // A replica died mid-round: re-read the affected keys through the
      // sequential path, which fails over to the new primary.
      for (const Target& target : targets) {
        PANDORA_RETURN_NOT_OK(read_sequentially(target.key));
      }
      targets.clear();
    }
  }

  for (size_t i = 0; i < targets.size(); ++i) {
    const Target& target = targets[i];
    const store::SlotReadView view =
        store::DecodeSlotRead(range_buf_.data() + i * len);
    if (store::LockHeld(view.lock) &&
        store::LockOwner(view.lock) != coord_id_) {
      const uint16_t owner = store::LockOwner(view.lock);
      if (server_->failed_ids().Test(owner) && config_.pill_enabled()) {
        // Stray lock (§3.1.2): the object state is the last committed one.
        stats_.stray_reads_ignored++;
      } else if (server_->failed_ids().Test(owner) &&
                 config_.stall_on_conflict) {
        // Object awaiting recovery: take the sequential path for this key
        // so its stall/retry loop applies.
        PANDORA_RETURN_NOT_OK(read_sequentially(target.key));
        continue;
      } else {
        stats_.lock_conflicts++;
        Status abort_status = AbortInternal();
        if (abort_status.IsUnavailable()) return abort_status;
        return Status::Aborted("read conflict: object locked");
      }
    }
    // Track absence too, exactly as the point read does.
    read_set_.push_back(
        {table, target.key, target.node, target.slot, view.version});
    if (store::ObjectVisible(view.version)) {
      values[target.key - lo].assign(view.value, info.spec.value_size);
      present[target.key - lo] = true;
    }
  }

  for (size_t i = 0; i < count; ++i) {
    if (present[i]) {
      out->emplace_back(lo + static_cast<store::Key>(i),
                        std::move(values[i]));
    }
  }
  return Status::OK();
}

Status Coordinator::Write(store::TableId table, store::Key key,
                          Slice value) {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  const cluster::TableInfo& info = cluster_->catalog().table(table);
  if (value.size() > info.spec.value_size) {
    return Status::InvalidArgument("value larger than table value_size");
  }
  if (WriteOp* op = write_set_.Find(table, key)) {
    std::fill(op->new_value.begin(), op->new_value.end(), 0);
    std::memcpy(op->new_value.data(), value.data(), value.size());
    op->is_delete = false;
    return Status::OK();
  }
  WriteOp* op =
      write_set_.Prepare(table, key, info.layout.padded_value_size());
  std::memcpy(op->new_value.data(), value.data(), value.size());
  return FinalizeIfCrashed(StageWrite(op));
}

Status Coordinator::Insert(store::TableId table, store::Key key,
                           Slice value) {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  const cluster::TableInfo& info = cluster_->catalog().table(table);
  if (value.size() > info.spec.value_size) {
    return Status::InvalidArgument("value larger than table value_size");
  }
  if (key == store::kFreeKey) {
    return Status::InvalidArgument("reserved key value");
  }
  if (write_set_.Find(table, key) != nullptr) {
    return Status::InvalidArgument("key already staged in this txn");
  }
  WriteOp* op =
      write_set_.Prepare(table, key, info.layout.padded_value_size());
  op->is_insert = true;
  std::memcpy(op->new_value.data(), value.data(), value.size());
  const Status status = FinalizeIfCrashed(StageWrite(op));
  if (!status.ok()) return status;
  // Upsert semantics: if the object turned out to already exist and be
  // visible, this behaves as a Write (is_insert drops so the undo image is
  // kept and a rollback restores the old value).
  if (store::ObjectVisible(op->old_version)) op->is_insert = false;
  return Status::OK();
}

Status Coordinator::Delete(store::TableId table, store::Key key) {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  if (WriteOp* op = write_set_.Find(table, key)) {
    op->is_delete = true;
    return Status::OK();
  }
  const cluster::TableInfo& info = cluster_->catalog().table(table);
  WriteOp* op =
      write_set_.Prepare(table, key, info.layout.padded_value_size());
  op->is_delete = true;
  const Status status = FinalizeIfCrashed(StageWrite(op));
  if (!status.ok()) return status;
  if (!store::ObjectVisible(op->old_version)) {
    // Deleting a non-existent object: release the lock we just took and
    // drop the op; the transaction stays live.
    if (op->locked) {
      CountRtts(&stats_.execution_rtts, 1);
      server_->qp(op->lock_node)
          ->Write(info.region_rkeys[op->lock_node],
                  info.layout.LockOffset(op->lock_slot), &kUnlockedWord,
                  sizeof(kUnlockedWord));
    }
    write_set_.pop_back();
    return Status::NotFound("key absent");
  }
  return Status::OK();
}

Status Coordinator::PrepareCoordinatorRecord(size_t* num_fragments) {
  // Serialize fragments straight from the write set (no intermediate
  // LogRecord): with a hundred-plus coordinators sharing a core, every
  // per-coordinator scratch structure is cache-cold by its next commit, so
  // a copy into record entries would be pure miss tax.
  log_writer_.BeginFragments(txn_id_);
  for (const WriteOp& op : write_set_) {
    if (op.is_insert && config_.bugs.missing_insert_logging) continue;
    const size_t old_len = op.is_insert ? 0 : op.old_value.size();
    const void* old_data = old_len > 0 ? op.old_value.data() : nullptr;
    if (!log_writer_.AddFragmentEntry(op.table, op.key, op.old_version,
                                      op.is_insert, op.is_delete, old_data,
                                      old_len)) {
      break;  // Single entry exceeds the slot size.
    }
  }
  return log_writer_.FinishFragments(num_fragments);
}

Status Coordinator::PostValidation() {
  vreads_.resize(read_set_.size());
  for (size_t i = 0; i < read_set_.size(); ++i) {
    const ReadOp& r = read_set_[i];
    const cluster::TableInfo& info = cluster_->catalog().table(r.table);
    if (!cluster_->membership().IsMemoryAlive(r.node)) continue;
    group_.Read(server_->qp(r.node), info.region_rkeys[r.node],
                info.layout.LockOffset(r.slot), vreads_[i].buf, 16);
  }
  if (!config_.bugs.relaxed_locks) return Status::OK();

  // FORD bug: the deferred lock CASes ride in the same doorbell *after*
  // the validation reads, so validation can overlap lock acquisition.
  bool any_deferred = false;
  for (const WriteOp& op : write_set_) {
    if (!op.locked) any_deferred = true;
  }
  if (any_deferred) {
    PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kBeforeDeferredLock));
  }
  for (WriteOp& op : write_set_) {
    if (op.locked) continue;
    const cluster::TableInfo& info = cluster_->catalog().table(op.table);
    group_.CompareSwap(server_->qp(op.lock_node),
                       info.region_rkeys[op.lock_node],
                       info.layout.LockOffset(op.lock_slot),
                       store::kUnlocked, store::MakeLock(coord_id_),
                       &op.deferred_lock_observed);
  }
  return Status::OK();
}

Status Coordinator::CheckValidation() {
  for (size_t i = 0; i < read_set_.size(); ++i) {
    const ReadOp& r = read_set_[i];
    store::LockWord lock;
    store::VersionWord version;
    if (cluster_->membership().IsMemoryAlive(r.node)) {
      lock = DecodeFixed64(vreads_[i].buf);
      version = DecodeFixed64(vreads_[i].buf + 8);
    } else {
      // The primary we read from died: re-validate against the current
      // primary (a backup holding the same committed version).
      cluster::Locator::Entry& entry = Locate(r.table, r.key);
      const uint32_t primary = PrimaryIndex(entry.replicas);
      if (primary == entry.replicas.size()) {
        return Status::Aborted("replicas lost during validation");
      }
      const rdma::NodeId node = entry.replicas[primary];
      uint64_t slot = 0;
      bool existed = false;
      PANDORA_RETURN_NOT_OK(ResolveSlot(entry, primary,
                                        /*claim_for_insert=*/false, &slot,
                                        &existed, &stats_.commit_rtts));
      if (!existed) return Status::Aborted("object vanished");
      alignas(8) char buf[16];
      const cluster::TableInfo& info = cluster_->catalog().table(r.table);
      CountRtts(&stats_.commit_rtts, 1);
      PANDORA_RETURN_NOT_OK(server_->qp(node)->Read(
          info.region_rkeys[node], info.layout.LockOffset(slot), buf, 16));
      lock = DecodeFixed64(buf);
      version = DecodeFixed64(buf + 8);
    }

    if (version != r.version) {
      return Status::Aborted("read-set version changed");
    }
    if (config_.bugs.covert_locks) {
      // FORD bug: skip the lock check. Count it as exercised only when
      // the skipped check would actually have seen a foreign lock.
      if (store::LockHeld(lock) && store::LockOwner(lock) != coord_id_) {
        stats_.bug_injections++;
      }
      continue;
    }
    if (store::LockHeld(lock)) {
      const uint16_t owner = store::LockOwner(lock);
      if (owner == coord_id_) continue;  // Our own write-set lock.
      if (config_.pill_enabled() && server_->failed_ids().Test(owner)) {
        stats_.stray_reads_ignored++;
        continue;  // Stray lock: object state is still the committed one.
      }
      return Status::Aborted("read-set object locked");
    }
  }
  return Status::OK();
}

Status Coordinator::Commit() {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  const Status status = FinalizeIfCrashed(
      server_->halted() ? Status::Unavailable("compute node halted")
      : config_.mode == ProtocolMode::kPandora ? CommitMergedInternal()
                                               : CommitInternal());
  if (status.ok()) reconfig_backoff_level_ = 0;
  return status;
}

Status Coordinator::Validate() {
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kBeforeLogWrite));
  // A dead memory server inside the group is tolerated: its chain fails
  // alone, and validation falls back per entry below.
  PANDORA_RETURN_NOT_OK(
      RunGroup(PostValidation(), /*carries_applies=*/false));

  if (config_.bugs.relaxed_locks) {
    for (WriteOp& op : write_set_) {
      if (op.locked) continue;
      if (op.deferred_lock_observed == store::kUnlocked) {
        op.locked = true;
      } else {
        stats_.lock_conflicts++;
        Status abort_status = AbortInternal();
        if (abort_status.IsUnavailable()) return abort_status;
        return Status::Aborted("deferred lock conflict");
      }
    }
  }

  const Status status = CheckValidation();
  if (status.IsUnavailable() && server_->halted()) return status;
  if (!status.ok()) {
    stats_.validation_failures++;
    Status abort_status = AbortInternal();
    if (abort_status.IsUnavailable()) return abort_status;
    return Status::Aborted(status);
  }

  // Reconfiguration epoch fence at the validation point: the versions just
  // checked (and the locks held) live on the *old* placement. If the ring
  // was cut over since Begin, committing here could land updates on
  // replicas a migrated range no longer reads — abort instead and let the
  // retry run against the new placement. Covers read-only transactions
  // too: their validated versions came from the pre-cutover primaries,
  // which a post-cutover writer no longer updates.
  if (config_.reconfig_fence && RingEpochChanged(/*refresh=*/false)) {
    stats_.reconfig_aborts++;
    if (reconfig_backoff_level_ < 16) reconfig_backoff_level_++;
    Status abort_status = AbortInternal();
    if (abort_status.IsUnavailable()) return abort_status;
    return Status::Aborted("placement epoch changed at validation");
  }
  return Status::OK();
}

Status Coordinator::CommitInternal() {
  PANDORA_RETURN_NOT_OK(Validate());
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterValidation));

  // ---- Decision reached: commit. Apply to every live replica.
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kBeforeCommitApply));
  PANDORA_RETURN_NOT_OK(RunGroup(PostApplies(), /*carries_applies=*/true));

  // ---- Client ack (Cor3: only after all replicas are updated).
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterCommitApply));
  if (ack_callback_) ack_callback_(txn_id_, true);
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterClientAck));

  // ---- Unlock.
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kBeforeUnlock));
  PANDORA_RETURN_NOT_OK(RunGroup(PostUnlocks(CrashPoint::kMidUnlock),
                                 /*carries_applies=*/false));
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterUnlock));

  stats_.committed++;
  FinishTxn();
  return Status::OK();
}

Status Coordinator::CommitMergedInternal() {
  // ---- Validation first. Because the commit decision is reached before
  // any log write below, an abort needs no truncation: AbortInternal only
  // releases locks.
  PANDORA_RETURN_NOT_OK(Validate());

  if (write_set_.empty()) {
    // Read-only transaction: validation was the whole commit.
    PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterValidation));
    if (ack_callback_) ack_callback_(txn_id_, true);
    stats_.committed++;
    FinishTxn();
    return Status::OK();
  }

  // ---- Decision reached: commit. The undo-log record, every replica
  // apply, and the unlocks merge into ONE doorbell group — an ordered
  // chain per touched memory server (whose union covers ≥ f+1 replicas of
  // every write-set object, so the record survives f failures). RC
  // in-order delivery makes a server's unlock apply only after its log
  // fragments and its applies; the cross-server post order (all
  // fragments, then all applies, then all unlocks) means a coordinator
  // crash mid-group leaves either a not-yet-applied state recovery rolls
  // back, or a fully-applied state (any unlock posted implies every apply
  // was posted) recovery rolls forward. See DESIGN.md "Merged commit
  // doorbell".
  size_t num_fragments = 0;
  if (!config_.disable_recovery_logging) {
    // Write-set larger than the coordinator's log area: abort cleanly.
    PANDORA_RETURN_NOT_OK(
        AbortIfLogFull(PrepareCoordinatorRecord(&num_fragments)));
    stats_.log_records_written++;
  }
  const auto post_group = [&] {
    PANDORA_RETURN_NOT_OK(PostFragments(num_fragments));
    // The record is logged on every touched server, every lock is held
    // and nothing is applied.
    PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterValidation));
    PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kBeforeCommitApply));
    PANDORA_RETURN_NOT_OK(PostApplies());
    PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterCommitApply));
    PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kBeforeUnlock));
    // The full group is named by kAfterClientAck, visited once it has
    // completed.
    return PostUnlocks(CrashPoint::kMidUnlock);
  };
  PANDORA_RETURN_NOT_OK(RunGroup(post_group(), /*carries_applies=*/true));

  // ---- Client ack (Cor3: all live replicas are updated).
  if (ack_callback_) ack_callback_(txn_id_, true);
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterClientAck));

  stats_.committed++;
  FinishTxn();
  return Status::OK();
}

Status Coordinator::PostFragments(size_t num_fragments) {
  // The fragments take slots [0, num_fragments) every commit (the dense
  // log, DESIGN.md): at most one in-flight record exists per coordinator,
  // so the previous txn's (already applied, benign-stale) record is safe
  // to overwrite. Fragment 0 goes first in the chain, so a later fragment
  // never lands without it. The small fixed window also keeps these
  // writes in warm cache lines rather than strobing the 128 KB slot area
  // on every commit.
  const store::LogLayout& log_layout = cluster_->catalog().log_layout();
  size_t posted = 0;
  for (const rdma::NodeId node : TouchedReplicaServers()) {
    if (!cluster_->membership().IsMemoryAlive(node)) continue;
    for (size_t f = 0; f < num_fragments; ++f) {
      if (posted++ > 0) {
        PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterLogWrite));
      }
      const std::vector<char>& buf = log_writer_.PreparedFragment(f);
      group_.Write(server_->qp(node), cluster_->catalog().log_rkey(node),
                   log_layout.SlotOffset(coord_id_, static_cast<uint32_t>(f)),
                   buf.data(), buf.size());
    }
  }
  if (posted > 0) PostFlushes();
  return Status::OK();
}

Status Coordinator::PostApplies() {
  // One image per op: [version_word][key][value]; identical bytes for the
  // primary and every backup (the lock word is not part of this span, so
  // the primary stays locked until the unlock step).
  apply_bufs_.resize(write_set_.size());
  size_t posted = 0;
  for (size_t i = 0; i < write_set_.size(); ++i) {
    const WriteOp& op = write_set_[i];
    const cluster::TableInfo& info = cluster_->catalog().table(op.table);
    std::vector<char>& buf = apply_bufs_[i];
    buf.assign(16 + info.layout.padded_value_size(), 0);
    EncodeFixed64(buf.data(),
                  store::BumpVersion(op.old_version, op.is_delete));
    EncodeFixed64(buf.data() + 8, op.key);
    const std::vector<char>& value =
        op.is_delete ? op.old_value : op.new_value;
    std::memcpy(buf.data() + 16, value.data(),
                std::min(value.size(), buf.size() - 16));
    for (size_t r = 0; r < op.replicas.size(); ++r) {
      const rdma::NodeId node = op.replicas[r];
      if (!cluster_->membership().IsMemoryAlive(node)) continue;
      if (posted++ > 0) {
        PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kMidCommitApply));
      }
      group_.Write(server_->qp(node), info.region_rkeys[node],
                   info.layout.VersionOffset(op.slots[r]), buf.data(),
                   buf.size());
    }
  }
  if (posted > 0) PostFlushes();
  return Status::OK();
}

Status Coordinator::PostUnlocks(CrashPoint mid) {
  // The Complicit Aborts bug releases *every* write-set lock on abort,
  // including ones this transaction never acquired — which can free a
  // lock held by a different, live transaction.
  const bool complicit = mid == CrashPoint::kMidAbortUnlock &&
                         config_.bugs.complicit_abort;
  size_t posted = 0;
  for (const WriteOp& op : write_set_) {
    if (!op.locked && !complicit) continue;
    if (op.lock_node == rdma::kInvalidNodeId) continue;
    if (!cluster_->membership().IsMemoryAlive(op.lock_node)) continue;
    if (!op.locked) stats_.bug_injections++;  // Complicit release fired.
    if (posted++ > 0) PANDORA_RETURN_NOT_OK(MaybeCrash(mid));
    const cluster::TableInfo& info = cluster_->catalog().table(op.table);
    group_.Write(server_->qp(op.lock_node), info.region_rkeys[op.lock_node],
                 info.layout.LockOffset(op.lock_slot), &kUnlockedWord,
                 sizeof(kUnlockedWord));
  }
  return Status::OK();
}

void Coordinator::PostFlushes() {
  if (!nvm_flush()) return;
  for (const rdma::NodeId node : TouchedReplicaServers()) {
    if (!cluster_->membership().IsMemoryAlive(node)) continue;
    group_.Read(server_->qp(node), cluster_->catalog().log_rkey(node), 0,
                &flush_sink, sizeof(flush_sink));
    stats_.nvm_flushes++;
  }
}

Status Coordinator::RunGroup(Status posted, bool carries_applies) {
  if (!posted.ok()) {
    // Crashed mid-group: the verbs posted so far have landed. Drop the
    // posting without waiting, so none leaks into this node's next group.
    group_.Reset();
    return posted;
  }
  if (group_.empty()) return Status::OK();
  CountRtts(&stats_.commit_rtts, 1);
  if (group_.Execute().ok()) return Status::OK();
  // Every failed verb in post order, until one decides (a chain's flushed
  // verbs follow its own failure and decide the same way).
  Status failure;
  for (const rdma::DoorbellGroup::Failure& verb : group_.failures()) {
    if (server_->halted()) {
      failure = Status::Unavailable("compute node halted");
    } else if (carries_applies && verb.status.IsPermissionDenied()) {
      failure = verb.status;  // Fenced: logically dead (FinalizeIfCrashed).
    } else if (carries_applies) {
      // The fabric fails verbs only against dead servers; wait for the
      // membership verdict and skip (§3.2.5: every *live* replica carries
      // the update — chains to live servers completed in full).
      failure = ResolveApplyFailure(verb.dst);
    }
    if (!failure.ok()) break;
  }
  return failure;
}

const std::vector<rdma::NodeId>& Coordinator::TouchedReplicaServers() {
  touched_bits_.Reset();
  touched_servers_.clear();
  for (const WriteOp& op : write_set_) {
    for (const rdma::NodeId node : op.replicas) touched_bits_.Set(node);
  }
  // ForEachSet walks bits in ascending order, so the vector comes out
  // sorted without the allocate + sort + unique pass the old path paid
  // per commit.
  touched_bits_.ForEachSet([this](size_t bit) {
    touched_servers_.push_back(static_cast<rdma::NodeId>(bit));
  });
  return touched_servers_;
}

Status Coordinator::Abort() {
  if (!in_txn_) return Status::InvalidArgument("no open transaction");
  return FinalizeIfCrashed(AbortInternal());
}

Status Coordinator::AbortInternal() {
  // §3.1.5 abort path: first log the decision by truncating logs, then
  // release the locks acquired during execution. Pandora decides before it
  // logs anything, so it has nothing to truncate.
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kBeforeAbortTruncate));
  if (config_.mode != ProtocolMode::kPandora) {
    if (config_.bugs.lost_decision) {
      // FORD bug: the abort decision is never logged. Exercised whenever
      // valid-looking undo records survive this abort.
      for (const WriteOp& op : write_set_) {
        if (!op.log_slots.empty()) {
          stats_.bug_injections++;
          break;
        }
      }
    } else {
      // Newest record first: each server's slots then go empty in
      // descending order, slot 0 last (the dense log's recovery probe
      // never sees slot 0 empty while a later record is still valid).
      for (size_t i = write_set_.size(); i-- > 0;) {
        for (const auto& [server, slot] : write_set_[i].log_slots) {
          log_writer_.PostInvalidate(server, slot, &group_);
        }
      }
    }
    // Errs only on our own halt: a dead log server's slots need no
    // truncation.
    PANDORA_RETURN_NOT_OK(RunGroup(Status::OK(), /*carries_applies=*/false));
  }
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterAbortTruncate));

  PANDORA_RETURN_NOT_OK(RunGroup(PostUnlocks(CrashPoint::kMidAbortUnlock),
                                 /*carries_applies=*/false));
  PANDORA_RETURN_NOT_OK(MaybeCrash(CrashPoint::kAfterAbort));

  if (ack_callback_) ack_callback_(txn_id_, false);
  stats_.aborted++;
  FinishTxn();
  return Status::Aborted("transaction aborted");
}

Status Coordinator::ResolveApplyFailure(rdma::NodeId node) {
  if (server_->halted()) return Status::Unavailable("compute node halted");
  const uint64_t deadline = NowMicros() + kMemoryVerdictTimeoutUs;
  while (cluster_->membership().IsMemoryAlive(node)) {
    if (NowMicros() > deadline) {
      return Status::Internal("memory server unreachable but not declared "
                              "failed");
    }
    SleepForMicros(100);
  }
  return Status::OK();
}

}  // namespace txn
}  // namespace pandora
