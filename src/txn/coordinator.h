#ifndef PANDORA_TXN_COORDINATOR_H_
#define PANDORA_TXN_COORDINATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/locator.h"
#include "common/fixed_bitset.h"
#include "common/slice.h"
#include "common/status.h"
#include "rdma/ordered_batch.h"
#include "store/log_layout.h"
#include "store/object_header.h"
#include "store/remote_object.h"
#include "txn/crash_hook.h"
#include "txn/log_writer.h"
#include "txn/system_gate.h"
#include "txn/txn_config.h"

namespace pandora {
namespace txn {

/// Outcome notification delivered at the protocol's client-ack points:
/// after all replicas are updated (commit) or after locks are released
/// (abort). Used by the litmus framework to reason about what the client
/// may have observed (correctness criterion Cor3).
using AckCallback = std::function<void(uint64_t txn_id, bool committed)>;

/// A transaction coordinator: the compute-side engine that executes the
/// DKVS transactional API (§2.1: BeginTx / Read / Write / ReadRange /
/// Insert / Delete / CommitTx) entirely through one-sided RDMA verbs.
///
/// One Coordinator is single-threaded and runs one transaction at a time;
/// a compute server runs many coordinators. Which protocol it speaks —
/// Pandora, the FORD Baseline, or the traditional lock-logging scheme — is
/// chosen by TxnConfig, as are the injectable FORD bugs of Table 1.
///
/// Error model: Read/Write/Insert/Delete return
///  * OK            — staged/read successfully;
///  * Aborted       — a conflict aborted the whole transaction (locks
///                    already released; do not call Commit);
///  * NotFound      — key absent; the transaction is still live;
///  * Unavailable   — this compute server crashed (fault injection) or the
///                    fabric is gone; the transaction is abandoned as-is.
class Coordinator {
 public:
  Coordinator(cluster::Cluster* cluster, cluster::ComputeServer* server,
              uint16_t coord_id, const TxnConfig& config,
              SystemGate* gate = nullptr);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  uint16_t coord_id() const { return coord_id_; }
  const TxnConfig& config() const { return config_; }
  const TxnStats& stats() const { return stats_; }
  bool in_txn() const { return in_txn_; }

  /// Fault injection (litmus framework). Not owned.
  void set_crash_hook(CrashHook* hook) { crash_hook_ = hook; }
  /// Client-ack observer. Invoked from the coordinator's thread.
  void set_ack_callback(AckCallback callback) {
    ack_callback_ = std::move(callback);
  }

  /// --- Transactional API ------------------------------------------------

  Status Begin();

  /// Reads `table[key]` into `value` (sized to the table's value_size).
  /// Reads see the transaction's own staged writes.
  Status Read(store::TableId table, store::Key key, std::string* value);

  /// Stages an update of an existing object, eagerly locking its primary
  /// (FORD-style execution).
  Status Write(store::TableId table, store::Key key, Slice value);

  /// Stages creation of a new object (or resurrection of a deleted one).
  Status Insert(store::TableId table, store::Key key, Slice value);

  /// Stages deletion of an existing object.
  Status Delete(store::TableId table, store::Key key);

  /// Point-reads every existing key in [lo, hi] (bounded interval scan over
  /// the hash-partitioned store, as in FORD's KV mapping).
  Status ReadRange(store::TableId table, store::Key lo, store::Key hi,
                   std::vector<std::pair<store::Key, std::string>>* out);

  /// Runs validation, logging and commit/abort. Returns OK if committed,
  /// Aborted if validation or a deferred lock failed (locks released),
  /// Unavailable if this server crashed mid-protocol.
  Status Commit();

  /// User-initiated abort: releases acquired locks, invalidates logs.
  Status Abort();

 private:
  struct WriteOp {
    store::TableId table = 0;
    store::Key key = 0;
    std::vector<char> new_value;  // staged, padded to the slot value size
    bool is_insert = false;
    bool is_delete = false;

    // Static ring-order replica set and the object's slot on each replica,
    // both inline (fixed capacity kMaxReplication): staging a write never
    // heap-allocates for placement.
    cluster::ReplicaSet replicas;
    std::array<uint64_t, cluster::kMaxReplication> slots{};
    rdma::NodeId lock_node = rdma::kInvalidNodeId;  // where we (will) lock
    uint64_t lock_slot = 0;

    bool locked = false;
    store::VersionWord old_version = 0;
    std::vector<char> old_value;  // undo image (padded)

    // Baseline modes: log slots written for this op, for invalidation.
    std::vector<std::pair<rdma::NodeId, uint32_t>> log_slots;
    // Relaxed-locks bug: result word of the deferred lock CAS.
    uint64_t deferred_lock_observed = 0;
  };

  struct ReadOp {
    store::TableId table = 0;
    store::Key key = 0;
    rdma::NodeId node = rdma::kInvalidNodeId;
    uint64_t slot = 0;
    store::VersionWord version = 0;
  };

  // Crash-injection helper: returns Unavailable (and halts the node) when
  // the hook fires.
  Status MaybeCrash(CrashPoint point);

  // Visits `point` between two verbs of a doorbell group: before every
  // verb posted into `batch` but its first (a no-op while it is empty).
  // With the group's before and after points, every prefix of the group a
  // crash can leave landed is named by exactly one (point, occurrence). A
  // crash drains the batch.
  Status CrashBetweenVerbs(rdma::VerbBatch* batch, CrashPoint point);

  // Tears down local transaction bookkeeping when `status` reports that
  // this node crashed mid-operation (memory state is left untouched).
  Status FinalizeIfCrashed(Status status);

  Status ReadInternal(store::TableId table, store::Key key,
                      std::string* value);

  // Batched fast path of ReadRange: resolves and reads the whole range in
  // max-RTT doorbell rounds instead of per-key sequential round trips.
  Status ReadRangeBatched(
      store::TableId table, store::Key lo, store::Key hi,
      std::vector<std::pair<store::Key, std::string>>* out);

  // The Locator entry of (table, key); the hit or miss lands in TxnStats.
  // Every placement and address question goes through here.
  cluster::Locator::Entry& Locate(store::TableId table, store::Key key);

  // Index of the current primary (first alive replica) in `replicas`, or
  // replicas.size() when every replica is dead (> f failures).
  uint32_t PrimaryIndex(const cluster::ReplicaSet& replicas) const;

  // Slot of `entry`'s object on replica `i`: known to the Locator, else
  // found (or, for an insert, claimed) by a remote probe whose round trips
  // are charged to `rtt_counter` (an execution- or commit-phase stat).
  // *existed is false when the probe found no such key.
  Status ResolveSlot(cluster::Locator::Entry& entry, uint32_t i,
                     bool claim_for_insert, uint64_t* slot, bool* existed,
                     uint64_t* rtt_counter);

  // Fills op->replicas / op->slots / op->lock_node.
  Status ResolvePlacement(WriteOp* op);

  // Locks op's primary with CAS (stealing stray locks under PILL; stalling
  // or aborting on live conflicts) and fetches the undo image. With
  // pipelining the CAS and the (speculative) undo-image read share one
  // doorbell; a non-null `rider` batch (per-object log writes whose
  // content is already known) fires in the same doorbell group, so the
  // whole step still costs a single round trip.
  Status LockAndFetch(WriteOp* op, rdma::VerbBatch* rider = nullptr);

  // Pipelined lock-then-read chain (§3.1.1): posts the lock CAS
  // (`expected` -> mine) and the undo-image read on the lock node's QP in
  // one doorbell. RC in-order delivery makes the read observe the
  // post-CAS state, so when the CAS wins (*observed == expected) the image
  // is already decoded into op->old_version / old_value and *fetched is
  // set; when it loses, the speculative read is discarded.
  Status PostLockAndFetchChain(WriteOp* op, uint64_t expected,
                               uint64_t* observed, rdma::VerbBatch* rider,
                               bool* fetched);

  // Reads version word + value of op's primary slot (post-lock).
  Status FetchUndoImage(WriteOp* op);

  // Same, without holding the lock (used only by injected FORD bugs that
  // break the lock-to-read order).
  Status FetchUndoImageUnlocked(WriteOp* op);

  // Stages a Write/Insert/Delete after placement resolution.
  Status StageWrite(WriteOp op);

  // Posts the per-object undo record's writes into `batch` without
  // waiting (baseline modes).
  Status PostPerObjectLog(WriteOp* op, rdma::VerbBatch* batch);

  // Writes the per-object undo record (baseline modes) as its own
  // doorbell / round trip.
  Status WritePerObjectLog(WriteOp* op);

  // Traditional scheme: lock-intent record before the lock CAS.
  Status WriteLockIntent(const WriteOp& op);

  // A baseline record that found a server's log area full: aborts the
  // transaction cleanly, as an oversized Pandora record does at commit.
  // Any other status passes through.
  Status AbortIfLogFull(Status status);

  // Serializes the Pandora commit-time record over the whole write-set
  // into the log writer's fragments (LogWriter::PreparedFragment).
  Status PrepareCoordinatorRecord(size_t* num_fragments);

  // Validation read results (lock+version per read-set entry).
  struct ValidationRead {
    alignas(8) char buf[16];
  };

  // The baselines' commit: validation, then the apply group, the client
  // ack and the unlock group (their undo records were written during
  // execution).
  Status CommitInternal();
  // The commit decision, shared by both commit paths: one doorbell of
  // read-set lock+version reads (plus, under the relaxed-locks bug, the
  // deferred lock CASes behind them), then the checks and the
  // reconfiguration fence. A transaction that cannot commit is aborted
  // here and Aborted is returned.
  Status Validate();
  // Posts one lock+version read per read-set entry into `batch`, landing
  // in vreads_; CheckValidation decodes them.
  Status PostValidationReads(rdma::VerbBatch* batch);
  Status CheckValidation();
  // The baselines' apply and unlock groups, each with its crash point
  // (kMidCommitApply / kMidUnlock) between every two verbs.
  Status ApplyWrites();
  Status UnlockWriteSet();

  // Fills apply_bufs_ (one [version][key][value] image per write op).
  void BuildApplyBufs();

  // Pandora's commit (§3.1.4 taken to its conclusion): validate first,
  // then ride the undo-log record, every replica apply, AND the unlocks in
  // ONE doorbell group — an ordered chain per touched server. See
  // DESIGN.md "Merged commit doorbell" for the recovery-invariant
  // argument.
  Status CommitMergedInternal();

  // Posts the merged group into chains_, visiting a crash point between
  // every two of its verbs (as CrashBetweenVerbs does) and at the
  // boundaries of its fragments, applies and unlocks. Returns the crash's
  // status; the caller drains the chains.
  Status PostCommitGroup(const std::vector<rdma::NodeId>& touched,
                         size_t num_fragments);

  // True when the deployment runs NVM behind an RNIC cache (§7): durable
  // writes need FORD's selective one-sided flush, a small read behind them
  // on the same queue pair. DRAM and battery-backed deployments never
  // flush.
  bool nvm_flush() const {
    return cluster_->config().persistence ==
           cluster::PersistenceMode::kNvmWithFlush;
  }

  // The baselines' flush: one read per live server of `servers`, batched.
  Status FlushForPersistence(std::span<const rdma::NodeId> servers);

  // Distinct memory servers holding replicas of the current write-set, in
  // ascending node-id order. Collected through a node-id bitset into a
  // reserved member vector — no per-commit allocation or sort. The
  // returned reference is valid until the next call.
  const std::vector<rdma::NodeId>& TouchedReplicaServers();

  // Charges `n` round trips to the given TxnStats counter (execution_rtts
  // or commit_rtts) and rings `n` doorbells.
  void CountRtts(uint64_t* counter, uint64_t n) {
    *counter += n;
    stats_.doorbells += n;
  }

  // Abort path: invalidates the baselines' undo records, then releases
  // the locks in one group with kMidAbortUnlock between every two verbs.
  Status AbortInternal();

  // Handles Unavailable statuses from commit-apply verbs: distinguishes
  // dead memory servers (skip, §3.2.5) from our own crash.
  Status ResolveApplyFailure(rdma::NodeId node);

  void FinishTxn();

  // Write-set index: hashed (table, key) -> write_set_ position, so
  // read-your-writes and re-writes stay O(1) on large write-sets.
  struct TableKey {
    store::TableId table;
    store::Key key;
    bool operator==(const TableKey& other) const {
      return table == other.table && key == other.key;
    }
  };
  struct TableKeyHasher {
    size_t operator()(const TableKey& tk) const {
      const uint64_t h =
          (tk.key + tk.table) * 0x9e3779b97f4a7c15ULL;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  // Reconfiguration epoch fence (TxnConfig::reconfig_fence): true when
  // the active ring changed since Begin's snapshot. `refresh` re-arms the
  // snapshot so a pre-lock retry can continue against the new placement.
  bool RingEpochChanged(bool refresh);
  // Sleeps the bounded-exponential backoff armed by a prior reconfig
  // abort (no-op at level 0).
  void ReconfigBackoff();

  WriteOp* FindWriteOp(store::TableId table, store::Key key);
  // Appends `op` to the write-set and indexes it; returns the staged op.
  WriteOp* AppendWriteOp(WriteOp op);
  // Removes the most recently staged op (Delete of an absent key).
  WriteOp PopLastWriteOp();

  cluster::Cluster* cluster_;
  cluster::ComputeServer* server_;
  // Private (table, key) -> {replica set, slots} map over the cluster's
  // shared address cache; single-threaded like the coordinator.
  cluster::Locator locator_;
  uint16_t coord_id_;
  TxnConfig config_;
  SystemGate* gate_;
  LogWriter log_writer_;
  CrashHook* crash_hook_ = nullptr;
  AckCallback ack_callback_;

  bool in_txn_ = false;
  uint64_t txn_id_ = 0;
  uint64_t next_txn_seq_ = 1;
  std::vector<WriteOp> write_set_;
  std::unordered_map<TableKey, size_t, TableKeyHasher> write_index_;
  std::vector<ReadOp> read_set_;
  // Reusable scratch for undo-image fetches and point reads: the hot path
  // must not heap-allocate per verb.
  std::vector<char> fetch_buf_;
  std::vector<char> read_buf_;
  std::vector<char> range_buf_;
  // Reusable commit-apply buffers, one per write op.
  std::vector<std::vector<char>> apply_bufs_;
  // Reusable touched-server collection (TouchedReplicaServers): dedup via
  // node-id bitset, emitted ascending into the reserved vector.
  FixedBitset<rdma::kMaxNodes> touched_bits_;
  std::vector<rdma::NodeId> touched_servers_;
  // One ordered chain per memory server, indexed by node id and built
  // once: the merged commit's doorbell group and the pipelined lock+fetch
  // post into these. Whoever posts to a chain drains it before returning.
  std::vector<std::unique_ptr<rdma::OrderedBatch>> chains_;
  // Validation read results, one per read-set entry (PostValidationReads).
  std::vector<ValidationRead> vreads_;
  // Reusable cursor/buffer scratch for batched range probes.
  store::BatchedProbeScratch probe_scratch_;

  // Reconfiguration fence state: the ring epoch snapshot taken at Begin
  // and the exponential-backoff level armed by reconfig aborts (reset by
  // the next successful commit).
  uint64_t begin_ring_epoch_ = 0;
  uint32_t reconfig_backoff_level_ = 0;

  TxnStats stats_;
};

}  // namespace txn
}  // namespace pandora

#endif  // PANDORA_TXN_COORDINATOR_H_
