#ifndef PANDORA_TXN_LOG_WRITER_H_
#define PANDORA_TXN_LOG_WRITER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "rdma/queue_pair.h"
#include "store/log_layout.h"

namespace pandora {
namespace txn {

/// Writes undo-log records into the per-coordinator areas of the memory
/// servers' log regions, in the placements the protocols need:
///
///  * Coordinator log (Pandora, §3.1.4): one record covers the whole
///    write-set, split into slot-sized fragments when it is larger. The
///    writer only serializes it (BeginFragments / AddFragmentEntry /
///    FinishFragments); the merged commit doorbell
///    (Coordinator::CommitMergedInternal) writes the fragments itself to
///    every replica server the transaction touches, ahead of the applies
///    and unlocks in the same per-server chains. Those servers hold f+1
///    replicas of every write-set object, so the record survives f
///    failures.
///
///  * Incremental records (the baselines): FORD's per-object undo records
///    go to the object's replica servers, and traditional logging's lock
///    intents to the coordinator's f+1 *designated log servers* (chosen
///    from the coordinator-id on the placement ring, the Stamos/Cristian
///    coordinator-log technique), one record per post while the
///    transaction executes (PostIncrementalRecord).
///
/// Dense log: every transaction starts at slot 0 on each server. A whole
/// record's n fragments take slots [0, n) and carry span n; incremental
/// records take the next free slot of a per-transaction cursor and carry
/// span 0 (the writer cannot know how many more follow). A transaction
/// that would need more than slots_per_coordinator slots on one server
/// gets ResourceExhausted before anything is posted. Invalidation
/// overwrites a slot's magic word with one 8-byte write. Recovery probes
/// slot 0 of every server's area, which covers every placement.
class LogWriter {
 public:
  LogWriter(cluster::Cluster* cluster, cluster::ComputeServer* server,
            uint16_t coord_id);

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// The f+1 designated log servers of a coordinator (lock intents).
  static cluster::ReplicaSet LogServersFor(const cluster::Cluster& cluster,
                                          uint16_t coord_id);

  const cluster::ReplicaSet& log_servers() const { return log_servers_; }

  /// Hot-path fragment assembly without an intermediate LogRecord: the
  /// merged commit serializes straight from the write set into the reused
  /// buffer pool. BeginFragments starts the run; AddFragmentEntry packs
  /// entries greedily, opening the next fragment when one is full, and
  /// returns false when a single entry exceeds a slot; FinishFragments
  /// seals every fragment with span n = *num_fragments and returns
  /// ResourceExhausted when an entry overflowed or n exceeds the area.
  /// The fragments stay readable through PreparedFragment(i) — to be
  /// written to slot i — until the next BeginFragments or
  /// ResetForNewTxn().
  void BeginFragments(uint64_t txn_id);
  bool AddFragmentEntry(store::TableId table, store::Key key,
                        uint64_t old_version, bool is_insert, bool is_delete,
                        const void* old_value, size_t old_value_len);
  Status FinishFragments(size_t* num_fragments);
  const std::vector<char>& PreparedFragment(size_t i) const {
    return buffers_[prepared_first_ + i];
  }

  /// Posts `record` (one slot, span 0) at the next free slot of the
  /// current transaction on each live server of `servers`. Returns
  /// ResourceExhausted, posting nothing, when one of them has no slot
  /// left. Appends the (server, slot) pairs written to `written` so the
  /// abort path can invalidate them.
  Status PostIncrementalRecord(
      const store::LogRecord& record, const cluster::ReplicaSet& servers,
      rdma::VerbBatch* batch,
      std::vector<std::pair<rdma::NodeId, uint32_t>>* written);

  /// Posts an invalidation (8-byte magic overwrite) of `slot` on `server`.
  void PostInvalidate(rdma::NodeId server, uint32_t slot,
                      rdma::VerbBatch* batch);

  /// Starts a transaction: slot cursors back to 0, serialization buffers
  /// recycled.
  void ResetForNewTxn() {
    buffers_used_ = 0;
    std::fill(next_slot_.begin(), next_slot_.end(), 0);
  }

 private:
  std::vector<char>* AcquireBuffer() {
    if (buffers_used_ == buffers_.size()) buffers_.emplace_back();
    return &buffers_[buffers_used_++];
  }

  cluster::Cluster* cluster_;
  cluster::ComputeServer* server_;
  uint16_t coord_id_;
  uint32_t slots_per_coordinator_;
  uint32_t slot_bytes_;
  cluster::ReplicaSet log_servers_;
  /// The current transaction's next free slot per memory server (indexed
  /// by NodeId), for incremental records.
  std::vector<uint32_t> next_slot_;
  /// Serialization buffers; stable for the duration of one batch because
  /// the simulated fabric applies writes at post time. A deque, so the
  /// open fragment writers' buffers stay put while the pool grows.
  std::deque<std::vector<char>> buffers_;
  size_t buffers_used_ = 0;
  /// The fragment run of the most recent BeginFragments: its first buffer
  /// index, its transaction, one writer per fragment, and whether an entry
  /// overflowed a slot.
  size_t prepared_first_ = 0;
  uint64_t fragments_txn_id_ = 0;
  std::vector<store::LogRecordWriter> fragments_;
  bool fragment_overflow_ = false;
  uint64_t invalid_marker_;
};

}  // namespace txn
}  // namespace pandora

#endif  // PANDORA_TXN_LOG_WRITER_H_
