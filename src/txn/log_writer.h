#ifndef PANDORA_TXN_LOG_WRITER_H_
#define PANDORA_TXN_LOG_WRITER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "rdma/queue_pair.h"
#include "store/log_layout.h"

namespace pandora {
namespace txn {

/// Writes undo-log records into the per-coordinator areas of the memory
/// servers' log regions, in both placement modes the protocols need:
///
///  * Coordinator log (Pandora, §3.1.4): a coordinator's records all go to
///    the same f+1 *designated log servers*, chosen from the coordinator-id
///    on the placement ring (the Stamos/Cristian coordinator-log
///    technique). One record covers the whole write-set and costs one RDMA
///    write per log server.
///
///  * Per-object log (FORD Baseline): each write-set object gets its own
///    single-entry record in the log regions of that *object's* replica
///    servers — f+1 writes per object.
///
/// Both modes rotate record slots round-robin within the coordinator's
/// fixed-slot area; invalidation overwrites a slot's magic word with one
/// 8-byte write.
///
/// Pandora's merged commit doorbell (Coordinator::CommitMergedInternal)
/// places records differently: it takes the fragments from
/// PrepareCoordinatorFragments / AcquireBuffer and writes them itself to
/// slots [0, n) on every replica server the transaction touches, ahead of
/// the applies and unlocks in the same per-server chains. The touched
/// servers cover the write set's f+1 replicas, so the designated log
/// servers are not involved. Recovery reads every server's area, which
/// covers both placements.
class LogWriter {
 public:
  LogWriter(cluster::Cluster* cluster, cluster::ComputeServer* server,
            uint16_t coord_id);

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// The f+1 designated log servers of a coordinator.
  static cluster::ReplicaSet LogServersFor(const cluster::Cluster& cluster,
                                          uint16_t coord_id);

  const cluster::ReplicaSet& log_servers() const { return log_servers_; }

  /// Posts the record (one write per designated log server) into `batch`
  /// so the caller can overlap it with validation reads. A record larger
  /// than one slot is split into multiple records sharing the txn_id over
  /// consecutive slots — recovery merges fragments by txn_id, so the
  /// failure-atomicity argument is unchanged (all fragments land in the
  /// same doorbell and validation completes only after all of them).
  /// Appends the slot indices used to `slots`.
  Status PostCoordinatorRecord(const store::LogRecord& record,
                               rdma::VerbBatch* batch,
                               std::vector<uint32_t>* slots);

  /// Splits `record` into slot-sized fragments and serializes each one
  /// exactly once — O(entries) wire-size accounting, no trial
  /// serialization. The fragments stay valid until ResetForNewTxn() or
  /// the next Prepare call; read them back with PreparedFragment(). The
  /// merged-commit path posts them itself (into per-server ordered
  /// chains) instead of going through PostCoordinatorRecord.
  Status PrepareCoordinatorFragments(const store::LogRecord& record,
                                     size_t* num_fragments);
  const std::vector<char>& PreparedFragment(size_t i) const {
    return buffers_[prepared_first_ + i];
  }

  /// Posts one single-entry record to each of the object's replica servers.
  /// Appends the (server, slot) pairs written to `written` so the abort
  /// path can invalidate them.
  Status PostPerObjectRecord(
      const store::LogRecord& record,
      const cluster::ReplicaSet& object_replicas, rdma::VerbBatch* batch,
      std::vector<std::pair<rdma::NodeId, uint32_t>>* written);

  /// Posts an invalidation (8-byte magic overwrite) of `slot` on `server`.
  void PostInvalidate(rdma::NodeId server, uint32_t slot,
                      rdma::VerbBatch* batch);

  /// Posts invalidation of a coordinator-log slot on every designated log
  /// server.
  void PostInvalidateCoordinatorSlot(uint32_t slot, rdma::VerbBatch* batch);

  /// Hot-path fragment assembly without an intermediate LogRecord: the
  /// merged commit serializes straight from the write set into the reused
  /// buffer pool via store::LogRecordWriter. BeginPrepare() marks the
  /// start of the fragment run; AcquireBuffer() hands out one (recycled)
  /// buffer per fragment, readable back through PreparedFragment().
  void BeginPrepare() { prepared_first_ = buffers_used_; }
  std::vector<char>* AcquireBuffer() {
    if (buffers_used_ == buffers_.size()) buffers_.emplace_back();
    return &buffers_[buffers_used_++];
  }

  /// Recycles the serialization buffers; call at transaction begin.
  void ResetForNewTxn() { buffers_used_ = 0; }

 private:
  uint32_t NextSlot(rdma::NodeId server);

  cluster::Cluster* cluster_;
  cluster::ComputeServer* server_;
  uint16_t coord_id_;
  cluster::ReplicaSet log_servers_;
  /// Round-robin slot cursor per memory server (indexed by NodeId).
  std::vector<uint32_t> next_slot_;
  /// Serialization buffers; stable for the duration of one batch because
  /// the simulated fabric applies writes at post time.
  std::vector<std::vector<char>> buffers_;
  size_t buffers_used_ = 0;
  /// First buffer index of the most recent PrepareCoordinatorFragments.
  size_t prepared_first_ = 0;
  uint64_t invalid_marker_;
};

}  // namespace txn
}  // namespace pandora

#endif  // PANDORA_TXN_LOG_WRITER_H_
