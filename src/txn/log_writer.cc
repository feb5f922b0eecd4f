#include "txn/log_writer.h"

#include "common/checksum.h"
#include "common/logging.h"

namespace pandora {
namespace txn {

LogWriter::LogWriter(cluster::Cluster* cluster,
                     cluster::ComputeServer* server, uint16_t coord_id)
    : cluster_(cluster),
      server_(server),
      coord_id_(coord_id),
      slots_per_coordinator_(
          cluster->catalog().log_layout().config().slots_per_coordinator),
      slot_bytes_(cluster->catalog().log_layout().config().slot_bytes),
      log_servers_(LogServersFor(*cluster, coord_id)),
      // Sized to include standbys: after a live join the placement ring
      // can place objects or designate log servers there, and next_slot_
      // is indexed by node id.
      next_slot_(cluster->total_memory_nodes(), 0),
      invalid_marker_(store::InvalidRecordMarker()) {
  PANDORA_CHECK(coord_id_ <
                cluster->catalog().log_layout().config().max_coordinators);
  PANDORA_CHECK(slots_per_coordinator_ <= UINT16_MAX);  // Spans are 16-bit.
}

cluster::ReplicaSet LogWriter::LogServersFor(const cluster::Cluster& cluster,
                                             uint16_t coord_id) {
  // Designate the coordinator's log servers from the same ring used for
  // data placement, hashing the coordinator id (with a salt so coordinator
  // 0 does not alias table 0 / key 0 placement).
  const uint64_t hash =
      HashKey(0x10c0'0000'0000'0000ULL | coord_id);
  return cluster.ring().ReplicaSetForHash(hash);
}

void LogWriter::BeginFragments(uint64_t txn_id) {
  prepared_first_ = buffers_used_;
  fragments_txn_id_ = txn_id;
  fragments_.clear();
  fragments_.emplace_back(txn_id, coord_id_, slot_bytes_, AcquireBuffer());
  fragment_overflow_ = false;
}

bool LogWriter::AddFragmentEntry(store::TableId table, store::Key key,
                                 uint64_t old_version, bool is_insert,
                                 bool is_delete, const void* old_value,
                                 size_t old_value_len) {
  if (fragments_.back().AddEntry(table, key, old_version, is_insert,
                                 is_delete, old_value, old_value_len)) {
    return true;
  }
  // Fragment full: start the next one. Recovery merges fragments of the
  // same txn_id, so one slot per fragment is all that is needed.
  fragments_.emplace_back(fragments_txn_id_, coord_id_, slot_bytes_,
                          AcquireBuffer());
  if (fragments_.back().AddEntry(table, key, old_version, is_insert,
                                 is_delete, old_value, old_value_len)) {
    return true;
  }
  fragment_overflow_ = true;
  return false;
}

Status LogWriter::FinishFragments(size_t* num_fragments) {
  *num_fragments = fragments_.size();
  if (fragment_overflow_) {
    return Status::ResourceExhausted(
        "single log entry exceeds slot size; raise LogConfig::slot_bytes");
  }
  if (*num_fragments > slots_per_coordinator_) {
    return Status::ResourceExhausted(
        "write-set exceeds the coordinator's log area");
  }
  // The tail fragment is sealed too when it holds no entry: then it is the
  // whole record (an all-inserts write-set under the
  // missing-insert-logging bug).
  for (store::LogRecordWriter& fragment : fragments_) {
    fragment.Finish(static_cast<uint16_t>(*num_fragments));
  }
  return Status::OK();
}

Status LogWriter::PostIncrementalRecord(
    const store::LogRecord& record, const cluster::ReplicaSet& servers,
    rdma::VerbBatch* batch,
    std::vector<std::pair<rdma::NodeId, uint32_t>>* written) {
  for (const rdma::NodeId server : servers) {
    if (cluster_->membership().IsMemoryAlive(server) &&
        next_slot_[server] == slots_per_coordinator_) {
      return Status::ResourceExhausted(
          "transaction's log records exceed the coordinator's log area on "
          "a memory server");
    }
  }
  std::vector<char>& buf = *AcquireBuffer();
  PANDORA_RETURN_NOT_OK(SerializeLogRecord(record, slot_bytes_, &buf));

  const store::LogLayout& layout = cluster_->catalog().log_layout();
  for (const rdma::NodeId server : servers) {
    if (!cluster_->membership().IsMemoryAlive(server)) continue;
    const uint32_t s = next_slot_[server]++;
    batch->Write(server_->qp(server), cluster_->catalog().log_rkey(server),
                 layout.SlotOffset(coord_id_, s), buf.data(), buf.size());
    written->emplace_back(server, s);
  }
  return Status::OK();
}

void LogWriter::PostInvalidate(rdma::NodeId server, uint32_t slot,
                               rdma::VerbBatch* batch) {
  if (!cluster_->membership().IsMemoryAlive(server)) return;
  const store::LogLayout& layout = cluster_->catalog().log_layout();
  batch->Write(server_->qp(server), cluster_->catalog().log_rkey(server),
               layout.SlotOffset(coord_id_, slot), &invalid_marker_,
               sizeof(invalid_marker_));
}

}  // namespace txn
}  // namespace pandora
