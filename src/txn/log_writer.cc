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
      log_servers_(LogServersFor(*cluster, coord_id)),
      // Sized to include standbys: after a live join the placement ring
      // can designate one as a log server, and next_slot_ is indexed by
      // node id.
      next_slot_(cluster->total_memory_nodes(), 0),
      invalid_marker_(store::InvalidRecordMarker()) {
  PANDORA_CHECK(coord_id_ <
                cluster->catalog().log_layout().config().max_coordinators);
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

uint32_t LogWriter::NextSlot(rdma::NodeId server) {
  const uint32_t slots =
      cluster_->catalog().log_layout().config().slots_per_coordinator;
  const uint32_t slot = next_slot_[server];
  next_slot_[server] = (slot + 1) % slots;
  return slot;
}

Status LogWriter::PrepareCoordinatorFragments(const store::LogRecord& record,
                                              size_t* num_fragments) {
  const store::LogLayout& layout = cluster_->catalog().log_layout();
  const uint32_t slot_bytes = layout.config().slot_bytes;
  const size_t header = store::LogRecordHeaderBytes();
  prepared_first_ = buffers_used_;
  *num_fragments = 0;

  // Split into fragments that fit one slot each, packing greedily by wire
  // size — O(entries) accounting, one serialization per fragment.
  // Recovery merges fragments of the same txn_id, so one slot per
  // fragment is all that is needed.
  auto emit = [&](size_t first, size_t count) -> Status {
    if (buffers_used_ == buffers_.size()) buffers_.emplace_back();
    std::vector<char>& buf = buffers_[buffers_used_++];
    PANDORA_RETURN_NOT_OK(store::SerializeLogRecordSpan(
        record, first, count, slot_bytes, &buf));
    (*num_fragments)++;
    return Status::OK();
  };

  size_t begin = 0;
  size_t used = header;
  for (size_t i = 0; i < record.entries.size(); ++i) {
    const size_t entry_bytes =
        store::LogEntrySerializedSize(record.entries[i]);
    if (header + entry_bytes > slot_bytes) {
      return Status::ResourceExhausted(
          "single log entry exceeds slot size; raise "
          "LogConfig::slot_bytes");
    }
    if (used + entry_bytes > slot_bytes) {
      PANDORA_RETURN_NOT_OK(emit(begin, i - begin));
      begin = i;
      used = header;
    }
    used += entry_bytes;
  }
  // The tail fragment; also the whole record when the entry list is empty
  // (an all-inserts write-set under the missing-insert-logging bug).
  PANDORA_RETURN_NOT_OK(emit(begin, record.entries.size() - begin));

  if (*num_fragments > layout.config().slots_per_coordinator) {
    return Status::ResourceExhausted(
        "write-set exceeds the coordinator's log area");
  }
  return Status::OK();
}

Status LogWriter::PostCoordinatorRecord(const store::LogRecord& record,
                                        rdma::VerbBatch* batch,
                                        std::vector<uint32_t>* slots) {
  const store::LogLayout& layout = cluster_->catalog().log_layout();
  size_t num_fragments = 0;
  PANDORA_RETURN_NOT_OK(
      PrepareCoordinatorFragments(record, &num_fragments));

  for (size_t f = 0; f < num_fragments; ++f) {
    const std::vector<char>& buf = PreparedFragment(f);
    // All designated servers use the same slot index; advance their
    // cursors in lockstep.
    uint32_t chosen = 0;
    bool first = true;
    for (const rdma::NodeId server : log_servers_) {
      const uint32_t s = NextSlot(server);
      if (first) {
        chosen = s;
        first = false;
      }
      if (!cluster_->membership().IsMemoryAlive(server)) continue;
      batch->Write(server_->qp(server),
                   cluster_->catalog().log_rkey(server),
                   layout.SlotOffset(coord_id_, s), buf.data(),
                   buf.size());
    }
    slots->push_back(chosen);
  }
  return Status::OK();
}

Status LogWriter::PostPerObjectRecord(
    const store::LogRecord& record,
    const cluster::ReplicaSet& object_replicas, rdma::VerbBatch* batch,
    std::vector<std::pair<rdma::NodeId, uint32_t>>* written) {
  const store::LogLayout& layout = cluster_->catalog().log_layout();
  if (buffers_used_ == buffers_.size()) buffers_.emplace_back();
  std::vector<char>& buf = buffers_[buffers_used_++];
  PANDORA_RETURN_NOT_OK(SerializeLogRecord(
      record, layout.config().slot_bytes, &buf));

  for (const rdma::NodeId server : object_replicas) {
    if (!cluster_->membership().IsMemoryAlive(server)) continue;
    const uint32_t s = NextSlot(server);
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

void LogWriter::PostInvalidateCoordinatorSlot(uint32_t slot,
                                              rdma::VerbBatch* batch) {
  for (const rdma::NodeId server : log_servers_) {
    PostInvalidate(server, slot, batch);
  }
}

}  // namespace txn
}  // namespace pandora
