#ifndef PANDORA_STORE_LOG_LAYOUT_H_
#define PANDORA_STORE_LOG_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/table_layout.h"

namespace pandora {
namespace store {

/// On-memory-server undo-log area.
///
/// Every memory server reserves a log region holding a fixed number of
/// *record slots* for every coordinator-id (the paper allocates 32 KiB per
/// coordinator, §3.2.2 "F+1 Log Reads"). Fixed-size slots make the recovery
/// coordinator's scan unambiguous: each slot either holds a complete,
/// checksummed record or it does not; there is no variable-length framing to
/// resynchronize after a torn write.
///
/// Pandora writes a transaction's entire write-set as one record (split
/// into slot-sized fragments when it is larger), with a single RDMA write
/// per server (§3.1.4). The baselines reuse the same slot format but post
/// one single-entry record per object per object-replica (and, under
/// traditional logging, one lock intent per object per designated log
/// server) while the transaction executes.
///
/// Dense log: every writer starts each transaction at slot 0 on each
/// server and fills slots upwards, and every record carries its *span* —
/// the number of slots its transaction used on that server, or 0 when the
/// writer posts records one at a time and cannot know it. Recovery
/// therefore probes only slot 0 of each (coordinator, server) and reads
/// further slots only when that record's span (or a torn or unknown span)
/// says so (RecoveryCoordinator, LogRecordExtent; DESIGN.md "Dense
/// per-coordinator log").
struct LogConfig {
  /// Record slots per coordinator: the most one transaction may use on
  /// one server. A coordinator has at most one transaction in flight, so
  /// the area only needs room for the largest one — the FORD baseline's
  /// per-object records and lock intents are what size it. At most 65535
  /// (a record's span is 16 bits).
  uint32_t slots_per_coordinator = 8;
  /// Bytes per record slot. Must fit the largest write-set fragment; the
  /// log writer returns ResourceExhausted otherwise. These defaults (8 x 4
  /// KiB, the paper's 32 KiB per coordinator) serve unit tests; the benches
  /// run PaperTestbed()'s 64 x 2 KiB, sized for TPC-C's per-object and
  /// lock-intent records.
  uint32_t slot_bytes = 4096;
  /// Number of coordinator-ids the region provisions space for.
  uint32_t max_coordinators = 1024;
};

/// Byte layout of a log region under a LogConfig.
class LogLayout {
 public:
  LogLayout() = default;
  explicit LogLayout(const LogConfig& config) : config_(config) {}

  const LogConfig& config() const { return config_; }

  uint64_t region_size() const {
    return static_cast<uint64_t>(config_.max_coordinators) *
           config_.slots_per_coordinator * config_.slot_bytes;
  }

  uint64_t CoordinatorBase(uint16_t coord_id) const {
    return static_cast<uint64_t>(coord_id) * config_.slots_per_coordinator *
           config_.slot_bytes;
  }

  uint64_t SlotOffset(uint16_t coord_id, uint32_t slot) const {
    return CoordinatorBase(coord_id) +
           static_cast<uint64_t>(slot) * config_.slot_bytes;
  }

 private:
  LogConfig config_;
};

/// One write-set entry inside a log record: the undo image of an object.
struct LogEntry {
  TableId table = 0;
  Key key = 0;
  /// Version word observed when the object was locked (pre-update).
  /// Recovery compares replica versions against VersionOf(old_version) to
  /// decide roll-forward vs roll-back (§3.2.2 step 3).
  uint64_t old_version = 0;
  /// Undo image of the value (empty for inserts, which have no old value).
  std::vector<char> old_value;
  /// True if this entry is an insert (slot claimed by this transaction).
  bool is_insert = false;
  /// True if this entry deletes the object (commit sets the tombstone).
  bool is_delete = false;
  /// True for the traditional lock-logging scheme's lock-intent records
  /// (§6.1 "Traditional Logging Scheme"): written *before* the lock CAS so
  /// recovery can release stray locks without scanning the KVS. Carries no
  /// undo image.
  bool is_lock_intent = false;
};

/// A parsed log record: one transaction's undo information.
struct LogRecord {
  uint64_t txn_id = 0;
  uint16_t coord_id = 0;
  /// Parsed only (serializers take it as an argument): slots [0, span) of
  /// the server's area hold the record's transaction (it starts at slot
  /// 0); 0 = unknown, the rest of the area may hold more of it (records
  /// posted one at a time by the baselines).
  uint16_t span = 0;
  std::vector<LogEntry> entries;
};

/// What a slot's header alone tells a reader (LogRecordExtent).
struct LogExtent {
  /// Serialized size (header plus payload); 0 for an empty or invalidated
  /// slot.
  size_t bytes = 0;
  /// The record's LogRecord::span, not yet checksum-verified.
  uint16_t span = 0;
};

/// Bytes of a serialized record's header: what a reader must hold to
/// classify a slot (LogRecordExtent).
size_t LogRecordHeaderBytes();

/// Serializes `record` into `buf` (which must hold at least `slot_bytes`),
/// with span 0: the records posted one at a time. Returns ResourceExhausted if the record does not
/// fit. The serialized image is 8-byte aligned and carries a magic word
/// and checksum.
Status SerializeLogRecord(const LogRecord& record, uint32_t slot_bytes,
                          std::vector<char>* buf);

/// Serializes only entries [first, first + count) of `record`, as a
/// fragment of a transaction spanning `span` slots: fragments share the
/// record's txn_id/coord_id and recovery merges them back by transaction
/// id.
Status SerializeLogRecordSpan(const LogRecord& record, size_t first,
                              size_t count, uint16_t span,
                              uint32_t slot_bytes, std::vector<char>* buf);

/// Streaming serializer producing the same wire image as
/// SerializeLogRecordSpan, but fed entry by entry straight from the
/// coordinator's write set — the hot commit path uses it to skip building
/// an intermediate LogRecord (whose per-entry value strings are a pure
/// copy + cache-miss tax). Usage: construct over a reused buffer, AddEntry
/// until it reports the slot is full (start the next fragment then), and
/// Finish(span) to seal header fields and checksum once the transaction's
/// fragment count is known.
class LogRecordWriter {
 public:
  LogRecordWriter(uint64_t txn_id, uint16_t coord_id, uint32_t slot_bytes,
                  std::vector<char>* buf);

  /// Appends one entry. Returns false — without writing — when the entry
  /// does not fit the remaining slot space; a false return from a
  /// fresh writer means the entry alone exceeds the slot size.
  bool AddEntry(TableId table, Key key, uint64_t old_version,
                bool is_insert, bool is_delete, const void* old_value,
                size_t old_value_len);

  size_t entries() const { return entries_; }

  /// Seals num_entries / payload_bytes / span / checksum. The buffer then
  /// holds exactly the serialized fragment. The default span is that of a
  /// transaction whose whole record fits this one slot.
  void Finish(uint16_t span = 1);

 private:
  uint16_t coord_id_;
  uint32_t slot_bytes_;
  std::vector<char>* buf_;
  size_t entries_ = 0;
};

/// Size and span of the record a slot holds, from its header alone:
/// `header` must hold the slot's first LogRecordHeaderBytes(). Lets a
/// reader fetch a fixed prefix of slot 0 and only then read the tail of a
/// longer record and the span's further slots. Returns:
///  - bytes 0 for an empty or invalidated slot,
///  - the serialized size (header plus payload) and span of a record,
///  - Corruption for a bad magic or a length beyond `slot_bytes` (a torn
///    header; ParseLogRecord reports the same).
/// The checksum is not checked: a record returned here still has to be
/// parsed from its full image.
Result<LogExtent> LogRecordExtent(const char* header, uint32_t slot_bytes);

/// LogRecordExtent plus the checksum: `image` must hold the whole record
/// (the extent's bytes), as a probe does for a record no longer than it.
/// A torn record of any kind — header or payload — is Corruption.
Result<LogExtent> VerifiedLogRecordExtent(const char* image,
                                          uint32_t slot_bytes);

/// Parses the record in a slot image. Only the record's own bytes (see
/// LogRecordExtent) are read, so the image may end right after them.
/// Returns:
///  - OK and fills `record` (span included) for a valid record,
///  - NotFound for an empty or invalidated slot,
///  - Corruption for a torn/garbled record (treated by recovery as
///    not-logged, which is safe: the log write had not completed, so the
///    transaction cannot have applied any update).
Status ParseLogRecord(const char* slot_image, uint32_t slot_bytes,
                      LogRecord* record);

/// Writes the "invalid" marker over a serialized slot image's magic word.
/// Used by the abort path ("truncate", §3.1.5) and by the recovery
/// coordinator's idempotent truncation (§3.2.3). Only the first 8 bytes of
/// the slot need to be rewritten.
uint64_t InvalidRecordMarker();

}  // namespace store
}  // namespace pandora

#endif  // PANDORA_STORE_LOG_LAYOUT_H_
