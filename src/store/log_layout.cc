#include "store/log_layout.h"

#include <cstring>

#include "common/checksum.h"
#include "common/coding.h"

namespace pandora {
namespace store {

namespace {

// "PANDORA1" little-endian.
constexpr uint64_t kRecordMagic = 0x3141524f444e4150ULL;
constexpr uint64_t kRecordInvalid = 0;

// Serialized record layout (all fields 8-byte aligned):
//   [0]  magic            (8B)
//   [8]  txn_id           (8B)
//   [16] coord_id (2B) | span (2B) | num_entries (4B)
//   [24] payload_bytes    (8B)  -- bytes of entry payload after checksum
//   [32] checksum         (8B)  -- word-folded FNV-1a over header[8..32) + payload
//   [40] payload: per entry
//        table (4B) | flags (4B) | key (8B) | old_header (8B)
//        | value_bytes (8B) | value (padded to 8B)
constexpr size_t kRecordHeaderBytes = 40;
constexpr size_t kEntryFixedBytes = 32;

// The word at [16]: the coordinator id in the low 16 bits, the span in the
// high 16 — inside the checksummed header, so a torn span is detected.
uint32_t IdWord(uint16_t coord_id, uint16_t span) {
  return static_cast<uint32_t>(coord_id) |
         (static_cast<uint32_t>(span) << 16);
}

constexpr uint32_t kFlagInsert = 1u << 0;
constexpr uint32_t kFlagDelete = 1u << 1;
constexpr uint32_t kFlagLockIntent = 1u << 2;

size_t EntrySerializedSize(const LogEntry& e) {
  return kEntryFixedBytes + AlignUp(e.old_value.size(), 8);
}

}  // namespace

uint64_t InvalidRecordMarker() { return kRecordInvalid; }

size_t LogRecordHeaderBytes() { return kRecordHeaderBytes; }

Status SerializeLogRecord(const LogRecord& record, uint32_t slot_bytes,
                          std::vector<char>* buf) {
  return SerializeLogRecordSpan(record, 0, record.entries.size(),
                                /*span=*/0, slot_bytes, buf);
}

Status SerializeLogRecordSpan(const LogRecord& record, size_t first,
                              size_t count, uint16_t span,
                              uint32_t slot_bytes, std::vector<char>* buf) {
  size_t total = kRecordHeaderBytes;
  for (size_t i = first; i < first + count; ++i) {
    total += EntrySerializedSize(record.entries[i]);
  }
  if (total > slot_bytes) {
    return Status::ResourceExhausted(
        "log record exceeds slot size; raise LogConfig::slot_bytes");
  }
  buf->assign(total, 0);
  char* p = buf->data();
  EncodeFixed64(p + 0, kRecordMagic);
  EncodeFixed64(p + 8, record.txn_id);
  EncodeFixed32(p + 16, IdWord(record.coord_id, span));
  EncodeFixed32(p + 20, static_cast<uint32_t>(count));
  EncodeFixed64(p + 24, static_cast<uint64_t>(total - kRecordHeaderBytes));

  char* q = p + kRecordHeaderBytes;
  for (size_t i = first; i < first + count; ++i) {
    const LogEntry& e = record.entries[i];
    uint32_t flags = 0;
    if (e.is_insert) flags |= kFlagInsert;
    if (e.is_delete) flags |= kFlagDelete;
    if (e.is_lock_intent) flags |= kFlagLockIntent;
    EncodeFixed32(q + 0, e.table);
    EncodeFixed32(q + 4, flags);
    EncodeFixed64(q + 8, e.key);
    EncodeFixed64(q + 16, e.old_version);
    EncodeFixed64(q + 24, static_cast<uint64_t>(e.old_value.size()));
    if (!e.old_value.empty()) {
      std::memcpy(q + kEntryFixedBytes, e.old_value.data(),
                  e.old_value.size());
    }
    q += EntrySerializedSize(e);
  }

  // Checksum covers everything except the magic and the checksum itself, so
  // a torn write of any byte is detected.
  const uint64_t checksum =
      Fnv1a64Words(p + 8, 24) ^
      Fnv1a64Words(p + kRecordHeaderBytes, total - kRecordHeaderBytes);
  EncodeFixed64(p + 32, checksum);
  return Status::OK();
}

LogRecordWriter::LogRecordWriter(uint64_t txn_id, uint16_t coord_id,
                                 uint32_t slot_bytes,
                                 std::vector<char>* buf)
    : coord_id_(coord_id), slot_bytes_(slot_bytes), buf_(buf) {
  buf_->resize(kRecordHeaderBytes);
  char* p = buf_->data();
  EncodeFixed64(p + 0, kRecordMagic);
  EncodeFixed64(p + 8, txn_id);
  // The id word, num_entries, payload_bytes and checksum are sealed by
  // Finish().
}

bool LogRecordWriter::AddEntry(TableId table, Key key, uint64_t old_version,
                               bool is_insert, bool is_delete,
                               const void* old_value,
                               size_t old_value_len) {
  const size_t padded_value = AlignUp(old_value_len, 8);
  const size_t entry_bytes = kEntryFixedBytes + padded_value;
  const size_t used = buf_->size();
  if (used + entry_bytes > slot_bytes_) return false;
  buf_->resize(used + entry_bytes);
  char* q = buf_->data() + used;
  uint32_t flags = 0;
  if (is_insert) flags |= kFlagInsert;
  if (is_delete) flags |= kFlagDelete;
  EncodeFixed32(q + 0, table);
  EncodeFixed32(q + 4, flags);
  EncodeFixed64(q + 8, key);
  EncodeFixed64(q + 16, old_version);
  EncodeFixed64(q + 24, static_cast<uint64_t>(old_value_len));
  if (old_value_len > 0) {
    std::memcpy(q + kEntryFixedBytes, old_value, old_value_len);
  }
  if (padded_value > old_value_len) {
    // Zero the alignment padding: it is covered by the checksum.
    std::memset(q + kEntryFixedBytes + old_value_len, 0,
                padded_value - old_value_len);
  }
  ++entries_;
  return true;
}

void LogRecordWriter::Finish(uint16_t span) {
  char* p = buf_->data();
  EncodeFixed32(p + 16, IdWord(coord_id_, span));
  EncodeFixed32(p + 20, static_cast<uint32_t>(entries_));
  const uint64_t payload =
      static_cast<uint64_t>(buf_->size() - kRecordHeaderBytes);
  EncodeFixed64(p + 24, payload);
  const uint64_t checksum =
      Fnv1a64Words(p + 8, 24) ^
      Fnv1a64Words(p + kRecordHeaderBytes, payload);
  EncodeFixed64(p + 32, checksum);
}

Result<LogExtent> LogRecordExtent(const char* header,
                                  uint32_t slot_bytes) {
  const uint64_t magic = DecodeFixed64(header);
  if (magic == kRecordInvalid) return LogExtent{};
  if (magic != kRecordMagic) {
    return Status::Corruption("bad log record magic");
  }
  const uint64_t payload_bytes = DecodeFixed64(header + 24);
  if (payload_bytes > slot_bytes ||
      kRecordHeaderBytes + payload_bytes > slot_bytes) {
    return Status::Corruption("log record payload length out of range");
  }
  return LogExtent{static_cast<size_t>(kRecordHeaderBytes + payload_bytes),
                   static_cast<uint16_t>(DecodeFixed32(header + 16) >> 16)};
}

Result<LogExtent> VerifiedLogRecordExtent(const char* image,
                                          uint32_t slot_bytes) {
  const Result<LogExtent> extent = LogRecordExtent(image, slot_bytes);
  if (!extent.ok() || extent.value().bytes == 0) return extent;
  const uint64_t expected =
      Fnv1a64Words(image + 8, 24) ^
      Fnv1a64Words(image + kRecordHeaderBytes,
                   extent.value().bytes - kRecordHeaderBytes);
  if (expected != DecodeFixed64(image + 32)) {
    return Status::Corruption("log record checksum mismatch (torn write)");
  }
  return extent;
}

Status ParseLogRecord(const char* slot_image, uint32_t slot_bytes,
                      LogRecord* record) {
  if (slot_bytes < kRecordHeaderBytes) {
    return Status::InvalidArgument("slot smaller than record header");
  }
  const Result<LogExtent> extent =
      VerifiedLogRecordExtent(slot_image, slot_bytes);
  if (!extent.ok()) return extent.status();
  if (extent.value().bytes == 0) {
    return Status::NotFound("empty or invalidated log slot");
  }
  const uint64_t payload_bytes = extent.value().bytes - kRecordHeaderBytes;

  record->txn_id = DecodeFixed64(slot_image + 8);
  record->coord_id = static_cast<uint16_t>(DecodeFixed32(slot_image + 16));
  record->span = extent.value().span;
  const uint32_t num_entries = DecodeFixed32(slot_image + 20);
  record->entries.clear();
  record->entries.reserve(num_entries);

  const char* q = slot_image + kRecordHeaderBytes;
  const char* end = q + payload_bytes;
  for (uint32_t i = 0; i < num_entries; ++i) {
    if (q + kEntryFixedBytes > end) {
      return Status::Corruption("log entry truncated");
    }
    LogEntry e;
    e.table = DecodeFixed32(q + 0);
    const uint32_t flags = DecodeFixed32(q + 4);
    e.is_insert = (flags & kFlagInsert) != 0;
    e.is_delete = (flags & kFlagDelete) != 0;
    e.is_lock_intent = (flags & kFlagLockIntent) != 0;
    e.key = DecodeFixed64(q + 8);
    e.old_version = DecodeFixed64(q + 16);
    const uint64_t value_bytes = DecodeFixed64(q + 24);
    if (q + kEntryFixedBytes + value_bytes > end) {
      return Status::Corruption("log entry value truncated");
    }
    e.old_value.assign(q + kEntryFixedBytes,
                       q + kEntryFixedBytes + value_bytes);
    q += kEntryFixedBytes + AlignUp(value_bytes, 8);
    record->entries.push_back(std::move(e));
  }
  return Status::OK();
}

}  // namespace store
}  // namespace pandora
