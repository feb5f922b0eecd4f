#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "common/coding.h"
#include "common/checksum.h"
#include "rdma/fabric.h"
#include "store/log_layout.h"
#include "store/object_header.h"
#include "store/remote_object.h"
#include "store/table_layout.h"

namespace pandora {
namespace store {
namespace {

// ---------------------------------------------------------- Lock/Version --

TEST(LockWordTest, FieldRoundTrip) {
  const LockWord w = MakeLock(0xabcd);
  EXPECT_TRUE(LockHeld(w));
  EXPECT_EQ(LockOwner(w), 0xabcd);
  EXPECT_FALSE(LockHeld(kUnlocked));
}

// Property sweep: owner round trips across the id space.
class LockWordSweep : public ::testing::TestWithParam<uint16_t> {};

TEST_P(LockWordSweep, OwnerRoundTrips) {
  const uint16_t owner = GetParam();
  const LockWord w = MakeLock(owner);
  EXPECT_TRUE(LockHeld(w));
  EXPECT_EQ(LockOwner(w), owner);
  EXPECT_NE(w, kUnlocked);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LockWordSweep,
                         ::testing::Values<uint16_t>(0, 1, 2, 255, 256,
                                                     32767, 32768, 65534,
                                                     65535));

TEST(VersionWordTest, FieldRoundTrip) {
  const VersionWord v = MakeVersion(123456789, true);
  EXPECT_EQ(VersionOf(v), 123456789u);
  EXPECT_TRUE(VersionTombstone(v));
  const VersionWord u = MakeVersion(1, false);
  EXPECT_EQ(VersionOf(u), 1u);
  EXPECT_FALSE(VersionTombstone(u));
}

TEST(VersionWordTest, BumpVersion) {
  const VersionWord v = MakeVersion(10, false);
  EXPECT_EQ(VersionOf(BumpVersion(v, false)), 11u);
  EXPECT_TRUE(VersionTombstone(BumpVersion(v, true)));
  // Bumping a tombstoned version resurrects when tombstone cleared.
  const VersionWord dead = MakeVersion(5, true);
  const VersionWord alive = BumpVersion(dead, false);
  EXPECT_EQ(VersionOf(alive), 6u);
  EXPECT_FALSE(VersionTombstone(alive));
}

TEST(VersionWordTest, Visibility) {
  EXPECT_FALSE(ObjectVisible(MakeVersion(0, false)));  // never committed
  EXPECT_FALSE(ObjectVisible(MakeVersion(3, true)));   // deleted
  EXPECT_TRUE(ObjectVisible(MakeVersion(3, false)));
}

// ----------------------------------------------------------- TableLayout --

TEST(TableLayoutTest, OffsetsAndPadding) {
  TableLayout layout(/*table=*/2, /*value_size=*/40, /*capacity=*/100);
  EXPECT_EQ(layout.padded_value_size(), 40u);
  EXPECT_EQ(layout.slot_size(), 64u);
  EXPECT_EQ(layout.region_size(), 6400u);
  EXPECT_EQ(layout.LockOffset(3), 192u);
  EXPECT_EQ(layout.VersionOffset(3), 200u);
  EXPECT_EQ(layout.KeyOffset(3), 208u);
  EXPECT_EQ(layout.ValueOffset(3), 216u);

  TableLayout odd(0, 13, 10);
  EXPECT_EQ(odd.padded_value_size(), 16u);
  EXPECT_EQ(odd.slot_size(), 40u);
}

TEST(TableLayoutTest, ProbeWrapsAround) {
  TableLayout layout(0, 8, 4);
  EXPECT_EQ(layout.NextSlot(0), 1u);
  EXPECT_EQ(layout.NextSlot(3), 0u);
  EXPECT_LT(layout.HomeSlot(0xdeadbeef), 4u);
}

// ------------------------------------------------------------- LogRecord --

LogRecord MakeTestRecord() {
  LogRecord rec;
  rec.txn_id = 0x1122334455667788ULL;
  rec.coord_id = 42;
  LogEntry e1;
  e1.table = 1;
  e1.key = 777;
  e1.old_version = MakeVersion(5, false);
  e1.old_value = {'a', 'b', 'c'};
  rec.entries.push_back(e1);
  LogEntry e2;
  e2.table = 2;
  e2.key = 888;
  e2.old_version = MakeVersion(9, false);
  e2.is_insert = true;
  rec.entries.push_back(e2);
  LogEntry e3;
  e3.table = 1;
  e3.key = 999;
  e3.old_version = MakeVersion(2, false);
  e3.old_value = std::vector<char>(40, 'x');
  e3.is_delete = true;
  rec.entries.push_back(e3);
  return rec;
}

TEST(LogRecordTest, SerializeParseRoundTrip) {
  const LogRecord rec = MakeTestRecord();
  std::vector<char> buf;
  ASSERT_TRUE(SerializeLogRecord(rec, 4096, &buf).ok());
  EXPECT_EQ(buf.size() % 8, 0u);

  // Pad to slot size as the log region would hold it.
  std::vector<char> slot(4096, 0);
  std::memcpy(slot.data(), buf.data(), buf.size());

  LogRecord parsed;
  ASSERT_TRUE(ParseLogRecord(slot.data(), 4096, &parsed).ok());
  EXPECT_EQ(parsed.txn_id, rec.txn_id);
  EXPECT_EQ(parsed.coord_id, rec.coord_id);
  ASSERT_EQ(parsed.entries.size(), 3u);
  EXPECT_EQ(parsed.entries[0].key, 777u);
  EXPECT_EQ(parsed.entries[0].old_value,
            (std::vector<char>{'a', 'b', 'c'}));
  EXPECT_FALSE(parsed.entries[0].is_insert);
  EXPECT_TRUE(parsed.entries[1].is_insert);
  EXPECT_TRUE(parsed.entries[1].old_value.empty());
  EXPECT_TRUE(parsed.entries[2].is_delete);
  EXPECT_EQ(parsed.entries[2].old_value.size(), 40u);
  EXPECT_EQ(parsed.entries[1].old_version, MakeVersion(9, false));
  EXPECT_FALSE(parsed.entries[0].is_lock_intent);
}

TEST(LogRecordTest, EmptySlotIsNotFound) {
  std::vector<char> slot(4096, 0);
  LogRecord parsed;
  EXPECT_TRUE(ParseLogRecord(slot.data(), 4096, &parsed).IsNotFound());
}

TEST(LogRecordTest, InvalidatedSlotIsNotFound) {
  const LogRecord rec = MakeTestRecord();
  std::vector<char> buf;
  ASSERT_TRUE(SerializeLogRecord(rec, 4096, &buf).ok());
  std::vector<char> slot(4096, 0);
  std::memcpy(slot.data(), buf.data(), buf.size());
  // Abort-path truncation: overwrite the magic word.
  EncodeFixed64(slot.data(), InvalidRecordMarker());
  LogRecord parsed;
  EXPECT_TRUE(ParseLogRecord(slot.data(), 4096, &parsed).IsNotFound());
}

// Property sweep: a torn write at any 8-byte boundary must be detected as
// corruption (or parse as nothing), never as a valid record with wrong
// contents. This is what makes "crash during log write" safe (§3.2.2).
class TornLogWrite : public ::testing::TestWithParam<size_t> {};

TEST_P(TornLogWrite, DetectedByChecksum) {
  const LogRecord rec = MakeTestRecord();
  std::vector<char> buf;
  ASSERT_TRUE(SerializeLogRecord(rec, 4096, &buf).ok());
  std::vector<char> slot(4096, 0);
  // Only a prefix of the record landed before the crash.
  const size_t torn_at = GetParam();
  if (torn_at >= buf.size()) GTEST_SKIP() << "prefix covers whole record";
  std::memcpy(slot.data(), buf.data(), torn_at);
  LogRecord parsed;
  const Status status = ParseLogRecord(slot.data(), 4096, &parsed);
  EXPECT_FALSE(status.ok()) << "torn prefix of " << torn_at
                            << " bytes parsed as valid";
}

INSTANTIATE_TEST_SUITE_P(Sweep, TornLogWrite,
                         ::testing::Values(0, 8, 16, 24, 32, 40, 48, 64, 96,
                                           128, 152));

TEST(LogRecordTest, CorruptedByteDetected) {
  const LogRecord rec = MakeTestRecord();
  std::vector<char> buf;
  ASSERT_TRUE(SerializeLogRecord(rec, 4096, &buf).ok());
  std::vector<char> slot(4096, 0);
  std::memcpy(slot.data(), buf.data(), buf.size());
  slot[50] ^= 0x1;
  LogRecord parsed;
  EXPECT_TRUE(ParseLogRecord(slot.data(), 4096, &parsed).IsCorruption());
}

TEST(LogRecordTest, OversizedRecordRejected) {
  LogRecord rec;
  rec.txn_id = 1;
  rec.coord_id = 1;
  LogEntry e;
  e.old_value = std::vector<char>(5000, 'v');
  rec.entries.push_back(e);
  std::vector<char> buf;
  EXPECT_TRUE(SerializeLogRecord(rec, 4096, &buf).IsResourceExhausted());
}

// A one-entry record whose serialized size is exactly `bytes` (a
// multiple of 8).
std::vector<char> RecordOfSize(size_t bytes) {
  LogRecord rec;
  rec.txn_id = 7;
  rec.coord_id = 3;
  rec.entries.emplace_back();
  rec.entries[0].key = 11;
  std::vector<char> buf;
  EXPECT_TRUE(SerializeLogRecord(rec, 4096, &buf).ok());
  rec.entries[0].old_value = std::vector<char>(bytes - buf.size(), 'v');
  EXPECT_TRUE(SerializeLogRecord(rec, 4096, &buf).ok());
  EXPECT_EQ(buf.size(), bytes);
  return buf;
}

TEST(LogRecordExtentTest, EmptyAndInvalidatedSlotsAreZero) {
  std::vector<char> slot(64, 0);
  Result<LogExtent> extent = LogRecordExtent(slot.data(), 4096);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value().bytes, 0u);

  std::vector<char> buf = RecordOfSize(128);
  EncodeFixed64(buf.data(), InvalidRecordMarker());
  extent = LogRecordExtent(buf.data(), 4096);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value().bytes, 0u);
}

TEST(LogRecordExtentTest, BadMagicIsCorruption) {
  std::vector<char> buf = RecordOfSize(128);
  buf[3] ^= 0x40;
  EXPECT_TRUE(LogRecordExtent(buf.data(), 4096).status().IsCorruption());
}

TEST(LogRecordExtentTest, LengthBeyondSlotIsCorruption) {
  std::vector<char> buf = RecordOfSize(512);
  EXPECT_TRUE(LogRecordExtent(buf.data(), 504).status().IsCorruption());
  EXPECT_EQ(LogRecordExtent(buf.data(), 512).value().bytes, 512u);
  // A garbled length must not wrap around the bound.
  EncodeFixed64(buf.data() + 24, ~uint64_t{0} - 16);
  EXPECT_TRUE(LogRecordExtent(buf.data(), 4096).status().IsCorruption());
}

// A reader probing a fixed 256-byte prefix of a slot needs the tail
// exactly when the extent exceeds the prefix; the header alone decides.
TEST(LogRecordExtentTest, RecordsAtAndJustOverAProbe) {
  constexpr size_t kProbe = 256;
  const std::vector<char> fits = RecordOfSize(kProbe);
  const Result<LogExtent> at = LogRecordExtent(fits.data(), 4096);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at.value().bytes, kProbe);
  LogRecord parsed;
  EXPECT_TRUE(ParseLogRecord(fits.data(), 4096, &parsed).ok());

  const std::vector<char> over = RecordOfSize(kProbe + 8);
  const Result<LogExtent> beyond = LogRecordExtent(over.data(), 4096);
  ASSERT_TRUE(beyond.ok());
  EXPECT_EQ(beyond.value().bytes, kProbe + 8);
  // The prefix alone is not the record: its last word is missing.
  std::vector<char> prefix_only(4096, 0);
  std::memcpy(prefix_only.data(), over.data(), kProbe);
  EXPECT_TRUE(
      ParseLogRecord(prefix_only.data(), 4096, &parsed).IsCorruption());
}

// The span — the slots a record's transaction uses on its server — rides
// in the high half of the coord_id word: the header stays 40 bytes, and
// every serializer writes it and every reader returns it.
TEST(LogRecordSpanTest, RoundTripsThroughEveryWriterAndReader) {
  EXPECT_EQ(LogRecordHeaderBytes(), 40u);
  LogRecord rec = MakeTestRecord();
  rec.coord_id = 0xffff;  // The whole low half: must not bleed into span.

  std::vector<char> spanned;
  ASSERT_TRUE(SerializeLogRecordSpan(rec, 1, 2, /*span=*/3, 4096, &spanned)
                  .ok());
  std::vector<char> streamed;
  LogRecordWriter writer(rec.txn_id, rec.coord_id, 4096, &streamed);
  for (size_t i = 1; i < 3; ++i) {
    const LogEntry& e = rec.entries[i];
    ASSERT_TRUE(writer.AddEntry(e.table, e.key, e.old_version, e.is_insert,
                                e.is_delete, e.old_value.data(),
                                e.old_value.size()));
  }
  writer.Finish(3);
  EXPECT_EQ(streamed, spanned);  // Same wire image, span included.

  for (const uint16_t span : {uint16_t{0}, uint16_t{1}, uint16_t{0xffff}}) {
    SCOPED_TRACE(span);
    std::vector<char> buf;
    ASSERT_TRUE(SerializeLogRecordSpan(rec, 0, rec.entries.size(), span,
                                       4096, &buf)
                    .ok());
    const Result<LogExtent> extent = LogRecordExtent(buf.data(), 4096);
    ASSERT_TRUE(extent.ok());
    EXPECT_EQ(extent.value().bytes, buf.size());
    EXPECT_EQ(extent.value().span, span);
    ASSERT_TRUE(VerifiedLogRecordExtent(buf.data(), 4096).ok());
    EXPECT_EQ(VerifiedLogRecordExtent(buf.data(), 4096).value().span, span);
    LogRecord parsed;
    ASSERT_TRUE(ParseLogRecord(buf.data(), 4096, &parsed).ok());
    EXPECT_EQ(parsed.span, span);
    EXPECT_EQ(parsed.coord_id, 0xffff);
    EXPECT_EQ(parsed.entries.size(), 3u);
  }

  // The whole-record serializer writes the baselines' unknown span.
  std::vector<char> whole;
  ASSERT_TRUE(SerializeLogRecord(rec, 4096, &whole).ok());
  LogRecord parsed;
  ASSERT_TRUE(ParseLogRecord(whole.data(), 4096, &parsed).ok());
  EXPECT_EQ(parsed.span, 0u);
  EXPECT_EQ(parsed.coord_id, 0xffff);
}

// The checksum covers the span: a flipped span bit is a torn record, never
// a record that claims a different number of slots. The header-only
// extent cannot tell, which is why a reader verifies before trusting it.
TEST(LogRecordSpanTest, FlippedSpanBitIsCorruption) {
  const LogRecord rec = MakeTestRecord();
  std::vector<char> buf;
  ASSERT_TRUE(
      SerializeLogRecordSpan(rec, 0, rec.entries.size(), 2, 4096, &buf).ok());
  for (const int bit : {0, 5, 15}) {
    SCOPED_TRACE(bit);
    std::vector<char> torn = buf;
    torn[18 + bit / 8] ^= static_cast<char>(1 << (bit % 8));
    ASSERT_TRUE(LogRecordExtent(torn.data(), 4096).ok());
    EXPECT_NE(LogRecordExtent(torn.data(), 4096).value().span, 2u);
    EXPECT_TRUE(
        VerifiedLogRecordExtent(torn.data(), 4096).status().IsCorruption());
    LogRecord parsed;
    EXPECT_TRUE(ParseLogRecord(torn.data(), 4096, &parsed).IsCorruption());
  }
}

// ------------------------------------------------------------- LogLayout --

TEST(LogLayoutTest, Offsets) {
  LogConfig config;
  config.slots_per_coordinator = 8;
  config.slot_bytes = 4096;
  config.max_coordinators = 128;
  LogLayout layout(config);
  EXPECT_EQ(layout.region_size(), 128u * 8 * 4096);
  EXPECT_EQ(layout.CoordinatorBase(0), 0u);
  EXPECT_EQ(layout.CoordinatorBase(1), 8u * 4096);
  EXPECT_EQ(layout.SlotOffset(1, 2), 8u * 4096 + 2 * 4096);
}

// ---------------------------------------------------------- RemoteObject --

class RemoteObjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_unique<rdma::Fabric>(
        rdma::NetworkConfig{.one_way_ns = 0, .per_byte_ns = 0});
    pd_ = fabric_->AttachMemoryNode(0);
    layout_ = TableLayout(0, 8, 16);
    rkey_ = pd_->RegisterRegion(layout_.region_size(), "t");
    region_ = pd_->GetRegion(rkey_);
    // Mark all slots free.
    for (uint64_t s = 0; s < layout_.capacity(); ++s) {
      EncodeFixed64(region_->base() + layout_.KeyOffset(s), kFreeKey);
    }
    qp_ = fabric_->CreateQueuePair(1, 0);
  }

  void LoadKey(Key key, uint64_t version) {
    uint64_t slot = layout_.HomeSlot(pandora::HashKey(key));
    while (DecodeFixed64(region_->base() + layout_.KeyOffset(slot)) !=
           kFreeKey) {
      slot = layout_.NextSlot(slot);
    }
    EncodeFixed64(region_->base() + layout_.KeyOffset(slot), key);
    EncodeFixed64(region_->base() + layout_.LockOffset(slot), kUnlocked);
    EncodeFixed64(region_->base() + layout_.VersionOffset(slot),
                  MakeVersion(version, false));
  }

  std::unique_ptr<rdma::Fabric> fabric_;
  rdma::ProtectionDomain* pd_ = nullptr;
  TableLayout layout_;
  rdma::RKey rkey_ = rdma::kInvalidRKey;
  rdma::MemoryRegion* region_ = nullptr;
  std::unique_ptr<rdma::QueuePair> qp_;
};

TEST_F(RemoteObjectTest, FindExistingKey) {
  LoadKey(5, 3);
  LoadKey(9, 7);
  SlotState state;
  ASSERT_TRUE(FindSlotByProbe(qp_.get(), rkey_, layout_, 9, &state).ok());
  EXPECT_EQ(VersionOf(state.version), 7u);
  EXPECT_FALSE(LockHeld(state.lock));
  EXPECT_EQ(DecodeFixed64(region_->base() + layout_.KeyOffset(state.slot)),
            9u);
}

TEST_F(RemoteObjectTest, MissingKeyIsNotFound) {
  LoadKey(5, 3);
  SlotState state;
  EXPECT_TRUE(
      FindSlotByProbe(qp_.get(), rkey_, layout_, 6, &state).IsNotFound());
}

TEST_F(RemoteObjectTest, ProbeFollowsCollisionChain) {
  // Two keys with the same home slot: linear probing must find both.
  const uint64_t home = layout_.HomeSlot(pandora::HashKey(100));
  Key other = 101;
  while (layout_.HomeSlot(pandora::HashKey(other)) != home) ++other;
  LoadKey(100, 1);
  LoadKey(other, 2);
  SlotState state;
  ASSERT_TRUE(
      FindSlotByProbe(qp_.get(), rkey_, layout_, other, &state).ok());
  EXPECT_EQ(VersionOf(state.version), 2u);
}

TEST_F(RemoteObjectTest, ClaimInsertSlotThenFind) {
  SlotState state;
  bool existed = true;
  ASSERT_TRUE(
      FindOrClaimSlot(qp_.get(), rkey_, layout_, 55, &state, &existed).ok());
  EXPECT_FALSE(existed);
  // Claimed slot is not yet visible to reads (version 0).
  EXPECT_FALSE(ObjectVisible(state.version));
  // Claim is visible: second call finds it.
  SlotState state2;
  ASSERT_TRUE(FindOrClaimSlot(qp_.get(), rkey_, layout_, 55, &state2,
                              &existed)
                  .ok());
  EXPECT_TRUE(existed);
  EXPECT_EQ(state.slot, state2.slot);
}

TEST_F(RemoteObjectTest, FullRegionExhausts) {
  for (Key k = 0; k < 16; ++k) LoadKey(k + 1000 * (k % 2 + 1), 1);
  SlotState state;
  EXPECT_TRUE(FindSlotByProbe(qp_.get(), rkey_, layout_, 424242, &state)
                  .IsResourceExhausted());
}

TEST_F(RemoteObjectTest, BatchedProbeResolvesMixedOutcomes) {
  // A present key, a colliding present key, and an absent key resolve in
  // parallel rounds; round count = the longest probe chain, not the sum.
  const uint64_t home = layout_.HomeSlot(pandora::HashKey(100));
  Key collider = 101;
  while (layout_.HomeSlot(pandora::HashKey(collider)) != home) ++collider;
  LoadKey(100, 4);
  LoadKey(collider, 9);

  std::vector<ProbeRequest> requests(3);
  for (auto& request : requests) {
    request.qp = qp_.get();
    request.rkey = rkey_;
  }
  requests[0].key = 100;
  requests[1].key = collider;
  requests[2].key = 31337;  // absent

  std::vector<ProbeOutcome> outcomes;
  uint64_t rounds = 0;
  ASSERT_TRUE(FindSlotsByBatchedProbe(layout_, requests, &outcomes, &rounds)
                  .ok());
  ASSERT_EQ(outcomes.size(), 3u);
  ASSERT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(VersionOf(outcomes[0].state.version), 4u);
  ASSERT_TRUE(outcomes[1].status.ok());
  EXPECT_EQ(VersionOf(outcomes[1].state.version), 9u);
  EXPECT_TRUE(outcomes[1].state.slot != outcomes[0].state.slot);
  EXPECT_TRUE(outcomes[2].status.IsNotFound());
  // The collider sits at probe distance 2; three keys resolved in the two
  // rounds that chain needed.
  EXPECT_EQ(rounds, 2u);

  // Single-key sanity: the per-key helper agrees with the batched one.
  SlotState state;
  ASSERT_TRUE(
      FindSlotByProbe(qp_.get(), rkey_, layout_, collider, &state).ok());
  EXPECT_EQ(state.slot, outcomes[1].state.slot);
}

}  // namespace
}  // namespace store
}  // namespace pandora
