#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/random.h"
#include "recovery/recovery_manager.h"
#include "store/remote_object.h"
#include "common/logging.h"
#include "txn/coordinator.h"

namespace pandora {
namespace recovery {
namespace {

// Crash hook that fires at the Nth occurrence of a given crash point.
class CrashAt : public txn::CrashHook {
 public:
  CrashAt(txn::CrashPoint point, int occurrence = 1)
      : point_(point), remaining_(occurrence) {}

  bool MaybeCrash(txn::CrashPoint point) override {
    if (point != point_) return false;
    return --remaining_ == 0;
  }

 private:
  txn::CrashPoint point_;
  int remaining_;
};

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { Rebuild(txn::ProtocolMode::kPandora); }

  void Rebuild(txn::ProtocolMode mode) {
    staged_coords_.clear();
    manager_.reset();
    cluster_.reset();

    cluster::ClusterConfig config;
    config.memory_nodes = memory_nodes_;
    config.compute_nodes = 2;
    config.replication = 2;
    config.net.one_way_ns = 0;
    config.net.per_byte_ns = 0;
    config.log = log_config_;
    cluster_ = std::make_unique<cluster::Cluster>(config);
    table_ = cluster_->CreateTable("t", value_size_, 512);
    for (store::Key k = 0; k < kLoadedKeys; ++k) {
      ASSERT_TRUE(cluster_->LoadRow(table_, k, Padded("init")).ok());
    }

    RecoveryManagerConfig rm_config;
    rm_config.mode = mode;
    rm_config.fd.timeout_us = 5000;
    manager_ = std::make_unique<RecoveryManager>(cluster_.get(), rm_config,
                                                 &gate_);
    manager_->Start();

    mode_ = mode;
    txn_config_ = txn::TxnConfig();
    txn_config_.mode = mode;
  }

  std::string Padded(const std::string& s) {
    std::string v = s;
    v.resize(value_size_, '\0');
    return v;
  }

  std::unique_ptr<txn::Coordinator> MakeCoordinator(uint32_t compute_index) {
    std::vector<uint16_t> ids;
    const Status status = manager_->RegisterComputeNode(
        cluster_->compute(compute_index), 1, &ids);
    PANDORA_CHECK(status.ok());
    return std::make_unique<txn::Coordinator>(
        cluster_.get(), cluster_->compute(compute_index), ids[0],
        txn_config_, &gate_);
  }

  // Runs a transaction that writes `keys` and crashes at `point`; then
  // waits for the heartbeat-driven recovery to complete.
  void CrashDuringTxn(txn::Coordinator* coord, txn::CrashPoint point,
                      const std::vector<store::Key>& keys,
                      const std::string& value) {
    CrashAt hook(point);
    coord->set_crash_hook(&hook);
    ASSERT_TRUE(coord->Begin().ok());
    Status status;
    for (const store::Key key : keys) {
      status = coord->Write(table_, key, Padded(value));
      if (!status.ok()) break;
    }
    if (status.ok()) status = coord->Commit();
    ASSERT_TRUE(status.IsUnavailable())
        << "expected injected crash, got " << status.ToString();
    ASSERT_TRUE(manager_->WaitForComputeRecovery(
        cluster_->compute_node_id(0), /*timeout_us=*/3'000'000))
        << "recovery did not complete";
  }

  std::string ReadCommitted(store::Key key) {
    auto reader = MakeCoordinator(1);
    EXPECT_TRUE(reader->Begin().ok());
    std::string value;
    EXPECT_TRUE(reader->Read(table_, key, &value).ok());
    EXPECT_TRUE(reader->Commit().ok());
    return value;
  }

  bool KeyVisible(store::Key key) {
    auto reader = MakeCoordinator(1);
    EXPECT_TRUE(reader->Begin().ok());
    std::string value;
    const Status status = reader->Read(table_, key, &value);
    EXPECT_TRUE(reader->Commit().ok());
    return status.ok();
  }

  // The value bytes of the table's `slot` on `node`.
  std::string ReadValue(rdma::QueuePair* qp, rdma::NodeId node,
                        uint64_t slot) {
    const auto& info = cluster_->catalog().table(table_);
    std::string value(value_size_, '\0');
    EXPECT_TRUE(qp->Read(info.region_rkeys[node],
                         info.layout.ValueOffset(slot), value.data(),
                         value.size())
                    .ok());
    return value;
  }

  // All replicas of `key` must be unlocked and agree on version+value.
  void ExpectConsistentAndUnlocked(store::Key key) {
    const auto& info = cluster_->catalog().table(table_);
    uint64_t version = 0;
    std::string value;
    bool first = true;
    for (const rdma::NodeId node : cluster_->ReplicaSetFor(table_, key)) {
      if (!cluster_->membership().IsMemoryAlive(node)) continue;
      store::SlotState state;
      rdma::QueuePair* qp = cluster_->compute(1)->qp(node);
      ASSERT_TRUE(store::FindSlotByProbe(qp, info.region_rkeys[node],
                                         info.layout, key, &state)
                      .ok());
      EXPECT_FALSE(store::LockHeld(state.lock))
          << "key " << key << " locked on node " << node;
      std::string buf = ReadValue(qp, node, state.slot);
      if (first) {
        version = store::VersionOf(state.version);
        value = std::move(buf);
        first = false;
      } else {
        EXPECT_EQ(store::VersionOf(state.version), version)
            << "replica version divergence on key " << key;
        EXPECT_EQ(buf, value) << "replica value divergence on key " << key;
      }
    }
  }

  // --- Multi-coordinator staging -----------------------------------------

  static constexpr store::Key kLoadedKeys = 200;
  // Committed by staged coordinator 0 (whose stale record stays in its
  // log), then held by staged coordinator 1 when it crashes.
  static constexpr store::Key kSharedKey = kLoadedKeys - 1;

  // One staged coordinator's crashed transaction.
  struct StagedTxn {
    uint16_t id = 0;
    txn::CrashPoint point = txn::CrashPoint::kAfterLockFetch;
    std::vector<store::Key> keys;
    std::vector<std::string> pre;  // Per key: the value before the txn.
    std::string post;              // The value the txn writes.
    bool acked = false;            // The client saw a commit ack.
  };

  // Keys written by a long transaction: with 16-byte values its record
  // (40 + 6 x 48 bytes) outgrows the recovery coordinator's slot probe.
  static constexpr int kLongTxnKeys = 6;

  // Stages `n` coordinators on compute 0, each running one transaction of
  // 2-3 distinct keys (kLongTxnKeys for the indices in `long_txns`), drawn
  // from `seed`, that crashes at points[i % points.size()], then halts the
  // node. Coordinator 0 first commits kSharedKey; coordinator 1's
  // transaction then locks it first. The caller must have stopped the
  // failure detector, so only explicit RecoverComputeFailure calls recover.
  std::vector<StagedTxn> StageCrashes(
      uint64_t seed, int n, const std::vector<txn::CrashPoint>& points,
      const std::set<int>& long_txns = {}) {
    Random rng(seed);
    std::vector<store::Key> pool;
    for (store::Key k = 0; k < kSharedKey; ++k) pool.push_back(k);
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.Uniform(i)]);
    }
    const rdma::NodeId node = cluster_->compute_node_id(0);
    std::vector<StagedTxn> staged;
    for (int i = 0; i < n; ++i) {
      staged_coords_.push_back(MakeCoordinator(0));
      txn::Coordinator* coord = staged_coords_.back().get();
      StagedTxn t;
      t.id = coord->coord_id();
      t.point = points[i % points.size()];
      t.post = Padded("c" + std::to_string(i));
      if (i == 0) {
        EXPECT_TRUE(coord->Begin().ok());
        EXPECT_TRUE(coord->Write(table_, kSharedKey, Padded("shared")).ok());
        EXPECT_TRUE(coord->Commit().ok());
      }
      if (i == 1) {
        t.keys.push_back(kSharedKey);
        t.pre.push_back(Padded("shared"));
      }
      const uint64_t fresh_keys =
          long_txns.count(i) ? kLongTxnKeys : 2 + rng.Uniform(2);
      for (uint64_t k = fresh_keys; k > 0; --k) {
        PANDORA_CHECK(!pool.empty());
        t.keys.push_back(pool.back());
        t.pre.push_back(Padded("init"));
        pool.pop_back();
      }

      CrashAt hook(t.point);
      coord->set_crash_hook(&hook);
      bool acked = false;
      coord->set_ack_callback(
          [&acked](uint64_t, bool committed) { acked = acked || committed; });
      Status status = coord->Begin();
      for (const store::Key key : t.keys) {
        if (status.ok()) status = coord->Write(table_, key, t.post);
      }
      if (status.ok()) status = coord->Commit();
      EXPECT_TRUE(status.IsUnavailable())
          << "coordinator " << i << " did not crash at "
          << txn::CrashPointName(t.point) << ": " << status.ToString();
      coord->set_crash_hook(nullptr);
      coord->set_ack_callback(nullptr);
      t.acked = acked;
      staged.push_back(std::move(t));
      // The next coordinator on the node needs the fabric back.
      cluster_->fabric().ResumeNode(node);
    }
    cluster_->CrashComputeNode(node);
    return staged;
  }

  static std::vector<uint16_t> IdsOf(const std::vector<StagedTxn>& staged) {
    std::vector<uint16_t> ids;
    for (const StagedTxn& t : staged) ids.push_back(t.id);
    return ids;
  }

  Status RecoverIds(const std::vector<uint16_t>& ids) {
    return manager_->RecoverComputeFailure(cluster_->compute_node_id(0), ids);
  }

  // Raw {lock, version, key, value} image of every loaded key on every
  // alive replica, read through compute 1.
  std::vector<std::string> ReplicaImages() {
    const auto& info = cluster_->catalog().table(table_);
    std::vector<std::string> images;
    for (store::Key key = 0; key < kLoadedKeys; ++key) {
      for (const rdma::NodeId node : cluster_->ReplicaSetFor(table_, key)) {
        if (!cluster_->membership().IsMemoryAlive(node)) continue;
        rdma::QueuePair* qp = cluster_->compute(1)->qp(node);
        store::SlotState state;
        EXPECT_TRUE(store::FindSlotByProbe(qp, info.region_rkeys[node],
                                           info.layout, key, &state)
                        .ok());
        std::vector<char> buf(store::SlotReadSize(info.layout));
        EXPECT_TRUE(qp->Read(info.region_rkeys[node],
                             info.layout.LockOffset(state.slot), buf.data(),
                             buf.size())
                        .ok());
        images.emplace_back(buf.begin(), buf.end());
      }
    }
    return images;
  }

  // After recovery: replicas agree; each staged transaction's keys are all
  // at their pre or all at their post state, post if the client was acked;
  // a lock survives only as the PILL-stealable stray of a transaction that
  // crashed before logging.
  void ExpectRecoveredState(const std::vector<StagedTxn>& staged) {
    std::map<uint16_t, txn::CrashPoint> point_of;
    for (const StagedTxn& t : staged) point_of[t.id] = t.point;
    const auto& info = cluster_->catalog().table(table_);
    const auto read_key = [&](store::Key key, std::string* value) {
      bool first = true;
      for (const rdma::NodeId node : cluster_->ReplicaSetFor(table_, key)) {
        rdma::QueuePair* qp = cluster_->compute(1)->qp(node);
        store::SlotState state;
        ASSERT_TRUE(store::FindSlotByProbe(qp, info.region_rkeys[node],
                                           info.layout, key, &state)
                        .ok());
        if (store::LockHeld(state.lock)) {
          const auto it = point_of.find(store::LockOwner(state.lock));
          EXPECT_TRUE(it != point_of.end() &&
                      it->second == txn::CrashPoint::kAfterLockFetch)
              << "key " << key << " still locked by "
              << store::LockOwner(state.lock);
        }
        const std::string buf = ReadValue(qp, node, state.slot);
        if (first) *value = buf;
        EXPECT_EQ(buf, *value) << "replica divergence on key " << key;
        first = false;
      }
    };
    for (const StagedTxn& t : staged) {
      bool all_pre = true;
      bool all_post = true;
      for (size_t i = 0; i < t.keys.size(); ++i) {
        std::string value;
        read_key(t.keys[i], &value);
        all_pre = all_pre && value == t.pre[i];
        all_post = all_post && value == t.post;
      }
      EXPECT_TRUE(all_pre || all_post)
          << "coordinator " << t.id << " (" << txn::CrashPointName(t.point)
          << ") left a torn write set";
      if (t.acked) {
        EXPECT_TRUE(all_post) << "coordinator " << t.id << " lost an ack";
      }
    }
  }

  // The header of `slot` in `id`'s log area on `node`.
  Result<store::LogExtent> SlotHeader(rdma::NodeId node, uint16_t id,
                                      uint32_t slot) {
    const store::LogLayout& layout = cluster_->catalog().log_layout();
    std::vector<char> header(store::LogRecordHeaderBytes());
    EXPECT_TRUE(cluster_->compute(1)
                    ->qp(node)
                    ->Read(cluster_->catalog().log_rkey(node),
                           layout.SlotOffset(id, slot), header.data(),
                           header.size())
                    .ok());
    return store::LogRecordExtent(header.data(), layout.config().slot_bytes);
  }

  // Every (memory node, slot) of `id`'s log area holding a record longer
  // than the recovery coordinator's slot probe.
  std::vector<std::pair<rdma::NodeId, uint32_t>> LongRecordSlots(
      uint16_t id) {
    const store::LogLayout& layout = cluster_->catalog().log_layout();
    std::vector<std::pair<rdma::NodeId, uint32_t>> slots;
    for (uint32_t m = 0; m < cluster_->total_memory_nodes(); ++m) {
      const rdma::NodeId node = cluster_->memory_node_id(m);
      if (!cluster_->membership().IsMemoryAlive(node)) continue;
      for (uint32_t slot = 0; slot < layout.config().slots_per_coordinator;
           ++slot) {
        const Result<store::LogExtent> extent = SlotHeader(node, id, slot);
        if (extent.ok() &&
            extent.value().bytes > RecoveryCoordinator::kLogProbeBytes) {
          slots.emplace_back(node, slot);
        }
      }
    }
    return slots;
  }

  // --- Multi-fragment records --------------------------------------------

  // Ten keys written by a wide transaction: with 256-byte slots (four
  // 48-byte entries each) its record spans three fragments, keys [0, 4)
  // in the first.
  static std::vector<store::Key> WideKeys() {
    std::vector<store::Key> keys;
    for (store::Key k = 100; k < 110; ++k) keys.push_back(k);
    return keys;
  }

  // A two-memory-node cluster with 256-byte log slots and the failure
  // detector stopped. With replication 2 every transaction touches both
  // servers, so its merged commit writes the record to slots [0, n) of
  // exactly these two (RecordServers()).
  void RebuildWithSmallSlots() {
    log_config_ = {.slots_per_coordinator = 8, .slot_bytes = 256,
                   .max_coordinators = 512};
    RebuildWithTwoRecordServers();
  }

  void RebuildWithTwoRecordServers() {
    memory_nodes_ = 2;
    Rebuild(txn::ProtocolMode::kPandora);
    manager_->Stop();
  }

  // The memory servers holding a Pandora record of a transaction that
  // wrote `keys`: every replica server the merged commit touched.
  std::vector<rdma::NodeId> RecordServers(
      const std::vector<store::Key>& keys) {
    std::set<rdma::NodeId> servers;
    for (const store::Key key : keys) {
      for (const rdma::NodeId node : cluster_->ReplicaSetFor(table_, key)) {
        servers.insert(node);
      }
    }
    return {servers.begin(), servers.end()};
  }

  // Runs one transaction on `coord` writing `keys` that crashes at
  // `point`, then crashes compute 0 for good.
  void CrashTxn(txn::Coordinator* coord, txn::CrashPoint point,
                const std::vector<store::Key>& keys) {
    CrashAt hook(point);
    coord->set_crash_hook(&hook);
    Status status = coord->Begin();
    for (const store::Key key : keys) {
      if (status.ok()) status = coord->Write(table_, key, Padded("crashed"));
    }
    if (status.ok()) status = coord->Commit();
    EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
    coord->set_crash_hook(nullptr);
    cluster_->CrashComputeNode(cluster_->compute_node_id(0));
  }

  static void ExpectSameCounts(const RecoveryStats& a,
                               const RecoveryStats& b) {
    EXPECT_EQ(a.log_bytes_read, b.log_bytes_read);
    EXPECT_EQ(a.logged_txns, b.logged_txns);
    EXPECT_EQ(a.lock_intents, b.lock_intents);
    EXPECT_EQ(a.rolled_forward, b.rolled_forward);
    EXPECT_EQ(a.rolled_back, b.rolled_back);
    EXPECT_EQ(a.torn_records, b.torn_records);
    EXPECT_EQ(a.locks_released, b.locks_released);
    EXPECT_EQ(a.objects_restored, b.objects_restored);
    EXPECT_EQ(a.slots_scanned, b.slots_scanned);
  }

  static const std::vector<txn::CrashPoint>& MixedPoints() {
    static const std::vector<txn::CrashPoint> points = {
        txn::CrashPoint::kAfterLockFetch, txn::CrashPoint::kMidCommitApply,
        txn::CrashPoint::kAfterValidation, txn::CrashPoint::kAfterClientAck,
        txn::CrashPoint::kMidUnlock};
    return points;
  }

  // Shape of the cluster the next Rebuild() builds.
  uint32_t memory_nodes_ = 3;
  uint32_t value_size_ = 16;
  store::LogConfig log_config_ = {.max_coordinators = 512};

  txn::SystemGate gate_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<RecoveryManager> manager_;
  store::TableId table_ = 0;
  txn::ProtocolMode mode_ = txn::ProtocolMode::kPandora;
  txn::TxnConfig txn_config_;
  // Crashed coordinators stay alive until recovery has run, as a dead
  // process's memory would; destroyed before the cluster.
  std::vector<std::unique_ptr<txn::Coordinator>> staged_coords_;
};

TEST_F(RecoveryTest, HeartbeatDetectsSilentNode) {
  auto coord = MakeCoordinator(0);
  cluster_->CrashComputeNode(cluster_->compute_node_id(0));
  EXPECT_TRUE(manager_->WaitForComputeRecovery(cluster_->compute_node_id(0),
                                               2'000'000));
  EXPECT_TRUE(manager_->fd().failed_ids().Test(coord->coord_id()));
  // Survivors received the stray-lock notification.
  EXPECT_TRUE(cluster_->compute(1)->failed_ids().Test(coord->coord_id()));
}

TEST_F(RecoveryTest, CrashBeforeLoggingRollsNothingLocksStealable) {
  auto c0 = MakeCoordinator(0);
  // Crash right after taking the first lock — no log exists yet.
  CrashDuringTxn(c0.get(), txn::CrashPoint::kAfterLockFetch, {5, 6},
                 "never");
  const RecoveryStats stats = manager_->last_recovery_stats();
  EXPECT_EQ(stats.rolled_forward + stats.rolled_back, 0u);

  // The lock on key 5 is stray; a survivor steals it through PILL and the
  // old value is intact.
  EXPECT_EQ(ReadCommitted(5), Padded("init"));
  auto c1 = MakeCoordinator(1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 5, Padded("steal")).ok());
  EXPECT_EQ(c1->stats().locks_stolen, 1u);
  ASSERT_TRUE(c1->Commit().ok());
  ExpectConsistentAndUnlocked(5);
}

TEST_F(RecoveryTest, CrashAfterLogBeforeApplyRollsBack) {
  auto c0 = MakeCoordinator(0);
  CrashDuringTxn(c0.get(), txn::CrashPoint::kAfterValidation, {5, 6},
                 "phantom");
  const RecoveryStats stats = manager_->last_recovery_stats();
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.rolled_forward, 0u);
  EXPECT_EQ(ReadCommitted(5), Padded("init"));
  EXPECT_EQ(ReadCommitted(6), Padded("init"));
  ExpectConsistentAndUnlocked(5);
  ExpectConsistentAndUnlocked(6);
}

TEST_F(RecoveryTest, CrashMidApplyRollsBackPartialUpdate) {
  auto c0 = MakeCoordinator(0);
  // First replica write lands, then the crash: memory holds a torn
  // transaction that must be undone.
  CrashDuringTxn(c0.get(), txn::CrashPoint::kMidCommitApply, {5, 6},
                 "partial");
  const RecoveryStats stats = manager_->last_recovery_stats();
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_GE(stats.objects_restored, 1u);
  EXPECT_EQ(ReadCommitted(5), Padded("init"));
  EXPECT_EQ(ReadCommitted(6), Padded("init"));
  ExpectConsistentAndUnlocked(5);
  ExpectConsistentAndUnlocked(6);
}

TEST_F(RecoveryTest, CrashAfterFullApplyRollsForward) {
  auto c0 = MakeCoordinator(0);
  // All replicas updated, locks still held: the merged commit group's
  // last apply posted, no unlock yet (the client ack comes only after the
  // whole group, unlocks included, has completed).
  CrashDuringTxn(c0.get(), txn::CrashPoint::kAfterCommitApply, {5, 6},
                 "durable");
  const RecoveryStats stats = manager_->last_recovery_stats();
  EXPECT_EQ(stats.rolled_forward, 1u);
  EXPECT_EQ(stats.rolled_back, 0u);
  EXPECT_GE(stats.locks_released, 2u);
  // Every replica carries the update, so recovery's decision rule rolls
  // it forward.
  EXPECT_EQ(ReadCommitted(5), Padded("durable"));
  EXPECT_EQ(ReadCommitted(6), Padded("durable"));
  ExpectConsistentAndUnlocked(5);
  ExpectConsistentAndUnlocked(6);
}

TEST_F(RecoveryTest, CrashMidUnlockIsRolledForwardIdempotently) {
  auto c0 = MakeCoordinator(0);
  CrashDuringTxn(c0.get(), txn::CrashPoint::kMidUnlock, {5, 6}, "done");
  EXPECT_EQ(manager_->last_recovery_stats().rolled_forward, 1u);
  EXPECT_EQ(ReadCommitted(5), Padded("done"));
  EXPECT_EQ(ReadCommitted(6), Padded("done"));
  ExpectConsistentAndUnlocked(5);
  ExpectConsistentAndUnlocked(6);
}

TEST_F(RecoveryTest, CrashDuringAbortAfterTruncationLeavesStealableLocks) {
  // A transaction that aborts, truncates its log, then crashes before
  // releasing locks: recovery sees no logged txn; locks are stray.
  auto c0 = MakeCoordinator(0);
  CrashAt hook(txn::CrashPoint::kAfterAbortTruncate);
  c0->set_crash_hook(&hook);
  ASSERT_TRUE(c0->Begin().ok());
  ASSERT_TRUE(c0->Write(table_, 5, Padded("doomed")).ok());
  EXPECT_TRUE(c0->Abort().IsUnavailable());
  ASSERT_TRUE(manager_->WaitForComputeRecovery(cluster_->compute_node_id(0),
                                               3'000'000));
  EXPECT_EQ(manager_->last_recovery_stats().logged_txns, 0u);
  // Steal and carry on.
  auto c1 = MakeCoordinator(1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 5, Padded("fresh")).ok());
  EXPECT_EQ(c1->stats().locks_stolen, 1u);
  ASSERT_TRUE(c1->Commit().ok());
}

TEST_F(RecoveryTest, InsertRolledBackBecomesInvisible) {
  auto c0 = MakeCoordinator(0);
  CrashAt hook(txn::CrashPoint::kAfterValidation);
  c0->set_crash_hook(&hook);
  ASSERT_TRUE(c0->Begin().ok());
  ASSERT_TRUE(c0->Insert(table_, 1000, Padded("ghost")).ok());
  EXPECT_TRUE(c0->Commit().IsUnavailable());
  ASSERT_TRUE(manager_->WaitForComputeRecovery(cluster_->compute_node_id(0),
                                               3'000'000));
  EXPECT_FALSE(KeyVisible(1000));
}

TEST_F(RecoveryTest, InsertRolledForwardIsVisible) {
  auto c0 = MakeCoordinator(0);
  CrashAt hook(txn::CrashPoint::kAfterClientAck);
  c0->set_crash_hook(&hook);
  ASSERT_TRUE(c0->Begin().ok());
  ASSERT_TRUE(c0->Insert(table_, 1001, Padded("solid")).ok());
  EXPECT_TRUE(c0->Commit().IsUnavailable());
  ASSERT_TRUE(manager_->WaitForComputeRecovery(cluster_->compute_node_id(0),
                                               3'000'000));
  EXPECT_TRUE(KeyVisible(1001));
  EXPECT_EQ(ReadCommitted(1001), Padded("solid"));
}

TEST_F(RecoveryTest, RecoveryIsIdempotent) {
  auto c0 = MakeCoordinator(0);
  const uint16_t id = c0->coord_id();
  CrashDuringTxn(c0.get(), txn::CrashPoint::kMidCommitApply, {5, 6},
                 "partial");
  EXPECT_EQ(ReadCommitted(5), Padded("init"));

  // §3.2.3: any recovery step may be re-executed. Re-run the whole log
  // recovery for the same coordinator; nothing may change.
  ASSERT_TRUE(manager_
                  ->RecoverComputeFailure(cluster_->compute_node_id(0),
                                          {id})
                  .ok());
  EXPECT_EQ(ReadCommitted(5), Padded("init"));
  EXPECT_EQ(ReadCommitted(6), Padded("init"));
  ExpectConsistentAndUnlocked(5);
  ExpectConsistentAndUnlocked(6);
}

TEST_F(RecoveryTest, StaleRecordOfCompletedTxnPreservesCommittedData) {
  auto c0 = MakeCoordinator(0);
  // Txn 1 commits cleanly (its log record remains valid in the slot).
  ASSERT_TRUE(c0->Begin().ok());
  ASSERT_TRUE(c0->Write(table_, 5, Padded("first")).ok());
  ASSERT_TRUE(c0->Commit().ok());
  // Txn 2 locks the same key and crashes before logging.
  CrashDuringTxn(c0.get(), txn::CrashPoint::kAfterLockFetch, {5}, "second");
  // Processing the stale record of the committed txn 1 must not roll back
  // txn 1's committed data. (Its roll-forward may release txn 2's
  // not-logged stray lock outright — that is safe, since not-logged
  // strays have no updates; the lock is then simply free instead of
  // stealable.)
  EXPECT_EQ(ReadCommitted(5), Padded("first"));
  auto c1 = MakeCoordinator(1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 5, Padded("third")).ok());
  ASSERT_TRUE(c1->Commit().ok());
  EXPECT_EQ(ReadCommitted(5), Padded("third"));
  ExpectConsistentAndUnlocked(5);
}

TEST_F(RecoveryTest, FalsePositiveCannotCorruptMemory) {
  // Declare a perfectly healthy node failed; active-link termination must
  // fence it before recovery proceeds (Cor1).
  auto c0 = MakeCoordinator(0);
  ASSERT_TRUE(c0->Begin().ok());
  ASSERT_TRUE(c0->Write(table_, 5, Padded("alive")).ok());

  ASSERT_TRUE(manager_
                  ->RecoverComputeFailure(cluster_->compute_node_id(0),
                                          {c0->coord_id()})
                  .ok());
  // The fenced node's commit fails: its verbs are dropped at the memory
  // side, so it cannot corrupt anything.
  const Status status = c0->Commit();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ReadCommitted(5), Padded("init"));
  // Survivors steal its lock as usual.
  auto c1 = MakeCoordinator(1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 5, Padded("moved-on")).ok());
  ASSERT_TRUE(c1->Commit().ok());
}

TEST_F(RecoveryTest, BaselineScanReleasesStrayLocks) {
  Rebuild(txn::ProtocolMode::kFordBaseline);
  auto c0 = MakeCoordinator(0);
  CrashDuringTxn(c0.get(), txn::CrashPoint::kAfterLockFetch, {5}, "x");
  const RecoveryStats stats = manager_->last_recovery_stats();
  // The scan walked the whole KVS and released the stray lock.
  EXPECT_GT(stats.slots_scanned, 0u);
  EXPECT_GE(stats.locks_released, 1u);
  // No stealing needed: the lock is already free.
  auto c1 = MakeCoordinator(1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 5, Padded("after-scan")).ok());
  EXPECT_EQ(c1->stats().locks_stolen, 0u);
  ASSERT_TRUE(c1->Commit().ok());
}

TEST_F(RecoveryTest, BaselinePerObjectLogsRollBack) {
  Rebuild(txn::ProtocolMode::kFordBaseline);
  auto c0 = MakeCoordinator(0);
  CrashDuringTxn(c0.get(), txn::CrashPoint::kMidCommitApply, {5, 6}, "p");
  EXPECT_EQ(ReadCommitted(5), Padded("init"));
  EXPECT_EQ(ReadCommitted(6), Padded("init"));
  ExpectConsistentAndUnlocked(5);
  ExpectConsistentAndUnlocked(6);
}

TEST_F(RecoveryTest, TraditionalLoggingRecoversLocksFromIntents) {
  Rebuild(txn::ProtocolMode::kTraditionalLogging);
  auto c0 = MakeCoordinator(0);
  CrashDuringTxn(c0.get(), txn::CrashPoint::kAfterLockFetch, {5}, "x");
  const RecoveryStats stats = manager_->last_recovery_stats();
  EXPECT_GE(stats.lock_intents, 1u);
  EXPECT_GE(stats.locks_released, 1u);
  EXPECT_EQ(stats.slots_scanned, 0u);  // No scan needed.
  auto c1 = MakeCoordinator(1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 5, Padded("onwards")).ok());
  EXPECT_EQ(c1->stats().locks_stolen, 0u);
  ASSERT_TRUE(c1->Commit().ok());
}

TEST_F(RecoveryTest, MemoryFailureFailsOverToBackups) {
  auto c1 = MakeCoordinator(1);
  // Write some data so backups matter.
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 42, Padded("before")).ok());
  ASSERT_TRUE(c1->Commit().ok());

  cluster_->CrashMemoryNode(0);
  ASSERT_TRUE(manager_->RecoverMemoryFailure(0).ok());

  // All keys remain readable and writable through the new primaries.
  for (store::Key k = 40; k < 45; ++k) {
    ASSERT_TRUE(c1->Begin().ok());
    std::string value;
    ASSERT_TRUE(c1->Read(table_, k, &value).ok()) << "key " << k;
    ASSERT_TRUE(c1->Commit().ok());
  }
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 42, Padded("after")).ok());
  ASSERT_TRUE(c1->Commit().ok());
  EXPECT_EQ(ReadCommitted(42), Padded("after"));
}

TEST_F(RecoveryTest, DistributedFdDetectsWithQuorum) {
  manager_.reset();
  RecoveryManagerConfig rm_config;
  rm_config.fd.replicas = 3;
  rm_config.fd.quorum_latency_us = 500;
  manager_ = std::make_unique<RecoveryManager>(cluster_.get(), rm_config,
                                               &gate_);
  manager_->Start();
  auto c0 = MakeCoordinator(0);
  cluster_->CrashComputeNode(cluster_->compute_node_id(0));
  EXPECT_TRUE(manager_->WaitForComputeRecovery(cluster_->compute_node_id(0),
                                               2'000'000));
}

TEST_F(RecoveryTest, IdRecyclingReleasesLocksAndReusesIds) {
  auto c0 = MakeCoordinator(0);
  const uint16_t id = c0->coord_id();
  CrashDuringTxn(c0.get(), txn::CrashPoint::kAfterLockFetch, {5}, "x");

  // Force recycling regardless of fill level.
  ASSERT_TRUE(manager_->RecycleIdsIfNeeded(/*threshold=*/0.0).ok());
  EXPECT_FALSE(manager_->fd().failed_ids().Test(id));
  EXPECT_FALSE(cluster_->compute(1)->failed_ids().Test(id));
  // The stray lock was released by the recycling scan.
  ExpectConsistentAndUnlocked(5);
  // The id is reassignable.
  std::vector<uint16_t> ids;
  ASSERT_TRUE(manager_
                  ->RegisterComputeNode(cluster_->compute(1), 1, &ids)
                  .ok());
  EXPECT_EQ(ids[0], id);
}


// ---------------------------------------------------------------------
// Property sweep: for EVERY named crash point, a transaction that dies
// there must leave memory recoverable — after recovery the object set is
// consistent (all replicas agree, no live locks) and equals either the
// pre-transaction or post-transaction state, matching the client ack.
// ---------------------------------------------------------------------

class CrashPointSweep
    : public RecoveryTest,
      public ::testing::WithParamInterface<txn::CrashPoint> {};

TEST_P(CrashPointSweep, MemoryStaysRecoverable) {
  const txn::CrashPoint point = GetParam();
  auto c0 = MakeCoordinator(0);
  CrashAt hook(point);
  c0->set_crash_hook(&hook);

  bool acked_commit = false;
  bool acked_abort = false;
  c0->set_ack_callback([&](uint64_t, bool committed) {
    (committed ? acked_commit : acked_abort) = true;
  });

  ASSERT_TRUE(c0->Begin().ok());
  Status status = c0->Write(table_, 5, Padded("sweep"));
  if (status.ok()) status = c0->Write(table_, 6, Padded("sweep"));
  if (status.ok()) status = c0->Commit();

  if (!status.IsUnavailable()) {
    // This crash point was not reached by this transaction shape (e.g.
    // abort-path points); nothing to recover.
    GTEST_SKIP() << "crash point " << txn::CrashPointName(point)
                 << " not on the commit path";
  }
  ASSERT_TRUE(manager_->WaitForComputeRecovery(
      cluster_->compute_node_id(0), 3'000'000));

  // Survivors must observe one consistent outcome.
  cluster_->compute(1)->failed_ids().CopyFrom(
      manager_->fd().failed_ids());
  const std::string v5 = ReadCommitted(5);
  const std::string v6 = ReadCommitted(6);
  EXPECT_EQ(v5, v6) << "atomicity violated at "
                    << txn::CrashPointName(point);
  EXPECT_TRUE(v5 == Padded("init") || v5 == Padded("sweep"))
      << "unexpected state at " << txn::CrashPointName(point);
  // Cor3: a commit-ack pins the outcome to the new state.
  if (acked_commit) {
    EXPECT_EQ(v5, Padded("sweep"));
  }
  EXPECT_FALSE(acked_abort);

  // Crashes before logging leave stealable stray locks — that is the
  // design (PILL), not a leak. A survivor writing both keys steals them;
  // afterwards everything must be unlocked and replica-consistent.
  auto c1 = MakeCoordinator(1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 5, Padded("after")).ok());
  ASSERT_TRUE(c1->Write(table_, 6, Padded("after")).ok());
  ASSERT_TRUE(c1->Commit().ok());
  ExpectConsistentAndUnlocked(5);
  ExpectConsistentAndUnlocked(6);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, CrashPointSweep,
    ::testing::Values(
        txn::CrashPoint::kBeforeLock, txn::CrashPoint::kAfterLock,
        txn::CrashPoint::kAfterLockFetch, txn::CrashPoint::kBeforeLogWrite,
        txn::CrashPoint::kAfterLogWrite, txn::CrashPoint::kAfterValidation,
        txn::CrashPoint::kBeforeCommitApply,
        txn::CrashPoint::kMidCommitApply,
        txn::CrashPoint::kAfterCommitApply,
        txn::CrashPoint::kAfterClientAck, txn::CrashPoint::kBeforeUnlock,
        txn::CrashPoint::kMidUnlock),
    [](const ::testing::TestParamInfo<txn::CrashPoint>& info) {
      return txn::CrashPointName(info.param);
    });

// The same sweep for the FORD baseline's per-object logging + scan
// recovery: the fixed baseline is slower but equally recoverable.
class BaselineCrashPointSweep
    : public RecoveryTest,
      public ::testing::WithParamInterface<txn::CrashPoint> {};

TEST_P(BaselineCrashPointSweep, MemoryStaysRecoverable) {
  Rebuild(txn::ProtocolMode::kFordBaseline);
  const txn::CrashPoint point = GetParam();
  auto c0 = MakeCoordinator(0);
  CrashAt hook(point);
  c0->set_crash_hook(&hook);

  ASSERT_TRUE(c0->Begin().ok());
  Status status = c0->Write(table_, 5, Padded("sweep"));
  if (status.ok()) status = c0->Write(table_, 6, Padded("sweep"));
  if (status.ok()) status = c0->Commit();
  if (!status.IsUnavailable()) GTEST_SKIP();
  ASSERT_TRUE(manager_->WaitForComputeRecovery(
      cluster_->compute_node_id(0), 5'000'000));

  const std::string v5 = ReadCommitted(5);
  const std::string v6 = ReadCommitted(6);
  EXPECT_EQ(v5, v6);
  EXPECT_TRUE(v5 == Padded("init") || v5 == Padded("sweep"));
  ExpectConsistentAndUnlocked(5);
  ExpectConsistentAndUnlocked(6);
}

INSTANTIATE_TEST_SUITE_P(
    BaselinePoints, BaselineCrashPointSweep,
    ::testing::Values(txn::CrashPoint::kAfterLockFetch,
                      txn::CrashPoint::kAfterLogWrite,
                      txn::CrashPoint::kMidCommitApply,
                      txn::CrashPoint::kAfterClientAck,
                      txn::CrashPoint::kMidUnlock),
    [](const ::testing::TestParamInfo<txn::CrashPoint>& info) {
      return txn::CrashPointName(info.param);
    });

// --------------------------------------------------------- FD unit tests

TEST_F(RecoveryTest, CoordinatorIdsAreUniqueAcrossNodes) {
  std::set<uint16_t> seen;
  for (int round = 0; round < 10; ++round) {
    for (uint32_t node = 0; node < 2; ++node) {
      std::vector<uint16_t> ids;
      ASSERT_TRUE(manager_
                      ->RegisterComputeNode(cluster_->compute(node), 3,
                                            &ids)
                      .ok());
      for (const uint16_t id : ids) {
        EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
      }
    }
  }
  EXPECT_EQ(seen.size(), 60u);
}

// A quiesced memory reconfiguration (a stop-the-world rebuild, say) may
// outlast the lease without any compute node going silent: leases must not
// age while the barrier is up, and must re-arm when it drops. No heartbeat
// pump runs here, so without the freeze the halted node's lease would
// expire inside the 20 ms window.
TEST_F(RecoveryTest, ReconfigurationBarrierFreezesComputeLeases) {
  FdConfig config;
  config.timeout_us = 5000;
  FailureDetector fd(cluster_.get(), config);
  std::mutex mu;
  std::map<rdma::NodeId, uint64_t> declared_at_us;
  fd.set_failure_callback(
      [&](rdma::NodeId node, const std::vector<uint16_t>&) {
        std::lock_guard<std::mutex> lock(mu);
        declared_at_us.emplace(node, NowMicros());
      });
  const rdma::NodeId halted = cluster_->compute_node_id(1);
  std::vector<uint16_t> ids;
  ASSERT_TRUE(fd.RegisterComputeNode(halted, 1, &ids).ok());
  cluster::Membership& membership = cluster_->membership();

  membership.BeginReconfiguration();
  fd.Start();
  cluster_->CrashComputeNode(halted);
  SleepForMicros(20'000);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(declared_at_us.empty())
        << "a lease expired during the reconfiguration barrier";
  }
  const uint64_t end_us = NowMicros();
  membership.EndReconfiguration();

  // The node halted across the window is still declared, one full lease
  // after the barrier dropped.
  bool declared = false;
  for (int i = 0; i < 2000 && !declared; ++i) {
    SleepForMicros(1000);
    std::lock_guard<std::mutex> lock(mu);
    declared = declared_at_us.count(halted) > 0;
  }
  fd.Stop();
  ASSERT_TRUE(declared) << "halted node never declared";
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_GT(declared_at_us[halted] - end_us, config.timeout_us)
      << "lease not re-armed when the barrier dropped";
}

TEST_F(RecoveryTest, IdSpaceExhaustionReported) {
  // The fixture's log config caps max_coordinators at 512.
  std::vector<uint16_t> ids;
  Status status;
  for (int i = 0; i < 200; ++i) {
    status = manager_->RegisterComputeNode(cluster_->compute(0), 8, &ids);
    if (!status.ok()) break;
  }
  EXPECT_TRUE(status.IsResourceExhausted());
}

TEST_F(RecoveryTest, LargeWriteSetFragmentsAcrossLogSlots) {
  // The fixture's slot_bytes default fits only a few 16-byte entries per
  // slot when the write-set is large; a 40-object transaction exercises
  // the fragmentation path end to end: crash mid-apply, recover, verify.
  auto c0 = MakeCoordinator(0);
  CrashAt hook(txn::CrashPoint::kMidCommitApply, /*occurrence=*/30);
  c0->set_crash_hook(&hook);
  ASSERT_TRUE(c0->Begin().ok());
  std::vector<store::Key> keys;
  for (store::Key k = 20; k < 60; ++k) {
    ASSERT_TRUE(c0->Write(table_, k, Padded("frag")).ok());
    keys.push_back(k);
  }
  EXPECT_TRUE(c0->Commit().IsUnavailable());
  ASSERT_TRUE(manager_->WaitForComputeRecovery(
      cluster_->compute_node_id(0), 5'000'000));
  const recovery::RecoveryStats stats = manager_->last_recovery_stats();
  EXPECT_EQ(stats.rolled_back, 1u);  // Fragments merged into ONE txn.
  for (const store::Key k : keys) {
    EXPECT_EQ(ReadCommitted(k), Padded("init")) << "key " << k;
    ExpectConsistentAndUnlocked(k);
  }
}


// ------------------------------------------------- Re-replication (§3.2.5)

TEST_F(RecoveryTest, ReplaceMemoryNodeRestoresReplicationDegree) {
  auto c1 = MakeCoordinator(1);
  // Update a spread of keys so the rebuilt node must carry fresh data.
  for (store::Key k = 0; k < 50; ++k) {
    ASSERT_TRUE(c1->Begin().ok());
    ASSERT_TRUE(c1->Write(table_, k, Padded("pre-crash")).ok());
    ASSERT_TRUE(c1->Commit().ok());
  }

  cluster_->CrashMemoryNode(0);
  ASSERT_TRUE(manager_->RecoverMemoryFailure(0).ok());

  // Degraded mode: keep writing; these updates exist on survivors only.
  for (store::Key k = 0; k < 50; ++k) {
    ASSERT_TRUE(c1->Begin().ok());
    ASSERT_TRUE(c1->Write(table_, k, Padded("degraded")).ok());
    ASSERT_TRUE(c1->Commit().ok());
  }

  // Re-replication: node 0 returns as a fresh replica with current data.
  ASSERT_TRUE(manager_->ReplaceMemoryNode(0).ok());
  EXPECT_TRUE(cluster_->membership().IsMemoryAlive(0));

  // Every key is consistent across ALL replicas again, including node 0.
  for (store::Key k = 0; k < 50; ++k) {
    EXPECT_EQ(ReadCommitted(k), Padded("degraded")) << "key " << k;
    ExpectConsistentAndUnlocked(k);
  }

  // Fault tolerance is actually restored: kill a *different* node; data
  // survives through the rebuilt replica.
  cluster_->CrashMemoryNode(1);
  ASSERT_TRUE(manager_->RecoverMemoryFailure(1).ok());
  for (store::Key k = 0; k < 50; ++k) {
    EXPECT_EQ(ReadCommitted(k), Padded("degraded")) << "key " << k;
  }
  // And the system still accepts writes.
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 3, Padded("post-rebuild")).ok());
  ASSERT_TRUE(c1->Commit().ok());
  EXPECT_EQ(ReadCommitted(3), Padded("post-rebuild"));
}

TEST_F(RecoveryTest, RebuildRequiresDeadNode) {
  EXPECT_TRUE(cluster_->RebuildMemoryNode(0).IsInvalidArgument());
}

TEST_F(RecoveryTest, RebuildPreservesInsertedAndDeletedObjects) {
  auto c1 = MakeCoordinator(1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Insert(table_, 400, Padded("inserted")).ok());
  ASSERT_TRUE(c1->Delete(table_, 10).ok());
  ASSERT_TRUE(c1->Commit().ok());

  cluster_->CrashMemoryNode(0);
  ASSERT_TRUE(manager_->RecoverMemoryFailure(0).ok());
  ASSERT_TRUE(manager_->ReplaceMemoryNode(0).ok());

  EXPECT_EQ(ReadCommitted(400), Padded("inserted"));
  EXPECT_FALSE(KeyVisible(10));  // Tombstone replicated too.
  ExpectConsistentAndUnlocked(400);
}


// §3.2.3: the recovery coordinator itself runs on a standard compute
// server and can die mid-recovery; re-executing the whole procedure from
// scratch must converge to the same correct state.
TEST_F(RecoveryTest, RecoveryCoordinatorCrashMidRecoveryIsIdempotent) {
  manager_->Stop();  // Manual recovery only: no FD racing the test.

  auto c0 = MakeCoordinator(0);
  const uint16_t id = c0->coord_id();
  // Two logged transactions in flight (two txns worth of logs exist:
  // first committed leaving its record, second crashed mid-apply).
  ASSERT_TRUE(c0->Begin().ok());
  ASSERT_TRUE(c0->Write(table_, 30, Padded("first")).ok());
  ASSERT_TRUE(c0->Commit().ok());
  CrashAt hook(txn::CrashPoint::kMidCommitApply);
  c0->set_crash_hook(&hook);
  ASSERT_TRUE(c0->Begin().ok());
  ASSERT_TRUE(c0->Write(table_, 31, Padded("second")).ok());
  ASSERT_TRUE(c0->Write(table_, 32, Padded("second")).ok());
  EXPECT_TRUE(c0->Commit().IsUnavailable());

  // First RC attempt dies after its first recovery step.
  int steps = 0;
  manager_->rc().set_step_fault_hook([&steps] { return ++steps == 2; });
  EXPECT_FALSE(manager_
                   ->RecoverComputeFailure(cluster_->compute_node_id(0),
                                           {id})
                   .ok());

  // A fresh RC re-executes everything; memory converges.
  manager_->rc().set_step_fault_hook(nullptr);
  ASSERT_TRUE(manager_
                  ->RecoverComputeFailure(cluster_->compute_node_id(0),
                                          {id})
                  .ok());
  EXPECT_EQ(ReadCommitted(30), Padded("first"));
  EXPECT_EQ(ReadCommitted(31), Padded("init"));
  EXPECT_EQ(ReadCommitted(32), Padded("init"));
  ExpectConsistentAndUnlocked(30);
  ExpectConsistentAndUnlocked(31);
  ExpectConsistentAndUnlocked(32);

  // The same over a window of mixed crashes that holds a record longer
  // than the slot probe: the RC dies at each doorbell round boundary in
  // turn — after the log probes, the record tails, the version reads, the
  // restores, the unlocks, the truncation — and a clean re-run must
  // converge to exactly the memory one clean run produces.
  constexpr uint64_t kSeed = 11;
  constexpr int kCoordinators = 24;
  const std::set<int> long_txns = {6};  // Crashes mid-apply: logged.
  Rebuild(txn::ProtocolMode::kPandora);
  manager_->Stop();
  std::vector<StagedTxn> staged =
      StageCrashes(kSeed, kCoordinators, MixedPoints(), long_txns);
  ASSERT_LE(kCoordinators, manager_->rc().CoordinatorsPerWindow());
  ASSERT_FALSE(LongRecordSlots(staged[6].id).empty());
  ASSERT_TRUE(RecoverIds(IdsOf(staged)).ok());
  constexpr uint32_t kRounds = RecoveryCoordinator::kRoundsPerWindow + 1;
  ASSERT_EQ(manager_->last_recovery_stats().doorbells, kRounds);
  const std::vector<std::string> reference = ReplicaImages();

  for (uint32_t fault_at = 1; fault_at <= kRounds; ++fault_at) {
    Rebuild(txn::ProtocolMode::kPandora);
    manager_->Stop();
    staged = StageCrashes(kSeed, kCoordinators, MixedPoints(), long_txns);
    uint32_t boundary = 0;
    manager_->rc().set_step_fault_hook(
        [&boundary, fault_at] { return ++boundary == fault_at; });
    EXPECT_FALSE(RecoverIds(IdsOf(staged)).ok()) << "fault at " << fault_at;
    manager_->rc().set_step_fault_hook(nullptr);
    ASSERT_TRUE(RecoverIds(IdsOf(staged)).ok());
    EXPECT_EQ(ReplicaImages(), reference)
        << "re-run after a fault at round boundary " << fault_at
        << " diverged";
    ExpectRecoveredState(staged);
  }
}

// One recovery over all of a node's coordinators decides from one version
// snapshot per window; it must repair memory exactly as recovering the ids
// one by one does, including a key whose stale committed record belongs to
// one coordinator while another crashed holding it.
TEST_F(RecoveryTest, WindowedRecoveryMatchesPerCoordinatorRecovery) {
  constexpr uint64_t kSeed = 7;
  constexpr int kCoordinators = 24;
  manager_->Stop();
  const std::vector<StagedTxn> staged =
      StageCrashes(kSeed, kCoordinators, MixedPoints());
  const std::vector<uint16_t> ids = IdsOf(staged);
  ASSERT_TRUE(RecoverIds(ids).ok());
  const RecoveryStats together = manager_->last_recovery_stats();
  const std::vector<std::string> images = ReplicaImages();
  ExpectRecoveredState(staged);
  EXPECT_GT(together.rolled_forward, 0u);
  EXPECT_GT(together.rolled_back, 0u);
  EXPECT_GT(together.objects_restored, 0u);

  Rebuild(txn::ProtocolMode::kPandora);
  manager_->Stop();
  const std::vector<StagedTxn> again =
      StageCrashes(kSeed, kCoordinators, MixedPoints());
  ASSERT_EQ(IdsOf(again), ids);
  RecoveryStats one_by_one;
  for (const uint16_t id : ids) {
    ASSERT_TRUE(RecoverIds({id}).ok());
    one_by_one.Add(manager_->last_recovery_stats());
  }
  ExpectSameCounts(together, one_by_one);
  EXPECT_EQ(ReplicaImages(), images);
  ExpectRecoveredState(again);
}

// Log recovery costs a fixed number of doorbells per window, however many
// coordinators the window holds: 64 coordinators crashed mid-apply fill
// every round of two unequal windows. A window whose records all fit the
// slot probe rings kRoundsPerWindow doorbells; one holding a longer record
// rings one more, for the tails.
TEST_F(RecoveryTest, LogRecoveryRingsFixedDoorbellsPerWindow) {
  constexpr int kCoordinators = 64;
  // 128 slots of 512 bytes: a window is sized as if all 128 slots were
  // probed on each of three servers (96 KiB per coordinator), so it holds
  // 42 coordinators of a 4 MiB buffer.
  log_config_ = {.slots_per_coordinator = 128, .slot_bytes = 512,
                 .max_coordinators = 128};
  for (const bool with_long_record : {false, true}) {
    SCOPED_TRACE(with_long_record ? "one long record" : "short records");
    Rebuild(txn::ProtocolMode::kPandora);
    manager_->Stop();
    const int long_txn = kCoordinators - 1;  // In the last window.
    const std::vector<StagedTxn> staged = StageCrashes(
        /*seed=*/3, kCoordinators, {txn::CrashPoint::kMidCommitApply},
        with_long_record ? std::set<int>{long_txn} : std::set<int>{});
    const uint32_t per_window = manager_->rc().CoordinatorsPerWindow();
    const uint64_t windows = (kCoordinators + per_window - 1) / per_window;
    ASSERT_GT(windows, 1u);
    ASSERT_NE(kCoordinators % per_window, 0u);  // The last window is short.
    ASSERT_EQ(LongRecordSlots(staged[long_txn].id).empty(),
              !with_long_record);

    ASSERT_TRUE(RecoverIds(IdsOf(staged)).ok());
    const RecoveryStats stats = manager_->last_recovery_stats();
    EXPECT_EQ(stats.rolled_back, static_cast<uint64_t>(kCoordinators));
    EXPECT_EQ(stats.torn_records, 0u);
    EXPECT_EQ(stats.doorbells,
              RecoveryCoordinator::kRoundsPerWindow * windows +
                  (with_long_record ? 1 : 0));
    if (!with_long_record) {  // The windows read the slot-0 probes only.
      EXPECT_EQ(stats.log_bytes_read, uint64_t{kCoordinators} *
                                          cluster_->total_memory_nodes() *
                                          RecoveryCoordinator::kLogProbeBytes);
    }
    ExpectRecoveredState(staged);
  }
}

// Records longer than the slot probe recover through the tail round in
// every protocol mode: 320-byte values make each undo entry outgrow the
// probe, whether it sits in Pandora's coordinator record or in the
// baselines' per-object records. One window, one extra doorbell for the
// tails. The baselines' records leave their span unknown, so the rest of
// each area is probed in that doorbell too, and the tails of the long
// records found there ring one more.
TEST_F(RecoveryTest, LongRecordsRecoverWithOneTailDoorbell) {
  value_size_ = 320;
  for (const txn::ProtocolMode mode :
       {txn::ProtocolMode::kPandora, txn::ProtocolMode::kFordBaseline,
        txn::ProtocolMode::kTraditionalLogging}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Rebuild(mode);
    manager_->Stop();
    const std::vector<StagedTxn> staged =
        StageCrashes(/*seed=*/5, /*n=*/10, MixedPoints());
    bool any_long = false;
    for (const StagedTxn& t : staged) {
      any_long = any_long || !LongRecordSlots(t.id).empty();
    }
    ASSERT_TRUE(any_long);

    ASSERT_TRUE(RecoverIds(IdsOf(staged)).ok());
    const RecoveryStats stats = manager_->last_recovery_stats();
    EXPECT_GT(stats.rolled_back, 0u);
    EXPECT_EQ(stats.torn_records, 0u);
    EXPECT_EQ(stats.doorbells,
              RecoveryCoordinator::kRoundsPerWindow +
                  (mode == txn::ProtocolMode::kPandora ? 1 : 2));
    ExpectRecoveredState(staged);
  }
}

// A long record whose header landed but whose tail did not: the tail round
// reads the stale tail, the checksum over the whole record rejects it, and
// the slot counts as torn and is truncated like any other non-empty slot.
// The record's other copy still recovers the transaction. A torn slot 0
// cannot vouch for its span, so the rest of its area is probed one
// doorbell after the tail.
TEST_F(RecoveryTest, TornTailOfLongRecordIsDetectedAndTruncated) {
  manager_->Stop();
  const std::vector<StagedTxn> staged =
      StageCrashes(/*seed=*/9, /*n=*/1, {txn::CrashPoint::kMidCommitApply},
                   /*long_txns=*/{0});
  const auto long_slots = LongRecordSlots(staged[0].id);
  // One copy per server the merged commit touched.
  ASSERT_EQ(long_slots.size(), RecordServers(staged[0].keys).size());
  const auto [node, slot] = long_slots[0];
  const store::LogLayout& layout = cluster_->catalog().log_layout();
  const uint64_t garbage = 0x5eed'5eed'5eed'5eedULL;
  ASSERT_TRUE(cluster_->compute(1)
                  ->qp(node)
                  ->Write(cluster_->catalog().log_rkey(node),
                          layout.SlotOffset(staged[0].id, slot) +
                              RecoveryCoordinator::kLogProbeBytes,
                          &garbage, sizeof(garbage))
                  .ok());

  ASSERT_TRUE(RecoverIds(IdsOf(staged)).ok());
  const RecoveryStats stats = manager_->last_recovery_stats();
  EXPECT_EQ(stats.torn_records, 1u);
  EXPECT_EQ(stats.logged_txns, 1u);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.doorbells, RecoveryCoordinator::kRoundsPerWindow + 2);
  ExpectRecoveredState(staged);
  for (const auto& [n, s] : long_slots) {
    uint64_t magic = 1;
    ASSERT_TRUE(cluster_->compute(1)
                    ->qp(n)
                    ->Read(cluster_->catalog().log_rkey(n),
                           layout.SlotOffset(staged[0].id, s), &magic,
                           sizeof(magic))
                    .ok());
    EXPECT_EQ(magic, store::InvalidRecordMarker())
        << "slot " << s << " on node " << n << " not truncated";
  }
}

// The dense log's probe shape: crashed coordinators whose transactions
// each logged one short record cost exactly one slot-0 probe per server
// and nothing more, in kRoundsPerWindow doorbells.
TEST_F(RecoveryTest, SingleFragmentLogsReadOneProbePerServer) {
  constexpr int kCoordinators = 24;
  manager_->Stop();
  const std::vector<StagedTxn> staged =
      StageCrashes(/*seed=*/7, kCoordinators, MixedPoints());
  ASSERT_TRUE(RecoverIds(IdsOf(staged)).ok());
  const RecoveryStats stats = manager_->last_recovery_stats();
  EXPECT_EQ(stats.log_bytes_read, uint64_t{kCoordinators} *
                                      cluster_->total_memory_nodes() *
                                      RecoveryCoordinator::kLogProbeBytes);
  EXPECT_EQ(stats.doorbells, RecoveryCoordinator::kRoundsPerWindow);
  EXPECT_GT(stats.logged_txns, 0u);
  EXPECT_GT(stats.objects_restored, 0u);  // Every round had work.
  EXPECT_EQ(stats.torn_records, 0u);
  ExpectRecoveredState(staged);
}

// A completed three-fragment transaction leaves fragments in slots 1-2;
// the coordinator's next transaction logs one fragment in slot 0 and
// crashes. Its span of one keeps the stale fragments unread: they cost no
// bytes, add no transaction, restore nothing, release nothing, and stay
// in place (only what recovery read is truncated).
TEST_F(RecoveryTest, StaleFragmentsBeyondTheSpanAreNotRead) {
  RebuildWithSmallSlots();
  auto c0 = MakeCoordinator(0);
  const uint16_t id = c0->coord_id();
  const std::vector<rdma::NodeId> log_servers = RecordServers(WideKeys());
  ASSERT_EQ(log_servers, RecordServers({120, 121}));
  ASSERT_TRUE(c0->Begin().ok());
  for (const store::Key key : WideKeys()) {
    ASSERT_TRUE(c0->Write(table_, key, Padded("wide")).ok());
  }
  ASSERT_TRUE(c0->Commit().ok());
  for (const rdma::NodeId node : log_servers) {
    for (uint32_t slot = 0; slot < 3; ++slot) {
      const Result<store::LogExtent> header = SlotHeader(node, id, slot);
      ASSERT_TRUE(header.ok());
      ASSERT_GT(header.value().bytes, 0u);
      ASSERT_EQ(header.value().span, 3u);
    }
  }

  CrashTxn(c0.get(), txn::CrashPoint::kAfterValidation, {120, 121});
  ASSERT_TRUE(RecoverIds({id}).ok());
  const RecoveryStats stats = manager_->last_recovery_stats();
  EXPECT_EQ(stats.log_bytes_read, cluster_->total_memory_nodes() *
                                      RecoveryCoordinator::kLogProbeBytes);
  EXPECT_EQ(stats.logged_txns, 1u);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.rolled_forward, 0u);
  EXPECT_EQ(stats.objects_restored, 0u);
  EXPECT_EQ(stats.locks_released, 2u);
  for (const rdma::NodeId node : log_servers) {
    EXPECT_EQ(SlotHeader(node, id, 0).value().bytes, 0u);  // Truncated.
    for (uint32_t slot = 1; slot < 3; ++slot) {
      EXPECT_EQ(SlotHeader(node, id, slot).value().span, 3u)
          << "stale fragment in slot " << slot << " was touched";
    }
  }
  for (const store::Key key : WideKeys()) {
    EXPECT_EQ(ReadCommitted(key), Padded("wide"));
    ExpectConsistentAndUnlocked(key);
  }
  for (const store::Key key : {120, 121}) {
    EXPECT_EQ(ReadCommitted(key), Padded("init"));
    ExpectConsistentAndUnlocked(key);
  }
}

// A crashed transaction spanning three slots: the probe of slot 0 tells
// the span, and slots [1, 3) ride the conditional doorbell — one more than
// kRoundsPerWindow, with every fragment merged into one transaction.
TEST_F(RecoveryTest, MultiFragmentSpanIsReadInTheConditionalDoorbell) {
  RebuildWithSmallSlots();
  auto c0 = MakeCoordinator(0);
  const uint16_t id = c0->coord_id();
  CrashTxn(c0.get(), txn::CrashPoint::kMidCommitApply, WideKeys());
  ASSERT_TRUE(RecoverIds({id}).ok());
  const RecoveryStats stats = manager_->last_recovery_stats();
  const uint32_t slot_bytes = log_config_.slot_bytes;
  EXPECT_EQ(stats.log_bytes_read,
            cluster_->total_memory_nodes() *
                    RecoveryCoordinator::kLogProbeBytes +
                2 /*record servers*/ * 2 /*slots 1-2*/ * slot_bytes);
  EXPECT_EQ(stats.doorbells, RecoveryCoordinator::kRoundsPerWindow + 1);
  EXPECT_EQ(stats.logged_txns, 1u);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_GT(stats.objects_restored, 0u);
  EXPECT_EQ(stats.locks_released, WideKeys().size());
  EXPECT_EQ(stats.torn_records, 0u);
  for (const rdma::NodeId node : RecordServers(WideKeys())) {
    for (uint32_t slot = 0; slot < 3; ++slot) {
      EXPECT_EQ(SlotHeader(node, id, slot).value().bytes, 0u)
          << "slot " << slot << " on node " << node << " not truncated";
    }
  }
  for (const store::Key key : WideKeys()) {
    EXPECT_EQ(ReadCommitted(key), Padded("init"));
    ExpectConsistentAndUnlocked(key);
  }
}

// A torn slot-0 header cannot say how far its transaction reaches, so the
// whole rest of the area is read: the locks named only in the later
// fragments are still released. Slot 0's own keys stay locked by the dead
// coordinator — PILL-stealable strays, as for any torn record.
TEST_F(RecoveryTest, TornSlotZeroFallsBackToTheWholeArea) {
  RebuildWithSmallSlots();
  auto c0 = MakeCoordinator(0);
  const uint16_t id = c0->coord_id();
  const std::vector<store::Key> keys = WideKeys();
  const std::vector<rdma::NodeId> log_servers = RecordServers(keys);
  CrashTxn(c0.get(), txn::CrashPoint::kAfterValidation, keys);
  const store::LogLayout& layout = cluster_->catalog().log_layout();
  const uint64_t garbage = 0x5eed'5eed'5eed'5eedULL;
  for (const rdma::NodeId node : log_servers) {
    ASSERT_TRUE(cluster_->compute(1)
                    ->qp(node)
                    ->Write(cluster_->catalog().log_rkey(node),
                            layout.SlotOffset(id, 0), &garbage,
                            sizeof(garbage))
                    .ok());
    ASSERT_FALSE(SlotHeader(node, id, 0).ok());
  }

  ASSERT_TRUE(RecoverIds({id}).ok());
  const RecoveryStats stats = manager_->last_recovery_stats();
  const uint64_t rest_of_area =
      uint64_t{log_config_.slots_per_coordinator - 1} * log_config_.slot_bytes;
  EXPECT_EQ(stats.log_bytes_read,
            cluster_->total_memory_nodes() *
                    RecoveryCoordinator::kLogProbeBytes +
                2 /*record servers*/ * rest_of_area);
  EXPECT_EQ(stats.torn_records, 2u);
  EXPECT_EQ(stats.logged_txns, 1u);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.locks_released, keys.size() - 4);
  for (const rdma::NodeId node : log_servers) {
    for (uint32_t slot = 0; slot < 3; ++slot) {
      const Result<store::LogExtent> header = SlotHeader(node, id, slot);
      EXPECT_TRUE(header.ok() && header.value().bytes == 0)
          << "slot " << slot << " on node " << node << " not truncated";
    }
  }
  for (size_t i = 4; i < keys.size(); ++i) {
    EXPECT_EQ(ReadCommitted(keys[i]), Padded("init"));
    ExpectConsistentAndUnlocked(keys[i]);
  }
  // The first fragment's keys: stray locks of the dead coordinator, which
  // a survivor steals.
  auto c1 = MakeCoordinator(1);
  ASSERT_TRUE(c1->Begin().ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(c1->Write(table_, keys[i], Padded("stolen")).ok());
  }
  ASSERT_TRUE(c1->Commit().ok());
  EXPECT_EQ(c1->stats().locks_stolen, 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ReadCommitted(keys[i]), Padded("stolen"));
    ExpectConsistentAndUnlocked(keys[i]);
  }
}

// A slot-0 record longer than the probe is trusted for its span before
// its checksum is checked, so its span's slots ride the tail's doorbell.
// When the checksum then fails, the span may be torn too: the rest of the
// area is read, one doorbell later. Here the span understates the
// transaction (1 instead of 2), and the locks named only in slot 1 are
// still released.
TEST_F(RecoveryTest, TornLongSlotZeroFallsBackToTheWholeArea) {
  log_config_ = {.slots_per_coordinator = 8, .slot_bytes = 512,
                 .max_coordinators = 512};
  RebuildWithTwoRecordServers();
  auto c0 = MakeCoordinator(0);
  const uint16_t id = c0->coord_id();
  const std::vector<store::Key> keys = WideKeys();
  const std::vector<rdma::NodeId> log_servers = RecordServers(keys);
  CrashTxn(c0.get(), txn::CrashPoint::kAfterValidation, keys);
  const store::LogLayout& layout = cluster_->catalog().log_layout();
  const uint32_t probe = RecoveryCoordinator::kLogProbeBytes;
  size_t slot0_bytes = 0;
  for (const rdma::NodeId node : log_servers) {
    const Result<store::LogExtent> header = SlotHeader(node, id, 0);
    ASSERT_TRUE(header.ok());
    ASSERT_GT(header.value().bytes, probe);
    ASSERT_EQ(header.value().span, 2u);
    slot0_bytes = header.value().bytes;
    // The header word at byte 16: coordinator id, then the span.
    uint64_t word = 0;
    ASSERT_TRUE(cluster_->compute(1)
                    ->qp(node)
                    ->Read(cluster_->catalog().log_rkey(node),
                           layout.SlotOffset(id, 0) + 16, &word, sizeof(word))
                    .ok());
    word = (word & ~uint64_t{0xffff'0000}) | (uint64_t{1} << 16);
    ASSERT_TRUE(cluster_->compute(1)
                    ->qp(node)
                    ->Write(cluster_->catalog().log_rkey(node),
                            layout.SlotOffset(id, 0) + 16, &word,
                            sizeof(word))
                    .ok());
    ASSERT_EQ(SlotHeader(node, id, 0).value().span, 1u);
  }
  // The keys slot 1 holds on the first log server (the same on both).
  std::vector<char> image(log_config_.slot_bytes);
  ASSERT_TRUE(cluster_->compute(1)
                  ->qp(log_servers[0])
                  ->Read(cluster_->catalog().log_rkey(log_servers[0]),
                         layout.SlotOffset(id, 1), image.data(),
                         image.size())
                  .ok());
  store::LogRecord later;
  ASSERT_TRUE(
      store::ParseLogRecord(image.data(), log_config_.slot_bytes, &later)
          .ok());
  ASSERT_FALSE(later.entries.empty());

  ASSERT_TRUE(RecoverIds({id}).ok());
  const RecoveryStats stats = manager_->last_recovery_stats();
  const uint64_t rest_of_area =
      uint64_t{log_config_.slots_per_coordinator - 1} * probe;
  EXPECT_EQ(stats.log_bytes_read,
            cluster_->total_memory_nodes() * probe +
                2 /*record servers*/ *
                    (slot0_bytes - probe + rest_of_area));
  // The tail and the rest of the area add two log doorbells; nothing was
  // applied, so the restore round is empty and rings none.
  EXPECT_EQ(stats.objects_restored, 0u);
  EXPECT_EQ(stats.doorbells, RecoveryCoordinator::kRoundsPerWindow - 1 + 2);
  EXPECT_EQ(stats.torn_records, 2u);
  EXPECT_EQ(stats.logged_txns, 1u);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.locks_released, later.entries.size());
  for (const store::LogEntry& entry : later.entries) {
    EXPECT_EQ(ReadCommitted(entry.key), Padded("init"));
    ExpectConsistentAndUnlocked(entry.key);
  }
  for (const rdma::NodeId node : log_servers) {
    for (uint32_t slot = 0; slot < 2; ++slot) {
      const Result<store::LogExtent> header = SlotHeader(node, id, slot);
      EXPECT_TRUE(header.ok() && header.value().bytes == 0)
          << "slot " << slot << " on node " << node << " not truncated";
    }
  }
}

}  // namespace
}  // namespace pandora
}  // namespace recovery
