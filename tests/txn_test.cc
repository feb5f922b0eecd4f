#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/coding.h"
#include "store/remote_object.h"
#include "txn/coordinator.h"

// ---- Allocation-counting guard ------------------------------------------
// Global operator new override (this test binary only): counts every heap
// allocation so tests can assert that a warm commit never mallocs.
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The replaced operator new allocates with malloc, so free is the match;
// GCC cannot see that once the pair is inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pandora {
namespace txn {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster::ClusterConfig config;
    config.memory_nodes = 3;
    config.compute_nodes = 2;
    config.replication = 2;
    config.net.one_way_ns = 0;
    config.net.per_byte_ns = 0;
    config.log.max_coordinators = 64;
    cluster_ = std::make_unique<cluster::Cluster>(config);
    table_ = cluster_->CreateTable("t", /*value_size=*/16, 256);
    for (store::Key k = 0; k < 100; ++k) {
      std::string v = "init-" + std::to_string(k);
      v.resize(16, '\0');
      ASSERT_TRUE(cluster_->LoadRow(table_, k, v).ok());
    }
  }

  std::unique_ptr<Coordinator> MakeCoordinator(
      uint32_t compute_index, uint16_t coord_id,
      TxnConfig config = TxnConfig()) {
    return std::make_unique<Coordinator>(cluster_.get(),
                                         cluster_->compute(compute_index),
                                         coord_id, config);
  }

  std::string Padded(const std::string& s) {
    std::string v = s;
    v.resize(16, '\0');
    return v;
  }

  // Reads a value through a fresh transaction; EXPECTs success.
  std::string ReadCommitted(Coordinator* coord, store::Key key) {
    EXPECT_TRUE(coord->Begin().ok());
    std::string value;
    EXPECT_TRUE(coord->Read(table_, key, &value).ok());
    EXPECT_TRUE(coord->Commit().ok());
    return value;
  }

  // Inspects a slot's control words directly on a given replica.
  store::SlotState Inspect(store::Key key, rdma::NodeId node) {
    const auto& info = cluster_->catalog().table(table_);
    store::SlotState state;
    // Inspect through the last compute server (tests crash compute 0).
    rdma::QueuePair* qp =
        cluster_->compute(cluster_->num_compute_nodes() - 1)->qp(node);
    EXPECT_TRUE(store::FindSlotByProbe(qp, info.region_rkeys[node],
                                       info.layout, key, &state)
                    .ok());
    return state;
  }

  std::unique_ptr<cluster::Cluster> cluster_;
  store::TableId table_ = 0;
};

TEST_F(TxnTest, ReadYourOwnInitialLoad) {
  auto coord = MakeCoordinator(0, 1);
  EXPECT_EQ(ReadCommitted(coord.get(), 3), Padded("init-3"));
}

TEST_F(TxnTest, CommitUpdatesAllReplicasAndBumpsVersion) {
  auto coord = MakeCoordinator(0, 1);
  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Write(table_, 5, Padded("updated-5")).ok());
  ASSERT_TRUE(coord->Commit().ok());
  EXPECT_EQ(coord->stats().committed, 1u);

  const auto& info = cluster_->catalog().table(table_);
  for (const rdma::NodeId node : cluster_->ReplicaSetFor(table_, 5)) {
    const store::SlotState state = Inspect(5, node);
    EXPECT_EQ(store::VersionOf(state.version), 2u) << "node " << node;
    EXPECT_FALSE(store::LockHeld(state.lock)) << "node " << node;
    alignas(8) char value[16];
    ASSERT_TRUE(cluster_->compute(0)
                    ->qp(node)
                    ->Read(info.region_rkeys[node],
                           info.layout.ValueOffset(state.slot), value, 16)
                    .ok());
    EXPECT_EQ(std::string(value, 16), Padded("updated-5"));
  }
}

TEST_F(TxnTest, ReadYourOwnWrites) {
  auto coord = MakeCoordinator(0, 1);
  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Write(table_, 5, Padded("staged")).ok());
  std::string value;
  ASSERT_TRUE(coord->Read(table_, 5, &value).ok());
  EXPECT_EQ(value, Padded("staged"));
  ASSERT_TRUE(coord->Commit().ok());
}

TEST_F(TxnTest, AbortRestoresNothingAndReleasesLocks) {
  auto coord = MakeCoordinator(0, 1);
  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Write(table_, 5, Padded("doomed")).ok());
  EXPECT_TRUE(coord->Abort().IsAborted());
  EXPECT_EQ(coord->stats().aborted, 1u);

  auto reader = MakeCoordinator(0, 2);
  EXPECT_EQ(ReadCommitted(reader.get(), 5), Padded("init-5"));
  for (const rdma::NodeId node : cluster_->ReplicaSetFor(table_, 5)) {
    EXPECT_FALSE(store::LockHeld(Inspect(5, node).lock));
  }
}

TEST_F(TxnTest, WriteConflictAborts) {
  auto c1 = MakeCoordinator(0, 1);
  auto c2 = MakeCoordinator(1, 2);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 7, Padded("one")).ok());
  ASSERT_TRUE(c2->Begin().ok());
  EXPECT_TRUE(c2->Write(table_, 7, Padded("two")).IsAborted());
  EXPECT_EQ(c2->stats().lock_conflicts, 1u);
  EXPECT_EQ(c2->stats().aborted, 1u);
  EXPECT_FALSE(c2->in_txn());
  // c1 is unaffected and commits.
  ASSERT_TRUE(c1->Commit().ok());
  auto reader = MakeCoordinator(0, 3);
  EXPECT_EQ(ReadCommitted(reader.get(), 7), Padded("one"));
}

TEST_F(TxnTest, ReadOfLockedObjectAborts) {
  auto c1 = MakeCoordinator(0, 1);
  auto c2 = MakeCoordinator(1, 2);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 7, Padded("one")).ok());
  ASSERT_TRUE(c2->Begin().ok());
  std::string value;
  EXPECT_TRUE(c2->Read(table_, 7, &value).IsAborted());
  ASSERT_TRUE(c1->Commit().ok());
}

TEST_F(TxnTest, ValidationCatchesConcurrentUpdate) {
  auto c1 = MakeCoordinator(0, 1);
  auto c2 = MakeCoordinator(1, 2);
  // c1 reads key 9, then c2 updates it before c1 commits.
  ASSERT_TRUE(c1->Begin().ok());
  std::string value;
  ASSERT_TRUE(c1->Read(table_, 9, &value).ok());
  ASSERT_TRUE(c1->Write(table_, 10, Padded("dep")).ok());

  ASSERT_TRUE(c2->Begin().ok());
  ASSERT_TRUE(c2->Write(table_, 9, Padded("sneaky")).ok());
  ASSERT_TRUE(c2->Commit().ok());

  EXPECT_TRUE(c1->Commit().IsAborted());
  EXPECT_EQ(c1->stats().validation_failures, 1u);
  // c1's write to 10 must have been rolled back (never applied) and
  // unlocked.
  auto reader = MakeCoordinator(0, 3);
  EXPECT_EQ(ReadCommitted(reader.get(), 10), Padded("init-10"));
}

TEST_F(TxnTest, ValidationCatchesLockedReadSetObject) {
  auto c1 = MakeCoordinator(0, 1);
  auto c2 = MakeCoordinator(1, 2);
  ASSERT_TRUE(c1->Begin().ok());
  std::string value;
  ASSERT_TRUE(c1->Read(table_, 9, &value).ok());
  ASSERT_TRUE(c1->Write(table_, 10, Padded("dep")).ok());

  // c2 locks 9 (in-flight, not yet committed) while c1 validates.
  ASSERT_TRUE(c2->Begin().ok());
  ASSERT_TRUE(c2->Write(table_, 9, Padded("pending")).ok());

  // Covert Locks fix: c1 must abort even though 9's version is unchanged.
  EXPECT_TRUE(c1->Commit().IsAborted());
  ASSERT_TRUE(c2->Commit().ok());
}

TEST_F(TxnTest, CovertLocksBugMissesLockedReadSet) {
  TxnConfig buggy;
  buggy.bugs.covert_locks = true;
  auto c1 = MakeCoordinator(0, 1, buggy);
  auto c2 = MakeCoordinator(1, 2);
  ASSERT_TRUE(c1->Begin().ok());
  std::string value;
  ASSERT_TRUE(c1->Read(table_, 9, &value).ok());
  ASSERT_TRUE(c1->Write(table_, 10, Padded("dep")).ok());
  ASSERT_TRUE(c2->Begin().ok());
  ASSERT_TRUE(c2->Write(table_, 9, Padded("pending")).ok());
  // With the bug, c1 commits — the serializability hole litmus 2 exposes.
  EXPECT_TRUE(c1->Commit().ok());
  ASSERT_TRUE(c2->Commit().ok());
}

TEST_F(TxnTest, InsertDeleteReinsert) {
  auto coord = MakeCoordinator(0, 1);
  std::string value;

  ASSERT_TRUE(coord->Begin().ok());
  EXPECT_TRUE(coord->Read(table_, 500, &value).IsNotFound());
  ASSERT_TRUE(coord->Commit().ok());

  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Insert(table_, 500, Padded("fresh")).ok());
  ASSERT_TRUE(coord->Commit().ok());
  EXPECT_EQ(ReadCommitted(coord.get(), 500), Padded("fresh"));

  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Delete(table_, 500).ok());
  ASSERT_TRUE(coord->Commit().ok());

  ASSERT_TRUE(coord->Begin().ok());
  EXPECT_TRUE(coord->Read(table_, 500, &value).IsNotFound());
  ASSERT_TRUE(coord->Commit().ok());

  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Insert(table_, 500, Padded("again")).ok());
  ASSERT_TRUE(coord->Commit().ok());
  EXPECT_EQ(ReadCommitted(coord.get(), 500), Padded("again"));
}

TEST_F(TxnTest, DeleteMissingKeyKeepsTxnAlive) {
  auto coord = MakeCoordinator(0, 1);
  ASSERT_TRUE(coord->Begin().ok());
  EXPECT_TRUE(coord->Delete(table_, 12345).IsNotFound());
  ASSERT_TRUE(coord->Write(table_, 3, Padded("still-works")).ok());
  ASSERT_TRUE(coord->Commit().ok());
}

TEST_F(TxnTest, WriteMissingKeyIsNotFound) {
  auto coord = MakeCoordinator(0, 1);
  ASSERT_TRUE(coord->Begin().ok());
  EXPECT_TRUE(
      coord->Write(table_, 99999, Padded("nope")).IsNotFound());
  ASSERT_TRUE(coord->Commit().ok());
}

TEST_F(TxnTest, ReadRange) {
  auto coord = MakeCoordinator(0, 1);
  ASSERT_TRUE(coord->Begin().ok());
  std::vector<std::pair<store::Key, std::string>> rows;
  ASSERT_TRUE(coord->ReadRange(table_, 95, 105, &rows).ok());
  ASSERT_TRUE(coord->Commit().ok());
  // Keys 95..99 exist; 100..105 do not.
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows.front().first, 95u);
  EXPECT_EQ(rows.back().first, 99u);
  EXPECT_EQ(rows.front().second, Padded("init-95"));
}

TEST_F(TxnTest, PillStealsStrayLock) {
  // Coordinator 1 locks key 7 then "crashes" (never completes).
  auto c1 = MakeCoordinator(0, 1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 7, Padded("dying")).ok());
  cluster_->CrashComputeNode(cluster_->compute_node_id(0));

  const rdma::NodeId primary = cluster_->ReplicaSetFor(table_, 7)[0];
  EXPECT_TRUE(store::LockHeld(Inspect(7, primary).lock));

  // Without the failed-ids bit, coordinator 2 conflicts and aborts.
  auto c2 = MakeCoordinator(1, 2);
  ASSERT_TRUE(c2->Begin().ok());
  EXPECT_TRUE(c2->Write(table_, 7, Padded("blocked")).IsAborted());

  // After the stray-lock notification (failed-ids update), it steals.
  cluster_->compute(1)->failed_ids().Set(1);
  ASSERT_TRUE(c2->Begin().ok());
  EXPECT_TRUE(c2->Write(table_, 7, Padded("stolen")).ok());
  EXPECT_EQ(c2->stats().locks_stolen, 1u);
  ASSERT_TRUE(c2->Commit().ok());

  auto reader = MakeCoordinator(1, 3);
  EXPECT_EQ(ReadCommitted(reader.get(), 7), Padded("stolen"));
}

TEST_F(TxnTest, PillReadsThroughStrayLock) {
  auto c1 = MakeCoordinator(0, 1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 7, Padded("dying")).ok());
  cluster_->CrashComputeNode(cluster_->compute_node_id(0));
  cluster_->compute(1)->failed_ids().Set(1);

  auto c2 = MakeCoordinator(1, 2);
  ASSERT_TRUE(c2->Begin().ok());
  std::string value;
  ASSERT_TRUE(c2->Read(table_, 7, &value).ok());
  // The stray lock's owner never updated the object (not logged), so the
  // committed value is observed.
  EXPECT_EQ(value, Padded("init-7"));
  EXPECT_EQ(c2->stats().stray_reads_ignored, 1u);
  ASSERT_TRUE(c2->Commit().ok());
}

TEST_F(TxnTest, BaselineCannotSteal) {
  auto c1 = MakeCoordinator(0, 1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 7, Padded("dying")).ok());
  cluster_->CrashComputeNode(cluster_->compute_node_id(0));
  cluster_->compute(1)->failed_ids().Set(1);

  TxnConfig baseline;
  baseline.mode = ProtocolMode::kFordBaseline;
  auto c2 = MakeCoordinator(1, 2, baseline);
  ASSERT_TRUE(c2->Begin().ok());
  EXPECT_TRUE(c2->Write(table_, 7, Padded("blocked")).IsAborted());
  EXPECT_EQ(c2->stats().locks_stolen, 0u);
}

TEST_F(TxnTest, CrashedCoordinatorAbandonsWithoutCleanup) {
  auto c1 = MakeCoordinator(0, 1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 7, Padded("half-done")).ok());
  cluster_->CrashComputeNode(cluster_->compute_node_id(0));
  EXPECT_TRUE(c1->Commit().IsUnavailable());
  EXPECT_FALSE(c1->in_txn());
  EXPECT_EQ(c1->stats().crashed, 1u);
  // The lock is still held in memory — a stray lock.
  const rdma::NodeId primary = cluster_->ReplicaSetFor(table_, 7)[0];
  EXPECT_TRUE(store::LockHeld(Inspect(7, primary).lock));
  EXPECT_EQ(store::LockOwner(Inspect(7, primary).lock), 1);
}

TEST_F(TxnTest, StallOnConflictWaitsOutRecoveryPendingLock) {
  // §6.4 stalling: a transaction meeting a lock that *awaits recovery*
  // (owner in failed-ids, no PILL stealing available) waits until the
  // recovery path releases it. Live-owner conflicts still abort.
  TxnConfig stall;
  stall.mode = ProtocolMode::kFordBaseline;  // No stealing.
  stall.stall_on_conflict = true;
  stall.stall_timeout_us = 2'000'000;

  // Coordinator 1 locks key 7 and crashes; mark its id failed (the FD
  // notification) without releasing the lock yet.
  auto c1 = MakeCoordinator(0, 1);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 7, Padded("dying")).ok());
  cluster_->CrashComputeNode(cluster_->compute_node_id(0));
  cluster_->compute(1)->failed_ids().Set(1);

  auto c2 = MakeCoordinator(1, 2, stall);
  std::thread t2([&] {
    ASSERT_TRUE(c2->Begin().ok());
    ASSERT_TRUE(c2->Write(table_, 7, Padded("after-wait")).ok());
    ASSERT_TRUE(c2->Commit().ok());
  });
  // Let c2 start stalling, then play the recovery's lock release.
  SleepForMicros(20'000);
  const auto& info = cluster_->catalog().table(table_);
  const rdma::NodeId primary = cluster_->ReplicaSetFor(table_, 7)[0];
  const store::SlotState state = Inspect(7, primary);
  uint64_t observed = 0;
  ASSERT_TRUE(cluster_->compute(1)
                  ->qp(primary)
                  ->CompareSwap(info.region_rkeys[primary],
                                info.layout.LockOffset(state.slot),
                                store::MakeLock(1), store::kUnlocked,
                                &observed)
                  .ok());
  t2.join();
  EXPECT_GT(c2->stats().stall_retries, 0u);

  auto reader = MakeCoordinator(1, 3);
  EXPECT_EQ(ReadCommitted(reader.get(), 7), Padded("after-wait"));
}

TEST_F(TxnTest, LiveConflictAbortsEvenWithStallEnabled) {
  TxnConfig stall;
  stall.stall_on_conflict = true;
  auto c1 = MakeCoordinator(0, 1);
  auto c2 = MakeCoordinator(1, 2, stall);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 7, Padded("live")).ok());
  ASSERT_TRUE(c2->Begin().ok());
  // The owner is alive (not in failed-ids): abort, do not stall.
  EXPECT_TRUE(c2->Write(table_, 7, Padded("loser")).IsAborted());
  EXPECT_EQ(c2->stats().stall_retries, 0u);
  ASSERT_TRUE(c1->Commit().ok());
}

TEST_F(TxnTest, SerializableCounterUnderConcurrency) {
  // N coordinators increment the same counter with read-modify-write
  // transactions; committed increments must all survive (no lost updates).
  constexpr int kThreads = 4;
  constexpr int kAttempts = 300;
  std::string zero(16, '\0');
  {
    auto init = MakeCoordinator(0, 60);
    ASSERT_TRUE(init->Begin().ok());
    ASSERT_TRUE(init->Write(table_, 50, zero).ok());
    ASSERT_TRUE(init->Commit().ok());
  }
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto coord = MakeCoordinator(t % 2, static_cast<uint16_t>(10 + t));
      for (int i = 0; i < kAttempts; ++i) {
        if (!coord->Begin().ok()) continue;
        std::string value;
        if (!coord->Read(table_, 50, &value).ok()) continue;
        uint64_t counter = DecodeFixed64(value.data());
        char buf[16] = {0};
        EncodeFixed64(buf, counter + 1);
        if (!coord->Write(table_, 50, Slice(buf, 16)).ok()) continue;
        if (coord->Commit().ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  auto reader = MakeCoordinator(0, 61);
  const std::string final_value = ReadCommitted(reader.get(), 50);
  EXPECT_EQ(DecodeFixed64(final_value.data()), committed.load());
  EXPECT_GT(committed.load(), 0u);
}

TEST_F(TxnTest, TraditionalLoggingCommitsCorrectly) {
  TxnConfig traditional;
  traditional.mode = ProtocolMode::kTraditionalLogging;
  auto coord = MakeCoordinator(0, 1, traditional);
  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Write(table_, 5, Padded("trad")).ok());
  ASSERT_TRUE(coord->Commit().ok());
  // Intent + undo record per write.
  EXPECT_GE(coord->stats().log_records_written, 2u);
  auto reader = MakeCoordinator(0, 2);
  EXPECT_EQ(ReadCommitted(reader.get(), 5), Padded("trad"));
}

TEST_F(TxnTest, EmptyTxnCommits) {
  auto coord = MakeCoordinator(0, 1);
  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Commit().ok());
  EXPECT_EQ(coord->stats().committed, 1u);
}

TEST_F(TxnTest, ApiRejectsUseOutsideTxn) {
  auto coord = MakeCoordinator(0, 1);
  std::string value;
  EXPECT_TRUE(coord->Read(table_, 1, &value).IsInvalidArgument());
  EXPECT_TRUE(coord->Write(table_, 1, Padded("x")).IsInvalidArgument());
  EXPECT_TRUE(coord->Commit().IsInvalidArgument());
  EXPECT_TRUE(coord->Abort().IsInvalidArgument());
  ASSERT_TRUE(coord->Begin().ok());
  EXPECT_TRUE(coord->Begin().IsInvalidArgument());
}


TEST_F(TxnTest, NvmFlushIssuedOnlyInNvmMode) {
  // Rebuild the cluster in NVM mode.
  cluster::ClusterConfig config;
  config.memory_nodes = 3;
  config.compute_nodes = 2;
  config.replication = 2;
  config.net.one_way_ns = 0;
  config.net.per_byte_ns = 0;
  config.log.max_coordinators = 64;
  config.persistence = cluster::PersistenceMode::kNvmWithFlush;
  cluster::Cluster nvm_cluster(config);
  const store::TableId table = nvm_cluster.CreateTable("t", 16, 64);
  ASSERT_TRUE(nvm_cluster.LoadRow(table, 1, Padded("x")).ok());

  txn::Coordinator coord(&nvm_cluster, nvm_cluster.compute(0), 1,
                         TxnConfig());
  ASSERT_TRUE(coord.Begin().ok());
  ASSERT_TRUE(coord.Write(table, 1, Padded("durable")).ok());
  ASSERT_TRUE(coord.Commit().ok());
  // One flush group after the log write + one after the commit apply.
  EXPECT_GE(coord.stats().nvm_flushes, 2u);

  // The default (volatile DRAM) fixture never flushes.
  auto plain = MakeCoordinator(0, 2);
  ASSERT_TRUE(plain->Begin().ok());
  ASSERT_TRUE(plain->Write(table_, 1, Padded("plain")).ok());
  ASSERT_TRUE(plain->Commit().ok());
  EXPECT_EQ(plain->stats().nvm_flushes, 0u);
}

// The doorbell-batching ablation lives in the fabric: every verb waits out
// its own round trip, while the protocol posts the same groups and its
// RTT and doorbell counters still count groups.
TEST_F(TxnTest, SequentialVerbsModeStillCorrect) {
  cluster::ClusterConfig config;
  config.memory_nodes = 3;
  config.compute_nodes = 2;
  config.replication = 2;
  config.net.one_way_ns = 0;
  config.net.per_byte_ns = 0;
  config.net.sequential_verbs = true;
  config.log.max_coordinators = 64;
  cluster::Cluster seq_cluster(config);
  const store::TableId table = seq_cluster.CreateTable("t", 16, 64);
  for (store::Key k = 0; k < 10; ++k) {
    ASSERT_TRUE(seq_cluster.LoadRow(table, k, Padded("init")).ok());
  }

  Coordinator coord(&seq_cluster, seq_cluster.compute(0), 1, TxnConfig());
  ASSERT_TRUE(coord.Begin().ok());
  ASSERT_TRUE(coord.Write(table, 5, Padded("seq")).ok());
  ASSERT_TRUE(coord.Write(table, 6, Padded("seq")).ok());
  ASSERT_TRUE(coord.Commit().ok());
  EXPECT_EQ(coord.stats().commit_rtts, 1u);  // One merged commit group.

  Coordinator reader(&seq_cluster, seq_cluster.compute(1), 2, TxnConfig());
  for (const store::Key key : {5, 6}) {
    ASSERT_TRUE(reader.Begin().ok());
    std::string value;
    ASSERT_TRUE(reader.Read(table, key, &value).ok());
    ASSERT_TRUE(reader.Commit().ok());
    EXPECT_EQ(value, Padded("seq"));
  }
}

// A crash hook changes no verb the protocol posts: a coordinator with a
// hook that never fires pays exactly the round trips, doorbells and log
// records of an unhooked one, on the same transaction.
TEST_F(TxnTest, CrashHookDoesNotChangeTheProtocol) {
  class NeverCrash : public CrashHook {
   public:
    bool MaybeCrash(CrashPoint) override { return false; }
  };
  NeverCrash hook;
  auto hooked = MakeCoordinator(0, 1);
  hooked->set_crash_hook(&hook);
  auto plain = MakeCoordinator(0, 2);
  for (Coordinator* coord : {hooked.get(), plain.get()}) {
    ASSERT_TRUE(coord->Begin().ok());
    std::string value;
    ASSERT_TRUE(coord->Read(table_, 40, &value).ok());
    ASSERT_TRUE(coord->Write(table_, 10, Padded("a")).ok());
    ASSERT_TRUE(coord->Write(table_, 20, Padded("b")).ok());
    ASSERT_TRUE(coord->Commit().ok());
  }
  const TxnStats& a = hooked->stats();
  const TxnStats& b = plain->stats();
  EXPECT_EQ(a.execution_rtts, b.execution_rtts);
  EXPECT_EQ(a.commit_rtts, b.commit_rtts);
  EXPECT_EQ(a.doorbells, b.doorbells);
  EXPECT_EQ(a.log_records_written, b.log_records_written);
  EXPECT_EQ(a.committed, 1u);
}

// Protocol-mode sweep: the three protocols must agree on basic
// transactional behaviour (commit, rollback-on-abort, conflict).
class ProtocolSweep : public TxnTest,
                      public ::testing::WithParamInterface<ProtocolMode> {};

TEST_P(ProtocolSweep, CommitAbortConflict) {
  TxnConfig config;
  config.mode = GetParam();
  auto c1 = MakeCoordinator(0, 1, config);
  auto c2 = MakeCoordinator(1, 2, config);

  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 20, Padded("v1")).ok());
  ASSERT_TRUE(c1->Commit().ok());

  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 20, Padded("v2")).ok());
  EXPECT_TRUE(c1->Abort().IsAborted());

  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c1->Write(table_, 20, Padded("v3")).ok());
  ASSERT_TRUE(c2->Begin().ok());
  EXPECT_TRUE(c2->Write(table_, 20, Padded("loser")).IsAborted());
  ASSERT_TRUE(c1->Commit().ok());

  auto reader = MakeCoordinator(0, 3, config);
  EXPECT_EQ(ReadCommitted(reader.get(), 20), Padded("v3"));
}

INSTANTIATE_TEST_SUITE_P(Modes, ProtocolSweep,
                         ::testing::Values(ProtocolMode::kPandora,
                                           ProtocolMode::kFordBaseline,
                                           ProtocolMode::kTraditionalLogging));

TEST_F(TxnTest, PipelinedLockAndFetchCostsOneRoundTrip) {
  // §3.1.1: with the address cache warm, staging a write is one doorbell
  // (lock CAS + speculative undo read) under pipelining, two round trips
  // without it.
  auto coord = MakeCoordinator(0, 1);
  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Write(table_, 5, Padded("warm")).ok());
  ASSERT_TRUE(coord->Commit().ok());

  const uint64_t before = coord->stats().execution_rtts;
  const uint64_t doorbells_before = coord->stats().doorbells;
  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Write(table_, 5, Padded("hot")).ok());
  EXPECT_EQ(coord->stats().execution_rtts - before, 1u);
  EXPECT_EQ(coord->stats().doorbells - doorbells_before, 1u);
  ASSERT_TRUE(coord->Commit().ok());

  TxnConfig unpipelined;
  unpipelined.pipeline_execution = false;
  auto coord2 = MakeCoordinator(0, 2, unpipelined);
  ASSERT_TRUE(coord2->Begin().ok());
  ASSERT_TRUE(coord2->Write(table_, 5, Padded("warm2")).ok());
  ASSERT_TRUE(coord2->Commit().ok());

  const uint64_t before2 = coord2->stats().execution_rtts;
  ASSERT_TRUE(coord2->Begin().ok());
  ASSERT_TRUE(coord2->Write(table_, 5, Padded("hot2")).ok());
  EXPECT_EQ(coord2->stats().execution_rtts - before2, 2u);
  ASSERT_TRUE(coord2->Commit().ok());

  auto reader = MakeCoordinator(1, 3);
  EXPECT_EQ(ReadCommitted(reader.get(), 5), Padded("hot2"));
}

TEST_F(TxnTest, BatchedReadRangeUsesMaxRttRounds) {
  // 10 keys, addresses pre-warmed by the bulk loader: the sequential path
  // pays one slot-read round trip per key; the batched path reads all ten
  // slots in a single combined doorbell.
  auto pipelined = MakeCoordinator(0, 1);
  std::vector<std::pair<store::Key, std::string>> out;
  ASSERT_TRUE(pipelined->Begin().ok());
  ASSERT_TRUE(pipelined->ReadRange(table_, 0, 9, &out).ok());
  ASSERT_TRUE(pipelined->Commit().ok());
  ASSERT_EQ(out.size(), 10u);
  for (store::Key k = 0; k < 10; ++k) {
    EXPECT_EQ(out[k].first, k);
    EXPECT_EQ(out[k].second, Padded("init-" + std::to_string(k)));
  }
  const uint64_t batched_rtts = pipelined->stats().execution_rtts;

  TxnConfig unpipelined_cfg;
  unpipelined_cfg.pipeline_execution = false;
  auto unpipelined = MakeCoordinator(1, 2, unpipelined_cfg);
  out.clear();
  ASSERT_TRUE(unpipelined->Begin().ok());
  ASSERT_TRUE(unpipelined->ReadRange(table_, 0, 9, &out).ok());
  ASSERT_TRUE(unpipelined->Commit().ok());
  ASSERT_EQ(out.size(), 10u);
  const uint64_t sequential_rtts = unpipelined->stats().execution_rtts;

  EXPECT_LT(batched_rtts, sequential_rtts);
  EXPECT_GE(sequential_rtts, 10u);
  EXPECT_EQ(batched_rtts, 1u);
}

TEST(PipelineTimingTest, LockAndFetchWaitsOneRttNotTwo) {
  // Timing regression for the tentpole claim: with a measurable network
  // model, the pipelined lock+fetch spins out a single round trip.
  cluster::ClusterConfig config;
  config.memory_nodes = 3;
  config.compute_nodes = 1;
  config.replication = 2;
  config.net.one_way_ns = 200'000;  // 400 us RTT: dwarfs scheduling noise.
  config.net.per_byte_ns = 0;
  config.log.max_coordinators = 64;
  cluster::Cluster cluster(config);
  const store::TableId table = cluster.CreateTable("t", 16, 64);
  std::string v(16, 'x');
  ASSERT_TRUE(cluster.LoadRow(table, 1, v).ok());

  for (const bool pipelined : {true, false}) {
    TxnConfig txn_config;
    txn_config.pipeline_execution = pipelined;
    Coordinator coord(&cluster, cluster.compute(0),
                      pipelined ? 1 : 2, txn_config);
    // Warm the address cache so the measured Write is only lock+fetch.
    ASSERT_TRUE(coord.Begin().ok());
    ASSERT_TRUE(coord.Write(table, 1, Slice(v)).ok());
    ASSERT_TRUE(coord.Commit().ok());

    ASSERT_TRUE(coord.Begin().ok());
    const uint64_t t0 = NowNanos();
    ASSERT_TRUE(coord.Write(table, 1, Slice(v)).ok());
    const uint64_t elapsed = NowNanos() - t0;
    EXPECT_TRUE(coord.Abort().IsAborted());
    if (pipelined) {
      EXPECT_GE(elapsed, 400'000u);  // One full round trip...
      EXPECT_LT(elapsed, 780'000u);  // ...but clearly not two.
    } else {
      EXPECT_GE(elapsed, 800'000u);  // CAS then fetch: two round trips.
    }
  }
}

// Locator vs. membership failover: a warm Locator must never serve a
// placement decision from before a failover. Crashing a key's primary bumps
// the cluster placement epoch, so the next lookup re-walks the ring (a
// miss) and the operation lands on the surviving backup.
TEST_F(TxnTest, PlacementCacheInvalidatedByMemoryFailover) {
  auto coord = MakeCoordinator(0, 1);

  // Warm the Locator across many keys.
  for (store::Key k = 0; k < 50; ++k) {
    ReadCommitted(coord.get(), k);
  }
  EXPECT_GT(coord->stats().placement_misses, 0u);

  // Re-reading the same keys is now mostly hits; the direct-mapped Locator
  // may evict a handful of colliding keys, so bound rather than forbid
  // repeat misses.
  const uint64_t misses_warm = coord->stats().placement_misses;
  const uint64_t hits_before = coord->stats().placement_hits;
  for (store::Key k = 0; k < 50; ++k) {
    ReadCommitted(coord.get(), k);
  }
  EXPECT_GT(coord->stats().placement_hits, hits_before + 30);
  EXPECT_LT(coord->stats().placement_misses, misses_warm + 15);

  // Find a key whose primary is node 0, then crash node 0.
  store::Key victim = store::kFreeKey;
  for (store::Key k = 0; k < 100; ++k) {
    if (cluster_->PrimaryFor(table_, k) == 0) {
      victim = k;
      break;
    }
  }
  ASSERT_NE(victim, store::kFreeKey);
  const auto replicas = cluster_->ReplicaSetFor(table_, victim);
  cluster_->CrashMemoryNode(0);

  // The epoch bump invalidates every entry: the next transaction on the
  // victim key misses, re-resolves, and commits against the surviving
  // backup rather than the dead primary.
  const uint64_t misses_after_crash = coord->stats().placement_misses;
  ASSERT_TRUE(coord->Begin().ok());
  ASSERT_TRUE(coord->Write(table_, victim, Padded("failover")).ok());
  ASSERT_TRUE(coord->Commit().ok());
  EXPECT_GT(coord->stats().placement_misses, misses_after_crash);
  EXPECT_EQ(cluster_->PrimaryFor(table_, victim), replicas[1]);
  const store::SlotState state = Inspect(victim, replicas[1]);
  EXPECT_EQ(store::VersionOf(state.version), 2u);

  auto reader = MakeCoordinator(1, 2);
  EXPECT_EQ(ReadCommitted(reader.get(), victim), Padded("failover"));
}

// Baseline records take one slot each, counted per transaction from slot 0
// on every server. The write that would need a slot past a server's area
// aborts the transaction cleanly, posting nothing: earlier records are
// invalidated, locks released, and no record is overwritten. The limit is
// per server, so the failing write is predicted from placement: FORD posts
// one record per object replica, traditional logging adds a lock intent
// on each designated log server.
TEST_F(TxnTest, BaselineWriterAbortsWhenAServerLogAreaIsFull) {
  const store::LogLayout& layout = cluster_->catalog().log_layout();
  const uint32_t slots = layout.config().slots_per_coordinator;
  uint16_t id = 1;
  for (const ProtocolMode mode :
       {ProtocolMode::kFordBaseline, ProtocolMode::kTraditionalLogging}) {
    SCOPED_TRACE(static_cast<int>(mode));
    TxnConfig config;
    config.mode = mode;
    auto coord = MakeCoordinator(0, ++id, config);
    const cluster::ReplicaSet log_servers =
        LogWriter::LogServersFor(*cluster_, id);

    std::vector<uint32_t> used(cluster_->total_memory_nodes(), 0);
    ASSERT_TRUE(coord->Begin().ok());
    std::vector<store::Key> keys;
    Status status;
    bool expect_full = false;
    for (store::Key key = 0; key < 100 && status.ok(); ++key) {
      std::vector<uint32_t> next = used;
      if (mode == ProtocolMode::kTraditionalLogging) {
        for (const rdma::NodeId node : log_servers) next[node]++;
      }
      for (const rdma::NodeId node : cluster_->ReplicaSetFor(table_, key)) {
        next[node]++;
      }
      expect_full = false;
      for (const uint32_t n : next) expect_full = expect_full || n > slots;
      keys.push_back(key);
      status = coord->Write(table_, key, Padded("full"));
      used = next;
    }
    ASSERT_TRUE(expect_full) << "the write set never filled a server";
    EXPECT_TRUE(status.IsAborted()) << status.ToString();
    EXPECT_EQ(coord->stats().aborted, 1u);
    EXPECT_GT(keys.size(), slots / 2) << "aborted before any area was full";

    // The transaction is over: nothing locked or changed, the coordinator
    // takes the next one, and no undo record is left valid (lock intents
    // stay; a stale intent is a no-op for recovery).
    auto reader = MakeCoordinator(1, 60);
    for (const store::Key key : keys) {
      for (const rdma::NodeId node : cluster_->ReplicaSetFor(table_, key)) {
        EXPECT_FALSE(store::LockHeld(Inspect(key, node).lock))
            << "key " << key << " on node " << node;
      }
      EXPECT_EQ(ReadCommitted(reader.get(), key),
                Padded("init-" + std::to_string(key)));
    }
    for (uint32_t m = 0; m < cluster_->total_memory_nodes(); ++m) {
      const rdma::NodeId node = cluster_->memory_node_id(m);
      for (uint32_t slot = 0; slot < slots; ++slot) {
        std::vector<char> image(layout.config().slot_bytes);
        ASSERT_TRUE(cluster_->compute(1)
                        ->qp(node)
                        ->Read(cluster_->catalog().log_rkey(node),
                               layout.SlotOffset(id, slot), image.data(),
                               image.size())
                        .ok());
        store::LogRecord record;
        if (!store::ParseLogRecord(image.data(), image.size(), &record)
                 .ok()) {
          continue;
        }
        EXPECT_EQ(record.span, 0u);  // Posted one at a time.
        for (const store::LogEntry& entry : record.entries) {
          EXPECT_TRUE(entry.is_lock_intent)
              << "undo record of key " << entry.key << " left in slot "
              << slot << " on node " << node;
        }
      }
    }
    ASSERT_TRUE(coord->Begin().ok());
    ASSERT_TRUE(coord->Write(table_, 0, Padded("init-0")).ok());
    ASSERT_TRUE(coord->Commit().ok());
  }
}

// A warm merged-path commit (validation, log fragments, applies and unlocks
// in one doorbell group) must not touch the heap: the ordered chains, the
// validation buffer and the log and apply buffers are all reused.
TEST_F(TxnTest, WarmMergedCommitIsAllocationFree) {
  auto coord = MakeCoordinator(0, 1);
  for (const bool with_read : {false, true}) {
    uint64_t allocations = 0;
    for (int round = 0; round < 4; ++round) {
      ASSERT_TRUE(coord->Begin().ok());
      std::string value;
      if (with_read) {
        ASSERT_TRUE(coord->Read(table_, 40, &value).ok());
      }
      ASSERT_TRUE(coord->Write(table_, 10, Padded("a")).ok());
      ASSERT_TRUE(coord->Write(table_, 20, Padded("b")).ok());
      const uint64_t before = g_heap_allocations.load();
      const Status status = coord->Commit();
      const uint64_t after = g_heap_allocations.load();
      ASSERT_TRUE(status.ok()) << status.ToString();
      if (round > 0) allocations += after - before;  // Round 0 warms up.
    }
    EXPECT_EQ(allocations, 0u)
        << "warm Commit() allocated " << allocations << " times over 3 "
        << (with_read ? "write+read" : "write-only") << " transactions";
  }
}

}  // namespace
}  // namespace txn
}  // namespace pandora
