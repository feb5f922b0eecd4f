#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/locator.h"
#include "cluster/reconfig.h"
#include "common/checksum.h"
#include "common/coding.h"
#include "common/fixed_bitset.h"
#include "store/log_layout.h"
#include "store/object_header.h"
#include "store/remote_object.h"

// ---- Allocation-counting guard ------------------------------------------
// Global operator new override (this test binary only): counts every heap
// allocation so tests can assert that the Locator and the touched-server
// collection never malloc per lookup.
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
namespace cluster {
namespace {

// ----------------------------------------------------------------- Ring --

TEST(HashRingTest, ReplicasAreDistinctAndStable) {
  HashRing ring({0, 1, 2, 3}, /*replication=*/3);
  for (store::Key key = 0; key < 200; ++key) {
    const ReplicaSet replicas = ring.ReplicaSetFor(1, key);
    ASSERT_EQ(replicas.size(), 3u);
    std::set<rdma::NodeId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 3u);
    // Deterministic.
    EXPECT_EQ(replicas, ring.ReplicaSetFor(1, key));
    // Hash-keyed entry point agrees with the (table, key) entry point.
    EXPECT_EQ(ring.ReplicaSetForHash(HashRing::PlacementHash(1, key)),
              replicas);
  }
}

TEST(HashRingTest, PrimariesAreBalanced) {
  HashRing ring({0, 1, 2, 3}, 2);
  std::map<rdma::NodeId, int> primary_count;
  constexpr int kKeys = 8000;
  for (store::Key key = 0; key < kKeys; ++key) {
    primary_count[ring.ReplicaSetFor(0, key)[0]]++;
  }
  for (const auto& [node, count] : primary_count) {
    // Within a factor of ~2 of perfectly even (consistent hashing with 64
    // vnodes is not perfectly uniform).
    EXPECT_GT(count, kKeys / 8) << "node " << node;
    EXPECT_LT(count, kKeys / 2) << "node " << node;
  }
}

TEST(HashRingTest, TablesPlaceIndependently) {
  HashRing ring({0, 1, 2}, 1);
  int diff = 0;
  for (store::Key key = 0; key < 300; ++key) {
    if (ring.ReplicaSetFor(0, key)[0] != ring.ReplicaSetFor(1, key)[0]) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 50);
}

// Property: removing one node never changes the replica *prefix* for keys
// it did not serve — the essence of consistent hashing (minimal movement).
TEST(HashRingTest, NodeRemovalMovesOnlyAffectedKeys) {
  HashRing full({0, 1, 2, 3}, 1);
  HashRing without3({0, 1, 2}, 1);
  for (store::Key key = 0; key < 2000; ++key) {
    const rdma::NodeId before = full.ReplicaSetFor(0, key)[0];
    const rdma::NodeId after = without3.ReplicaSetFor(0, key)[0];
    if (before != 3) {
      EXPECT_EQ(after, before) << "key " << key << " moved unnecessarily";
    }
  }
}

// -------------------------------------------------------------- Cluster --

ClusterConfig TestConfig() {
  ClusterConfig config;
  config.memory_nodes = 3;
  config.compute_nodes = 2;
  config.replication = 2;
  config.net.one_way_ns = 0;
  config.net.per_byte_ns = 0;
  config.log.max_coordinators = 16;
  return config;
}

TEST(ClusterTest, NodeIdConvention) {
  Cluster cluster(TestConfig());
  EXPECT_EQ(cluster.memory_node_id(0), 0);
  EXPECT_EQ(cluster.memory_node_id(2), 2);
  EXPECT_EQ(cluster.compute_node_id(0), 3);
  EXPECT_EQ(cluster.compute_node_id(1), 4);
  EXPECT_EQ(cluster.service_node_id(), 5);
  EXPECT_EQ(cluster.ComputeServers().size(), 2u);
}

TEST(ClusterTest, LoadAndReadBackThroughVerbs) {
  Cluster cluster(TestConfig());
  const store::TableId t =
      cluster.CreateTable("accounts", /*value_size=*/16, 100);
  const char value[16] = "hello-balance";
  ASSERT_TRUE(cluster.LoadRow(t, 7, Slice(value, 16)).ok());

  const auto& info = cluster.catalog().table(t);
  for (const rdma::NodeId node : cluster.ReplicaSetFor(t, 7)) {
    rdma::QueuePair* qp = cluster.compute(0)->qp(node);
    store::SlotState state;
    ASSERT_TRUE(store::FindSlotByProbe(qp, info.region_rkeys[node],
                                       info.layout, 7, &state)
                    .ok());
    EXPECT_EQ(store::VersionOf(state.version), 1u);
    EXPECT_FALSE(store::LockHeld(state.lock));
    alignas(8) char read_back[16] = {0};
    ASSERT_TRUE(qp->Read(info.region_rkeys[node],
                         info.layout.ValueOffset(state.slot), read_back, 16)
                    .ok());
    EXPECT_EQ(std::memcmp(read_back, value, 16), 0);
    // Address cache agrees with the probe.
    const auto cached = cluster.addresses().Lookup(t, node, 7);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(*cached, state.slot);
  }
}

TEST(ClusterTest, RejectsOversizedValueAndReservedKey) {
  Cluster cluster(TestConfig());
  const store::TableId t = cluster.CreateTable("t", 8, 10);
  const char big[32] = {0};
  EXPECT_TRUE(cluster.LoadRow(t, 1, Slice(big, 32)).IsInvalidArgument());
  EXPECT_TRUE(
      cluster.LoadRow(t, store::kFreeKey, Slice(big, 8)).IsInvalidArgument());
}

TEST(ClusterTest, KeyZeroIsLegal) {
  Cluster cluster(TestConfig());
  const store::TableId t = cluster.CreateTable("t", 8, 10);
  const char v[8] = "zero";
  ASSERT_TRUE(cluster.LoadRow(t, 0, Slice(v, 8)).ok());
  const rdma::NodeId node = cluster.ReplicaSetFor(t, 0)[0];
  const auto& info = cluster.catalog().table(t);
  store::SlotState state;
  EXPECT_TRUE(store::FindSlotByProbe(cluster.compute(0)->qp(node),
                                     info.region_rkeys[node], info.layout, 0,
                                     &state)
                  .ok());
}

TEST(ClusterTest, PrimaryFailsOverToBackup) {
  Cluster cluster(TestConfig());
  const store::TableId t = cluster.CreateTable("t", 8, 100);
  const char v[8] = "x";
  for (store::Key k = 0; k < 50; ++k) {
    ASSERT_TRUE(cluster.LoadRow(t, k, Slice(v, 8)).ok());
  }
  for (store::Key k = 0; k < 50; ++k) {
    const ReplicaSet replicas = cluster.ReplicaSetFor(t, k);
    EXPECT_EQ(cluster.PrimaryFor(t, k), replicas[0]);
  }
  const uint64_t epoch_before = cluster.membership().epoch();
  cluster.CrashMemoryNode(0);
  EXPECT_GT(cluster.membership().epoch(), epoch_before);
  for (store::Key k = 0; k < 50; ++k) {
    const ReplicaSet replicas = cluster.ReplicaSetFor(t, k);
    const rdma::NodeId primary = cluster.PrimaryFor(t, k);
    if (replicas[0] == 0) {
      // New primary is the first alive backup, which holds the data.
      EXPECT_EQ(primary, replicas[1]);
    } else {
      EXPECT_EQ(primary, replicas[0]);
    }
    EXPECT_NE(primary, 0);
  }
}

TEST(ClusterTest, CrashedMemoryNodeFailsVerbs) {
  Cluster cluster(TestConfig());
  const store::TableId t = cluster.CreateTable("t", 8, 10);
  const char v[8] = "x";
  ASSERT_TRUE(cluster.LoadRow(t, 1, Slice(v, 8)).ok());
  cluster.CrashMemoryNode(1);
  const auto& info = cluster.catalog().table(t);
  alignas(8) char buf[8];
  EXPECT_TRUE(cluster.compute(0)
                  ->qp(1)
                  ->Read(info.region_rkeys[1], 0, buf, 8)
                  .IsUnavailable());
}

TEST(ClusterTest, CrashAndRestartComputeNode) {
  Cluster cluster(TestConfig());
  const rdma::NodeId node = cluster.compute_node_id(0);
  EXPECT_FALSE(cluster.compute(0)->halted());
  cluster.CrashComputeNode(node);
  EXPECT_TRUE(cluster.compute(0)->halted());
  cluster.RestartComputeNode(node);
  EXPECT_FALSE(cluster.compute(0)->halted());
}

TEST(ClusterTest, MembershipReconfigurationBarrier) {
  Membership membership;
  EXPECT_FALSE(membership.reconfiguring());
  membership.BeginReconfiguration();
  EXPECT_TRUE(membership.reconfiguring());
  membership.EndReconfiguration();
  EXPECT_FALSE(membership.reconfiguring());
  // The barrier nests: a recovery finishing inside an online migration's
  // window must not release the migration's stall.
  membership.BeginReconfiguration();
  membership.BeginReconfiguration();
  EXPECT_TRUE(membership.reconfiguring());
  membership.EndReconfiguration();
  EXPECT_TRUE(membership.reconfiguring());
  membership.EndReconfiguration();
  EXPECT_FALSE(membership.reconfiguring());
}

// Replication sweep: loading under different (memory_nodes, replication)
// shapes must place every row on exactly `replication` distinct servers.
class ReplicationSweep
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(ReplicationSweep, EveryRowOnExactlyRReplicas) {
  const auto [memory_nodes, replication] = GetParam();
  ClusterConfig config = TestConfig();
  config.memory_nodes = memory_nodes;
  config.replication = replication;
  Cluster cluster(config);
  const store::TableId t = cluster.CreateTable("t", 8, 64);
  const char v[8] = "x";
  for (store::Key k = 0; k < 64; ++k) {
    ASSERT_TRUE(cluster.LoadRow(t, k, Slice(v, 8)).ok());
    int copies = 0;
    const auto& info = cluster.catalog().table(t);
    for (uint32_t m = 0; m < memory_nodes; ++m) {
      store::SlotState state;
      if (store::FindSlotByProbe(cluster.compute(0)->qp(m),
                                 info.region_rkeys[m], info.layout, k,
                                 &state)
              .ok()) {
        ++copies;
      }
    }
    EXPECT_EQ(copies, static_cast<int>(replication)) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReplicationSweep,
                         ::testing::Values(std::make_pair(2u, 1u),
                                           std::make_pair(2u, 2u),
                                           std::make_pair(4u, 3u),
                                           std::make_pair(5u, 2u)));

// --------------------------------------------- Placement fast path ------

// Vnode load-balance bound: with 64 vnodes/node the primary ownership of a
// large uniform hash sample must stay within a small max/min ratio. This is
// the property the scale-out bench leans on — a skewed ring would turn the
// scaling matrix into a hot-node bench.
TEST(HashRingTest, VnodeLoadBalanceBound) {
  std::vector<rdma::NodeId> nodes;
  for (rdma::NodeId n = 0; n < 16; ++n) nodes.push_back(n);
  HashRing ring(nodes, /*replication=*/3);
  std::map<rdma::NodeId, uint64_t> primary_count;
  constexpr uint64_t kSamples = 1'000'000;
  // Sample placement hashes directly (what the cache is keyed on) rather
  // than sequential keys, so the bound covers the full hash space.
  uint64_t hash = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < kSamples; ++i) {
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdull;
    hash ^= hash >> 29;
    const ReplicaSet replicas = ring.ReplicaSetForHash(hash);
    ASSERT_EQ(replicas.size(), 3u);
    primary_count[replicas[0]]++;
  }
  ASSERT_EQ(primary_count.size(), 16u) << "some node owns no keys";
  uint64_t min_count = kSamples;
  uint64_t max_count = 0;
  for (const auto& [node, count] : primary_count) {
    min_count = std::min(min_count, count);
    max_count = std::max(max_count, count);
  }
  EXPECT_LT(static_cast<double>(max_count) / static_cast<double>(min_count),
            2.0)
      << "max " << max_count << " min " << min_count;
}

TEST(HashRingTest, RingsGetDistinctEpochs) {
  HashRing a({0, 1}, 1);
  HashRing b({0, 1}, 1);
  EXPECT_NE(a.epoch(), b.epoch());
}

// Loads keys [0, n) of a fresh 8-byte table.
store::TableId LoadKeys(Cluster* cluster, store::Key n) {
  const store::TableId t = cluster->CreateTable("t", 8, n);
  const char v[8] = "x";
  for (store::Key k = 0; k < n; ++k) {
    EXPECT_TRUE(cluster->LoadRow(t, k, Slice(v, 8)).ok());
  }
  return t;
}

TEST(LocatorTest, HitAtInsertEpochMissAfterEpochChange) {
  Cluster cluster(TestConfig());
  const store::TableId t = LoadKeys(&cluster, 64);
  Locator locator(&cluster);
  bool hit = true;
  Locator::Entry& cold = locator.Locate(t, 42, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cold.replicas, cluster.ReplicaSetFor(t, 42));
  for (uint32_t i = 0; i < cold.replicas.size(); ++i) {
    EXPECT_EQ(cold.slots[i], Locator::kUnknownSlot);
    // Filled lazily from the shared, loader-filled address cache.
    EXPECT_EQ(locator.SlotOn(cold, i),
              cluster.addresses().Lookup(t, cold.replicas[i], 42));
  }

  Locator::Entry& warm = locator.Locate(t, 42, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(&warm, &cold);
  EXPECT_NE(warm.slots[0], Locator::kUnknownSlot);

  // Any epoch change — here a membership event on an unrelated node —
  // invalidates the entry, its slots included.
  rdma::NodeId unrelated = 0;
  while (warm.replicas.Contains(unrelated)) ++unrelated;
  cluster.CrashMemoryNode(unrelated);
  Locator::Entry& stale = locator.Locate(t, 42, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(stale.slots[0], Locator::kUnknownSlot);
  // Re-locating at the new epoch revalidates.
  locator.Locate(t, 42, &hit);
  EXPECT_TRUE(hit);
}

// Far more keys than entries: every Locate must describe the object asked
// for, and a Learn for an evicted object must not touch the entry that
// evicted it.
TEST(LocatorTest, CollidingIndexEvicts) {
  Cluster cluster(TestConfig());
  const store::TableId t = LoadKeys(&cluster, 4096);
  Locator locator(&cluster);
  bool hit = false;
  for (int pass = 0; pass < 2; ++pass) {
    for (store::Key k = 0; k < 4096; ++k) {
      Locator::Entry& entry = locator.Locate(t, k, &hit);
      ASSERT_EQ(entry.key, k);
      ASSERT_EQ(entry.table, t);
      ASSERT_EQ(entry.replicas, cluster.ReplicaSetFor(t, k));
      EXPECT_EQ(locator.SlotOn(entry, 0),
                cluster.addresses().Lookup(t, entry.replicas[0], k));
    }
  }

  locator.Locate(t, 0, &hit);
  store::Key evictor = 1;
  for (; evictor < 4096; ++evictor) {
    locator.Locate(t, evictor, &hit);
    locator.Locate(t, 0, &hit);
    if (!hit) break;  // `evictor` shares key 0's index.
  }
  ASSERT_LT(evictor, 4096u);
  Locator::Entry& entry = locator.Locate(t, evictor, &hit);
  const rdma::NodeId node = cluster.ReplicaSetFor(t, 0).front();
  locator.Learn(t, 0, node, *cluster.addresses().Lookup(t, node, 0));
  for (uint32_t i = 0; i < entry.replicas.size(); ++i) {
    EXPECT_EQ(entry.slots[i], Locator::kUnknownSlot);
  }
}

// A wipe reassigns slots without touching ring or membership; it alone
// must still kill every entry.
TEST(LocatorTest, WipeWithoutMembershipChangeInvalidates) {
  Cluster cluster(TestConfig());
  const store::TableId t = LoadKeys(&cluster, 64);
  Locator locator(&cluster);
  bool hit = false;
  Locator::Entry& entry = locator.Locate(t, 9, &hit);
  ASSERT_TRUE(locator.SlotOn(entry, 0).has_value());
  const uint64_t membership_epoch = cluster.membership().epoch();
  const uint64_t ring_epoch = cluster.ring().epoch();
  const uint64_t epoch = cluster.placement_epoch();

  cluster.WipeMemoryNode(entry.replicas[0]);
  EXPECT_EQ(cluster.membership().epoch(), membership_epoch);
  EXPECT_EQ(cluster.ring().epoch(), ring_epoch);
  EXPECT_GT(cluster.placement_epoch(), epoch);
  Locator::Entry& after = locator.Locate(t, 9, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(after.slots[0], Locator::kUnknownSlot);
  EXPECT_FALSE(locator.SlotOn(after, 0).has_value())
      << "wiped node's slot still known";
}

TEST(ClusterTest, PlacementEpochAdvancesOnFailoverAndRebuild) {
  ClusterConfig config = TestConfig();
  Cluster cluster(config);
  const store::TableId t = cluster.CreateTable("t", 8, 64);
  const char v[8] = "x";
  for (store::Key k = 0; k < 32; ++k) {
    ASSERT_TRUE(cluster.LoadRow(t, k, Slice(v, 8)).ok());
  }
  const uint64_t e0 = cluster.placement_epoch();
  cluster.CrashMemoryNode(0);
  const uint64_t e1 = cluster.placement_epoch();
  EXPECT_GT(e1, e0) << "crash must invalidate Locator entries";
  ASSERT_TRUE(cluster.RebuildMemoryNode(0).ok());
  const uint64_t e2 = cluster.placement_epoch();
  EXPECT_GT(e2, e1) << "re-admission must invalidate Locator entries";
}

// A wipe returns a memory node to its freshly attached state: the region
// Reset() must leave a coordinator's logged slot reading zero through a
// verb, while every table slot reads free again (a zero key word would
// collide with legal key 0).
TEST(ClusterTest, WipeMemoryNodeZeroesLogAndFreesTableSlots) {
  Cluster cluster(TestConfig());
  const store::TableId t = LoadKeys(&cluster, 64);
  const rdma::NodeId node = cluster.memory_node_id(1);
  rdma::QueuePair* qp = cluster.compute(0)->qp(node);
  const store::LogLayout& log = cluster.catalog().log_layout();
  const uint32_t slot_bytes = log.config().slot_bytes;
  const rdma::RKey log_rkey = cluster.catalog().log_rkey(node);
  constexpr uint16_t kCoord = 3;

  store::LogRecord record;
  record.txn_id = 42;
  record.coord_id = kCoord;
  store::LogEntry entry;
  entry.table = t;
  entry.key = 5;
  entry.old_version = store::MakeVersion(1, /*tombstone=*/false);
  entry.old_value.assign(8, 'x');
  record.entries.push_back(entry);
  std::vector<char> image;
  ASSERT_TRUE(store::SerializeLogRecord(record, slot_bytes, &image).ok());
  ASSERT_TRUE(qp->Write(log_rkey, log.SlotOffset(kCoord, 0), image.data(),
                        image.size())
                  .ok());
  std::vector<char> slot(slot_bytes);
  ASSERT_TRUE(
      qp->Read(log_rkey, log.SlotOffset(kCoord, 0), slot.data(), slot_bytes)
          .ok());
  auto extent = store::LogRecordExtent(slot.data(), slot_bytes);
  ASSERT_TRUE(extent.ok());
  ASSERT_GT(extent.value().bytes, 0u) << "the record must have landed";

  cluster.WipeMemoryNode(node);

  ASSERT_TRUE(
      qp->Read(log_rkey, log.SlotOffset(kCoord, 0), slot.data(), slot_bytes)
          .ok());
  EXPECT_EQ(std::count(slot.begin(), slot.end(), '\0'),
            static_cast<std::ptrdiff_t>(slot_bytes))
      << "slot 0 survived the wipe";
  const TableInfo& info = cluster.catalog().table(t);
  for (uint64_t s = 0; s < info.layout.capacity(); ++s) {
    alignas(8) uint64_t key = 0;
    ASSERT_TRUE(qp->Read(info.region_rkeys[node], info.layout.KeyOffset(s),
                         &key, 8)
                    .ok());
    ASSERT_EQ(key, store::kFreeKey) << "table slot " << s;
  }
}

// A rebuilt memory node gets new slot assignments, so every coordinator's
// Locator entries for it must go stale — whatever its node id, not only on
// small clusters.
TEST(ClusterTest, RebuildInvalidatesLocalAddressesOfHighNodeIds) {
  ClusterConfig config = TestConfig();
  config.memory_nodes = 66;
  config.log.max_coordinators = 1;
  Cluster cluster(config);
  const store::TableId t = LoadKeys(&cluster, 512);
  const rdma::NodeId high = cluster.memory_node_id(65);
  ASSERT_GE(high, 64);
  store::Key key = 0;
  while (key < 512 && !cluster.ReplicaSetFor(t, key).Contains(high)) ++key;
  ASSERT_LT(key, 512u) << "no key replicated on node " << high;

  Locator locator(&cluster);
  bool hit = false;
  Locator::Entry& entry = locator.Locate(t, key, &hit);
  uint32_t high_index = 0;
  while (entry.replicas[high_index] != high) ++high_index;
  for (uint32_t i = 0; i < entry.replicas.size(); ++i) {
    ASSERT_TRUE(locator.SlotOn(entry, i).has_value());
  }

  cluster.CrashMemoryNode(high);
  ASSERT_TRUE(cluster.RebuildMemoryNode(high).ok());
  Locator::Entry& after = locator.Locate(t, key, &hit);
  EXPECT_FALSE(hit) << "stale entry served for rebuilt node " << high;
  EXPECT_EQ(after.slots[high_index], Locator::kUnknownSlot);
  EXPECT_EQ(locator.SlotOn(after, high_index),
            cluster.addresses().Lookup(t, high, key));
}

// A wipe empties the wiped node's base and no other; a rebuild copies in
// primary order, so slots may move, and the base must then mirror the
// rebuilt region's key column, not the one the loader wrote.
TEST(ClusterTest, RebuildRefillsTheBaseFromTheRebuiltKeyColumn) {
  Cluster cluster(TestConfig());
  constexpr store::Key kKeys = 96;
  const store::TableId t = LoadKeys(&cluster, kKeys);
  const TableInfo& info = cluster.catalog().table(t);
  const rdma::NodeId wiped = cluster.memory_node_id(1);

  cluster.CrashMemoryNode(wiped);
  cluster.WipeMemoryNode(wiped);
  for (store::Key k = 0; k < kKeys; ++k) {
    for (const rdma::NodeId node : cluster.ReplicaSetFor(t, k)) {
      EXPECT_EQ(cluster.addresses().Lookup(t, node, k).has_value(),
                node != wiped)
          << "key " << k << " on node " << node;
    }
  }

  ASSERT_TRUE(cluster.RebuildMemoryNode(wiped).ok());
  const char* base =
      cluster.memory_pd(wiped)->GetRegion(info.region_rkeys[wiped])->base();
  uint64_t rebuilt = 0;
  for (store::Key k = 0; k < kKeys; ++k) {
    if (!cluster.ReplicaSetFor(t, k).Contains(wiped)) continue;
    const auto slot = cluster.addresses().Lookup(t, wiped, k);
    ASSERT_TRUE(slot.has_value()) << "key " << k;
    EXPECT_EQ(DecodeFixed64(base + info.layout.KeyOffset(*slot)), k);
    ++rebuilt;
  }
  EXPECT_GT(rebuilt, 0u);
}

// The loader's base holds no heap node per key: once a table's first row
// has reached every replica, later loads allocate nothing.
TEST(ClusterTest, LoadRowAllocatesNothingPerKey) {
  Cluster cluster(TestConfig());
  const store::TableId t = cluster.CreateTable("t", 8, 512);
  const char v[8] = "x";
  std::set<rdma::NodeId> reached;
  store::Key key = 0;
  while (reached.size() < cluster.config().memory_nodes) {
    ASSERT_TRUE(cluster.LoadRow(t, key, Slice(v, 8)).ok());
    for (const rdma::NodeId node : cluster.ReplicaSetFor(t, key)) {
      reached.insert(node);
    }
    ++key;
  }

  const uint64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (store::Key k = key; k < 512; ++k) {
    ASSERT_TRUE(cluster.LoadRow(t, k, Slice(v, 8)).ok());
  }
  const uint64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "LoadRow allocated " << (after - before) << " times";
}

// Zero-allocation guard: once the Locator is warm, the hot placement path —
// locate, slot lookup, primary selection, touched-server collection — must
// not touch the heap. The global operator-new counter at the top of this
// file enforces it.
TEST(ClusterTest, PlacementFastPathIsAllocationFree) {
  ClusterConfig config = TestConfig();
  config.memory_nodes = 4;
  config.replication = 3;
  Cluster cluster(config);
  constexpr store::Key kKeys = 512;
  const store::TableId t = LoadKeys(&cluster, kKeys);

  auto locator = std::make_unique<Locator>(&cluster);
  bool hit = false;
  // Warm: every key's entry and slots enter the Locator (collisions simply
  // leave some keys on the ring-walk path, which is also allocation-free).
  for (store::Key k = 0; k < kKeys; ++k) {
    Locator::Entry& entry = locator->Locate(t, k, &hit);
    for (uint32_t i = 0; i < entry.replicas.size(); ++i) {
      locator->SlotOn(entry, i);
    }
  }

  FixedBitset<rdma::kMaxNodes> touched_bits;
  std::vector<rdma::NodeId> touched;
  touched.reserve(config.memory_nodes);

  const uint64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  uint64_t checksum = 0;
  for (int iter = 0; iter < 20; ++iter) {
    touched_bits.Reset();
    touched.clear();
    for (store::Key k = 0; k < kKeys; ++k) {
      Locator::Entry& entry = locator->Locate(t, k, &hit);
      checksum += cluster.PrimaryOf(entry.replicas);
      checksum += locator->SlotOn(entry, 0).value_or(0);
      for (const rdma::NodeId node : entry.replicas) touched_bits.Set(node);
    }
    touched_bits.ForEachSet([&touched](size_t bit) {
      touched.push_back(static_cast<rdma::NodeId>(bit));
    });
    checksum += touched.size();
  }
  const uint64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "hot placement path allocated " << (after - before) << " times";
  EXPECT_GT(checksum, 0u);  // Keep the loop observable.
}

// --------------------------------------------- Online reconfiguration ---

// Rebuild rewrites a server's regions from the current primaries with no
// coordination against in-flight transactions, so when a quiesce probe is
// installed it must refuse to run while traffic is live.
TEST(ClusterTest, RebuildMemoryNodeRequiresQuiesce) {
  Cluster cluster(TestConfig());
  const store::TableId t = cluster.CreateTable("t", 8, 64);
  const char v[8] = "x";
  for (store::Key k = 0; k < 16; ++k) {
    ASSERT_TRUE(cluster.LoadRow(t, k, Slice(v, 8)).ok());
  }
  cluster.CrashMemoryNode(0);

  bool quiesced = false;
  cluster.set_quiesce_check([&quiesced] { return quiesced; });
  const Status busy = cluster.RebuildMemoryNode(0);
  EXPECT_TRUE(busy.IsBusy()) << busy.ToString();
  // The refused rebuild must not have re-admitted the node.
  EXPECT_FALSE(cluster.membership().IsMemoryAlive(0));

  quiesced = true;
  ASSERT_TRUE(cluster.RebuildMemoryNode(0).ok());
  EXPECT_TRUE(cluster.membership().IsMemoryAlive(0));
}

ClusterConfig StandbyConfig() {
  ClusterConfig config = TestConfig();
  config.standby_memory_nodes = 1;
  return config;
}

// The placement epoch is the coordinators' only staleness signal, so every
// transition of the reconfiguration lifecycle — live join, crash, rebuild,
// planned drain — must advance it strictly.
TEST(ClusterTest, PlacementEpochMonotonicAcrossJoinCrashRebuildDrain) {
  Cluster cluster(StandbyConfig());
  const store::TableId t = cluster.CreateTable("t", 8, 128);
  char v[8] = {0};
  for (store::Key k = 0; k < 128; ++k) {
    EncodeFixed64(v, 1000 + k);
    ASSERT_TRUE(cluster.LoadRow(t, k, Slice(v, 8)).ok());
  }
  const rdma::NodeId standby = cluster.memory_node_id(3);
  ReconfigManager migrator(&cluster);

  const uint64_t e0 = cluster.placement_epoch();
  ASSERT_TRUE(migrator.JoinMemoryNode(standby).ok());
  const uint64_t e1 = cluster.placement_epoch();
  EXPECT_GT(e1, e0) << "join must invalidate Locator entries";
  const auto& joined = cluster.ring().nodes();
  EXPECT_NE(std::find(joined.begin(), joined.end(), standby), joined.end());

  cluster.CrashMemoryNode(0);
  const uint64_t e2 = cluster.placement_epoch();
  EXPECT_GT(e2, e1) << "crash must invalidate Locator entries";

  ASSERT_TRUE(cluster.RebuildMemoryNode(0).ok());
  const uint64_t e3 = cluster.placement_epoch();
  EXPECT_GT(e3, e2) << "re-admission must invalidate Locator entries";

  ASSERT_TRUE(migrator.DrainMemoryNode(standby).ok());
  const uint64_t e4 = cluster.placement_epoch();
  EXPECT_GT(e4, e3) << "drain must invalidate Locator entries";
  const auto& drained = cluster.ring().nodes();
  EXPECT_EQ(std::find(drained.begin(), drained.end(), standby),
            drained.end());

  // After the full cycle every row is readable at its current primary with
  // the loaded value — nothing was lost across the four transitions.
  const auto& info = cluster.catalog().table(t);
  for (store::Key k = 0; k < 128; ++k) {
    const rdma::NodeId primary = cluster.PrimaryFor(t, k);
    ASSERT_NE(primary, rdma::kInvalidNodeId) << "key " << k;
    ASSERT_NE(primary, standby) << "key " << k;
    rdma::QueuePair* qp = cluster.compute(0)->qp(primary);
    store::SlotState state;
    ASSERT_TRUE(store::FindSlotByProbe(qp, info.region_rkeys[primary],
                                       info.layout, k, &state)
                    .ok())
        << "key " << k;
    alignas(8) char read_back[8] = {0};
    ASSERT_TRUE(qp->Read(info.region_rkeys[primary],
                         info.layout.ValueOffset(state.slot), read_back, 8)
                    .ok());
    EXPECT_EQ(DecodeFixed64(read_back), 1000 + k) << "key " << k;
  }

  const ReconfigStats stats = migrator.stats();
  EXPECT_EQ(stats.joins, 1u);
  EXPECT_EQ(stats.drains, 1u);
  EXPECT_GT(stats.objects_copied, 0u);
}

// An entry filled before a reconfiguration must never satisfy a Locate
// made at the post-reconfiguration epoch: the epoch tag is the only thing
// standing between a coordinator and a retired replica set.
TEST(LocatorTest, NeverServesPreReconfigurationReplicas) {
  Cluster cluster(StandbyConfig());
  const store::TableId t = LoadKeys(&cluster, 128);
  auto locator = std::make_unique<Locator>(&cluster);
  bool hit = false;
  std::vector<ReplicaSet> before;
  for (store::Key k = 0; k < 128; ++k) {
    Locator::Entry& entry = locator->Locate(t, k, &hit);
    locator->SlotOn(entry, 0);
    before.push_back(entry.replicas);
  }

  ReconfigManager migrator(&cluster);
  ASSERT_TRUE(migrator.JoinMemoryNode(cluster.memory_node_id(3)).ok());

  int moved = 0;
  for (store::Key k = 0; k < 128; ++k) {
    // The pre-join entry is dead at the new epoch — Locate must miss and
    // re-walk the ring, never return the retired set or its slots.
    Locator::Entry& entry = locator->Locate(t, k, &hit);
    EXPECT_FALSE(hit) << "key " << k;
    const ReplicaSet now = cluster.ReplicaSetFor(t, k);
    EXPECT_EQ(entry.replicas, now);
    EXPECT_EQ(entry.slots[0], Locator::kUnknownSlot);
    if (before[k] != now) ++moved;
    locator->Locate(t, k, &hit);
    EXPECT_TRUE(hit);
  }
  // The join actually changed placement for some keys, so serving the old
  // sets would have been a real misdirection, not a no-op.
  EXPECT_GT(moved, 0);
}

// Same invariant under concurrency: readers that snapshot the epoch,
// locate, and double-check the epoch must never observe a replica set that
// disagrees with the ring published for that epoch, even while a join and
// a drain swap rings underneath them. Each reader owns its Locator, as each
// coordinator does: a Locator is single-threaded.
TEST(LocatorTest, ConcurrentLookupsNeverSeeStaleReplicaSets) {
  Cluster cluster(StandbyConfig());
  const store::TableId t = LoadKeys(&cluster, 128);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> mismatches{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      auto locator = std::make_unique<Locator>(&cluster);
      while (!stop.load(std::memory_order_acquire)) {
        for (store::Key k = 0; k < 128; ++k) {
          const uint64_t epoch = cluster.placement_epoch();
          bool hit = false;
          const ReplicaSet located = locator->Locate(t, k, &hit).replicas;
          const ReplicaSet from_ring = cluster.ReplicaSetFor(t, k);
          // If the epoch did not move across the whole window, `from_ring`
          // came from the epoch's ring, so an epoch-matched hit must agree
          // with it. (If it did move, the comparison is not well-defined
          // and the iteration is discarded.)
          if (cluster.placement_epoch() != epoch || !hit) continue;
          hits.fetch_add(1, std::memory_order_relaxed);
          if (located != from_ring) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  ReconfigManager migrator(&cluster);
  const rdma::NodeId standby = cluster.memory_node_id(3);
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(migrator.JoinMemoryNode(standby).ok());
    ASSERT_TRUE(migrator.DrainMemoryNode(standby).ok());
  }
  // Let the readers run against the settled ring so the final epoch's
  // entries are exercised too.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : readers) thread.join();

  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

// ------------------------------------------------------- Address cache --

// The base is a copy of each region's key column, walked with the store's
// probe rule. A small, dense table makes home slots collide and one chain
// wrap from the last slot to slot 0; every loaded key must still resolve to
// the slot whose key word (read straight from the region) holds it.
TEST(AddressCacheTest, BaseMatchesRegionKeyColumn) {
  Cluster cluster(TestConfig());
  const store::TableId t = cluster.CreateTable("t", 8, /*expected_keys=*/8);
  const TableInfo& info = cluster.catalog().table(t);
  ASSERT_EQ(info.layout.capacity(), 64u);
  // Keys 0..39, then eight keys whose home is the last slot: with two
  // replicas out of three servers, some server gets several of them.
  std::vector<store::Key> keys;
  for (store::Key k = 0; k < 40; ++k) keys.push_back(k);
  for (store::Key k = 40; keys.size() < 48; ++k) {
    if (info.layout.HomeSlot(HashKey(k)) == 63) keys.push_back(k);
  }
  const char v[8] = "x";
  for (const store::Key k : keys) {
    ASSERT_TRUE(cluster.LoadRow(t, k, Slice(v, 8)).ok());
  }

  bool collided = false;
  bool wrapped = false;
  for (const store::Key k : keys) {
    const uint64_t home = info.layout.HomeSlot(HashKey(k));
    for (const rdma::NodeId node : cluster.ReplicaSetFor(t, k)) {
      const auto slot = cluster.addresses().Lookup(t, node, k);
      ASSERT_TRUE(slot.has_value()) << "key " << k << " on node " << node;
      const char* base =
          cluster.memory_pd(node)->GetRegion(info.region_rkeys[node])->base();
      EXPECT_EQ(DecodeFixed64(base + info.layout.KeyOffset(*slot)), k)
          << "key " << k << " on node " << node;
      collided |= *slot != home;
      wrapped |= *slot < home;
    }
  }
  EXPECT_TRUE(collided) << "no home slot collided";
  EXPECT_TRUE(wrapped) << "no chain wrapped past the last slot";

  constexpr store::Key kNeverLoaded = 1'000'000;
  const rdma::NodeId node = cluster.ReplicaSetFor(t, kNeverLoaded).front();
  EXPECT_FALSE(cluster.addresses().Lookup(t, node, kNeverLoaded).has_value());
  cluster.addresses().InsertOverlay(t, node, kNeverLoaded, 5);
  EXPECT_EQ(cluster.addresses().Lookup(t, node, kNeverLoaded),
            std::optional<uint64_t>(5));
}

// Base lookups take no lock and overlay lookups a shared one, so readers
// must see every loaded key's slot, and either nothing or the recorded
// slot for a learned key, while a writer keeps learning.
TEST(AddressCacheTest, ConcurrentLookupsDuringOverlayInserts) {
  Cluster cluster(TestConfig());
  constexpr store::Key kLoaded = 256;
  constexpr store::Key kLearnedBase = 1'000'000;
  constexpr store::Key kLearned = 2048;
  const store::TableId t = LoadKeys(&cluster, kLoaded);
  const AddressCache& cache = cluster.addresses();
  std::vector<rdma::NodeId> homes(kLoaded);
  std::vector<uint64_t> slots(kLoaded);
  for (store::Key k = 0; k < kLoaded; ++k) {
    homes[k] = cluster.ReplicaSetFor(t, k).front();
    slots[k] = *cache.Lookup(t, homes[k], k);
  }
  const rdma::NodeId learner = cluster.memory_node_id(0);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> overlay_hits{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      // At least one pass, so a reader that starts late still reads the
      // complete overlay.
      do {
        for (store::Key k = 0; k < kLoaded; ++k) {
          if (cache.Lookup(t, homes[k], k) != slots[k]) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
        for (store::Key i = 0; i < kLearned; i += 7) {
          const auto slot = cache.Lookup(t, learner, kLearnedBase + i);
          if (!slot) continue;
          overlay_hits.fetch_add(1, std::memory_order_relaxed);
          if (*slot != i) wrong.fetch_add(1, std::memory_order_relaxed);
        }
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  std::thread writer([&] {
    for (store::Key i = 0; i < kLearned; ++i) {
      cluster.addresses().InsertOverlay(t, learner, kLearnedBase + i, i);
    }
    // Readers get a pass over the complete overlay before stopping.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& thread : readers) thread.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(overlay_hits.load(), 0u);
  for (store::Key i = 0; i < kLearned; ++i) {
    EXPECT_EQ(cache.Lookup(t, learner, kLearnedBase + i),
              std::optional<uint64_t>(i));
  }
}

}  // namespace
}  // namespace cluster
}  // namespace pandora
