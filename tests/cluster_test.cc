#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/reconfig.h"
#include "common/coding.h"
#include "common/fixed_bitset.h"
#include "store/object_header.h"
#include "store/remote_object.h"

// ---- Allocation-counting guard ------------------------------------------
// Global operator new override (this test binary only): counts every heap
// allocation so tests can assert that the placement fast path and the
// touched-server collection never malloc per lookup.
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pandora {
namespace cluster {
namespace {

// ----------------------------------------------------------------- Ring --

TEST(HashRingTest, ReplicasAreDistinctAndStable) {
  HashRing ring({0, 1, 2, 3}, /*replication=*/3);
  for (store::Key key = 0; key < 200; ++key) {
    const auto replicas = ring.ReplicasFor(1, key);
    ASSERT_EQ(replicas.size(), 3u);
    std::set<rdma::NodeId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 3u);
    // Deterministic.
    EXPECT_EQ(replicas, ring.ReplicasFor(1, key));
  }
}

TEST(HashRingTest, PrimariesAreBalanced) {
  HashRing ring({0, 1, 2, 3}, 2);
  std::map<rdma::NodeId, int> primary_count;
  constexpr int kKeys = 8000;
  for (store::Key key = 0; key < kKeys; ++key) {
    primary_count[ring.ReplicasFor(0, key)[0]]++;
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
    if (ring.ReplicasFor(0, key)[0] != ring.ReplicasFor(1, key)[0]) ++diff;
  }
  EXPECT_GT(diff, 50);
}

// Property: removing one node never changes the replica *prefix* for keys
// it did not serve — the essence of consistent hashing (minimal movement).
TEST(HashRingTest, NodeRemovalMovesOnlyAffectedKeys) {
  HashRing full({0, 1, 2, 3}, 1);
  HashRing without3({0, 1, 2}, 1);
  for (store::Key key = 0; key < 2000; ++key) {
    const rdma::NodeId before = full.ReplicasFor(0, key)[0];
    const rdma::NodeId after = without3.ReplicasFor(0, key)[0];
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
  for (const rdma::NodeId node : cluster.ReplicasFor(t, 7)) {
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
  const rdma::NodeId node = cluster.ReplicasFor(t, 0)[0];
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
    const auto replicas = cluster.ReplicasFor(t, k);
    EXPECT_EQ(cluster.PrimaryFor(t, k), replicas[0]);
  }
  const uint64_t epoch_before = cluster.membership().epoch();
  cluster.CrashMemoryNode(0);
  EXPECT_GT(cluster.membership().epoch(), epoch_before);
  for (store::Key k = 0; k < 50; ++k) {
    const auto replicas = cluster.ReplicasFor(t, k);
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

// The inline ReplicaSet path must agree byte-for-byte with the legacy
// vector path across tables and keys.
TEST(HashRingTest, ReplicaSetMatchesVectorPath) {
  HashRing ring({0, 1, 2, 3, 4, 5, 6, 7}, /*replication=*/3);
  for (store::TableId table = 0; table < 4; ++table) {
    for (store::Key key = 0; key < 1000; ++key) {
      const ReplicaSet set = ring.ReplicaSetFor(table, key);
      const std::vector<rdma::NodeId> vec = ring.ReplicasFor(table, key);
      ASSERT_EQ(set.size(), vec.size());
      for (uint32_t i = 0; i < set.size(); ++i) {
        EXPECT_EQ(set[i], vec[i]) << "table " << table << " key " << key;
      }
      EXPECT_EQ(set.ToVector(), vec);
      // Hash-keyed entry point agrees with the (table, key) entry point.
      EXPECT_EQ(ring.ReplicaSetForHash(HashRing::PlacementHash(table, key)),
                set);
    }
  }
}

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

TEST(PlacementCacheTest, HitAtInsertEpochMissAfterEpochChange) {
  PlacementCache cache;
  ReplicaSet replicas;
  replicas.PushBack(3);
  replicas.PushBack(7);
  const uint64_t hash = HashRing::PlacementHash(1, 42);
  EXPECT_EQ(cache.Lookup(hash, /*epoch=*/5), nullptr);
  cache.Insert(hash, /*epoch=*/5, replicas);
  const ReplicaSet* hit = cache.Lookup(hash, 5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, replicas);
  // Any epoch change — ring swap or membership event — invalidates.
  EXPECT_EQ(cache.Lookup(hash, 6), nullptr);
  EXPECT_EQ(cache.Lookup(hash, 4), nullptr);
  // Re-inserting at the new epoch revalidates.
  cache.Insert(hash, 6, replicas);
  ASSERT_NE(cache.Lookup(hash, 6), nullptr);
}

TEST(PlacementCacheTest, CollidingIndexEvicts) {
  PlacementCache cache;
  ReplicaSet a;
  a.PushBack(1);
  // Two hashes that map to the same direct-mapped slot: differ only above
  // the index bits in a way that cancels in IndexOf's fold.
  const uint64_t h1 = 0x1234;
  const uint64_t h2 = h1 ^ (1ull << 40) ^ (1ull << (40 - 32));
  cache.Insert(h1, 1, a);
  ASSERT_NE(cache.Lookup(h1, 1), nullptr);
  cache.Insert(h2, 1, a);
  // h2 may or may not collide with h1 depending on the fold; the invariant
  // is simply that lookups never return a wrong entry.
  const ReplicaSet* r1 = cache.Lookup(h1, 1);
  if (r1 != nullptr) EXPECT_EQ(*r1, a);
  const ReplicaSet* r2 = cache.Lookup(h2, 1);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(*r2, a);
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
  EXPECT_GT(e1, e0) << "crash must invalidate placement caches";
  ASSERT_TRUE(cluster.RebuildMemoryNode(0).ok());
  const uint64_t e2 = cluster.placement_epoch();
  EXPECT_GT(e2, e1) << "re-admission must invalidate placement caches";
}

// A rebuilt memory node gets new slot assignments, so every coordinator's
// private address entries for it must go stale — whatever its node id, not
// only on small clusters.
TEST(ClusterTest, RebuildInvalidatesLocalAddressesOfHighNodeIds) {
  ClusterConfig config = TestConfig();
  config.memory_nodes = 66;
  config.log.max_coordinators = 1;
  Cluster cluster(config);
  const store::TableId t = cluster.CreateTable("t", 8, 512);
  const char v[8] = "x";
  for (store::Key k = 0; k < 512; ++k) {
    ASSERT_TRUE(cluster.LoadRow(t, k, Slice(v, 8)).ok());
  }
  const rdma::NodeId high = cluster.memory_node_id(65);
  ASSERT_GE(high, 64);
  store::Key key = 0;
  while (key < 512 && !cluster.ReplicaSetFor(t, key).Contains(high)) ++key;
  ASSERT_LT(key, 512u) << "no key replicated on node " << high;
  rdma::NodeId other = cluster.ReplicaSetFor(t, key).front();
  if (other == high) other = cluster.ReplicaSetFor(t, key)[1];

  LocalAddressCache local;
  for (const rdma::NodeId node : {high, other}) {
    const auto slot = cluster.addresses().Lookup(t, node, key);
    ASSERT_TRUE(slot.has_value());
    local.Insert(cluster.addresses(), t, node, key, *slot);
    ASSERT_TRUE(local.Lookup(cluster.addresses(), t, node, key).has_value());
  }

  cluster.CrashMemoryNode(high);
  ASSERT_TRUE(cluster.RebuildMemoryNode(high).ok());
  EXPECT_FALSE(local.Lookup(cluster.addresses(), t, high, key).has_value())
      << "stale slot served for rebuilt node " << high;
  EXPECT_TRUE(local.Lookup(cluster.addresses(), t, other, key).has_value());
}

// Zero-allocation guard: once the cache is warm, the hot placement path —
// hash, cache lookup, primary selection, touched-server collection — must
// not touch the heap. This is the tentpole's core claim; the global
// operator-new counter at the top of this file enforces it.
TEST(ClusterTest, PlacementFastPathIsAllocationFree) {
  ClusterConfig config = TestConfig();
  config.memory_nodes = 4;
  config.replication = 3;
  Cluster cluster(config);

  PlacementCache cache;
  const uint64_t epoch = cluster.placement_epoch();
  constexpr store::Key kKeys = 512;
  // Warm: every key's replica set enters the cache (collisions simply
  // leave some keys on the ring-walk path, which is also allocation-free).
  for (store::Key k = 0; k < kKeys; ++k) {
    const uint64_t hash = HashRing::PlacementHash(0, k);
    const ReplicaSet replicas = cluster.ring().ReplicaSetForHash(hash);
    cache.Insert(hash, epoch, replicas);
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
      const uint64_t hash = HashRing::PlacementHash(0, k);
      const ReplicaSet* cached = cache.Lookup(hash, epoch);
      const ReplicaSet replicas =
          cached != nullptr ? *cached : cluster.ring().ReplicaSetForHash(hash);
      checksum += cluster.PrimaryOf(replicas);
      for (const rdma::NodeId node : replicas) touched_bits.Set(node);
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
  EXPECT_GT(e1, e0) << "join must invalidate placement caches";
  const auto& joined = cluster.ring().nodes();
  EXPECT_NE(std::find(joined.begin(), joined.end(), standby), joined.end());

  cluster.CrashMemoryNode(0);
  const uint64_t e2 = cluster.placement_epoch();
  EXPECT_GT(e2, e1) << "crash must invalidate placement caches";

  ASSERT_TRUE(cluster.RebuildMemoryNode(0).ok());
  const uint64_t e3 = cluster.placement_epoch();
  EXPECT_GT(e3, e2) << "re-admission must invalidate placement caches";

  ASSERT_TRUE(migrator.DrainMemoryNode(standby).ok());
  const uint64_t e4 = cluster.placement_epoch();
  EXPECT_GT(e4, e3) << "drain must invalidate placement caches";
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

// A cache entry inserted before a reconfiguration must never satisfy a
// lookup made at the post-reconfiguration epoch: the epoch key is the only
// thing standing between a coordinator and a retired replica set.
TEST(PlacementCacheTest, NeverServesPreReconfigurationReplicas) {
  Cluster cluster(StandbyConfig());
  const store::TableId t = cluster.CreateTable("t", 8, 128);
  const char v[8] = "x";
  for (store::Key k = 0; k < 128; ++k) {
    ASSERT_TRUE(cluster.LoadRow(t, k, Slice(v, 8)).ok());
  }
  PlacementCache cache;
  const uint64_t e0 = cluster.placement_epoch();
  std::vector<uint64_t> hashes;
  for (store::Key k = 0; k < 128; ++k) {
    const uint64_t hash = HashRing::PlacementHash(t, k);
    cache.Insert(hash, e0, cluster.ring().ReplicaSetForHash(hash));
    hashes.push_back(hash);
  }

  ReconfigManager migrator(&cluster);
  ASSERT_TRUE(migrator.JoinMemoryNode(cluster.memory_node_id(3)).ok());
  const uint64_t e1 = cluster.placement_epoch();
  ASSERT_GT(e1, e0);

  int moved = 0;
  for (const uint64_t hash : hashes) {
    // The pre-join entry is dead at the new epoch — a fresh lookup must
    // miss and force a ring walk, never return the retired set.
    EXPECT_EQ(cache.Lookup(hash, e1), nullptr);
    const ReplicaSet now = cluster.ring().ReplicaSetForHash(hash);
    const ReplicaSet* old_entry = cache.Lookup(hash, e0);
    if (old_entry != nullptr && !(*old_entry == now)) ++moved;
    cache.Insert(hash, e1, now);
    const ReplicaSet* hit = cache.Lookup(hash, e1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, now);
  }
  // The join actually changed placement for some keys, so serving the old
  // sets would have been a real misdirection, not a no-op.
  EXPECT_GT(moved, 0);
}

// Same invariant under concurrency: readers that snapshot the epoch, look
// up, and double-check the epoch must never observe a replica set that
// disagrees with the ring published for that epoch, even while a join and
// a drain swap rings underneath them. Each reader owns its cache, as each
// coordinator does: PlacementCache is single-threaded.
TEST(PlacementCacheTest, ConcurrentLookupsNeverSeeStaleReplicaSets) {
  Cluster cluster(StandbyConfig());
  const store::TableId t = cluster.CreateTable("t", 8, 128);
  const char v[8] = "x";
  for (store::Key k = 0; k < 128; ++k) {
    ASSERT_TRUE(cluster.LoadRow(t, k, Slice(v, 8)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> mismatches{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      PlacementCache cache;
      while (!stop.load(std::memory_order_acquire)) {
        for (store::Key k = 0; k < 128; ++k) {
          const uint64_t hash = HashRing::PlacementHash(t, k);
          const uint64_t epoch = cluster.placement_epoch();
          const ReplicaSet* cached = cache.Lookup(hash, epoch);
          const ReplicaSet from_ring = cluster.ring().ReplicaSetForHash(hash);
          // If the epoch did not move across the whole window, `from_ring`
          // came from the epoch's ring, so an epoch-matched hit must agree
          // with it. (If it did move, the comparison is not well-defined
          // and the iteration is discarded.)
          if (cluster.placement_epoch() != epoch) continue;
          if (cached != nullptr) {
            hits.fetch_add(1, std::memory_order_relaxed);
            if (!(*cached == from_ring)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            cache.Insert(hash, epoch, from_ring);
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

}  // namespace
}  // namespace cluster
}  // namespace pandora
