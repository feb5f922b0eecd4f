// Micro-operation costs of the simulated substrate and the protocol
// building blocks (google-benchmark). Supporting data for interpreting the
// macro benches: verb costs, lock/unlock cycles, log-record framing, ring
// lookups and the PILL failed-ids check.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cluster/locator.h"
#include "cluster/placement.h"
#include "common/checksum.h"
#include "common/fixed_bitset.h"
#include "common/logging.h"
#include "common/random.h"
#include "rdma/fabric.h"
#include "store/log_layout.h"
#include "store/object_header.h"

namespace pandora {
namespace {

// Zero-latency fabric: measures the simulator's per-verb bookkeeping cost.
struct VerbFixture {
  VerbFixture()
      : fabric(rdma::NetworkConfig{.one_way_ns = 0, .per_byte_ns = 0}) {
    pd = fabric.AttachMemoryNode(0);
    rkey = pd->RegisterRegion(1 << 20, "bench");
    qp = fabric.CreateQueuePair(1, 0);
  }
  rdma::Fabric fabric;
  rdma::ProtectionDomain* pd;
  rdma::RKey rkey;
  std::unique_ptr<rdma::QueuePair> qp;
};

void BM_VerbRead64(benchmark::State& state) {
  VerbFixture fixture;
  alignas(8) uint64_t value = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.qp->Read(fixture.rkey, 0, &value, 8));
  }
}
BENCHMARK(BM_VerbRead64);

void BM_VerbWrite1K(benchmark::State& state) {
  VerbFixture fixture;
  alignas(8) char buf[1024] = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.qp->Write(fixture.rkey, 0, buf, sizeof(buf)));
  }
}
BENCHMARK(BM_VerbWrite1K);

void BM_LockUnlockCycle(benchmark::State& state) {
  VerbFixture fixture;
  const store::LockWord mine = store::MakeLock(7);
  const uint64_t zero = 0;
  for (auto _ : state) {
    uint64_t observed = 0;
    benchmark::DoNotOptimize(
        fixture.qp->CompareSwap(fixture.rkey, 0, 0, mine, &observed));
    benchmark::DoNotOptimize(
        fixture.qp->Write(fixture.rkey, 0, &zero, 8));
  }
}
BENCHMARK(BM_LockUnlockCycle);

void BM_FailedIdCheck(benchmark::State& state) {
  FailedIdBitset bits;
  bits.Set(123);
  uint16_t owner = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bits.Test(owner++));
  }
}
BENCHMARK(BM_FailedIdCheck);

void BM_LogRecordSerialize(benchmark::State& state) {
  store::LogRecord record;
  record.txn_id = 42;
  record.coord_id = 7;
  for (int i = 0; i < state.range(0); ++i) {
    store::LogEntry entry;
    entry.table = 1;
    entry.key = static_cast<store::Key>(i);
    entry.old_version = store::MakeVersion(3, false);
    entry.old_value.assign(40, 'v');
    record.entries.push_back(entry);
  }
  std::vector<char> buf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store::SerializeLogRecord(record, 8192, &buf));
  }
}
BENCHMARK(BM_LogRecordSerialize)->Arg(1)->Arg(4)->Arg(16);

void BM_LogRecordParse(benchmark::State& state) {
  store::LogRecord record;
  record.txn_id = 42;
  record.coord_id = 7;
  for (int i = 0; i < 8; ++i) {
    store::LogEntry entry;
    entry.key = static_cast<store::Key>(i);
    entry.old_value.assign(40, 'v');
    record.entries.push_back(entry);
  }
  std::vector<char> buf;
  store::SerializeLogRecord(record, 8192, &buf);
  std::vector<char> slot(8192, 0);
  std::memcpy(slot.data(), buf.data(), buf.size());
  store::LogRecord parsed;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store::ParseLogRecord(slot.data(), 8192, &parsed));
  }
}
BENCHMARK(BM_LogRecordParse);

// Ring walk: the replica set comes back inline (no vector, no heap). This
// is a Locator miss's placement cost.
void BM_RingLookupInline(benchmark::State& state) {
  cluster::HashRing ring({0, 1, 2, 3, 4}, 3);
  store::Key key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.ReplicaSetFor(1, key++));
  }
}
BENCHMARK(BM_RingLookupInline);

// Warm Locator hit: epoch read + index mix + direct-mapped probe. This is
// a transaction's per-op placement cost on skewed workloads.
void BM_LocatorHit(benchmark::State& state) {
  cluster::ClusterConfig config;
  config.memory_nodes = 5;
  config.replication = 3;
  config.compute_nodes = 1;
  config.net.one_way_ns = 0;
  config.net.per_byte_ns = 0;
  cluster::Cluster cluster(config);
  cluster::Locator locator(&cluster);
  constexpr uint64_t kKeys = 256;
  bool hit = false;
  for (store::Key key = 0; key < kKeys; ++key) locator.Locate(1, key, &hit);
  store::Key key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.Locate(1, key++ % kKeys, &hit));
  }
}
BENCHMARK(BM_LocatorHit);

// Shared address-cache lookup, the Locator's fill path: 1 M keys loaded on
// 2 servers at replication 2 (micro-rw's placement), random keys. Arg 1
// looks up loaded keys (a base hit); arg 0 looks up keys never loaded,
// which fall through the base to the empty overlay.
void BM_AddressCacheLookup(benchmark::State& state) {
  constexpr uint64_t kKeys = 1'000'000;
  static const std::unique_ptr<cluster::Cluster> cluster = [] {
    cluster::ClusterConfig config;
    config.memory_nodes = 2;
    config.replication = 2;
    config.compute_nodes = 1;
    config.net.one_way_ns = 0;
    config.net.per_byte_ns = 0;
    auto loaded = std::make_unique<cluster::Cluster>(config);
    const store::TableId t = loaded->CreateTable("micro", 8, kKeys);
    const char value[8] = {};
    for (store::Key key = 0; key < kKeys; ++key) {
      PANDORA_CHECK(loaded->LoadRow(t, key, Slice(value, 8)).ok());
    }
    return loaded;
  }();
  const bool hit = state.range(0) == 1;
  // Pre-drawn keys keep the generator out of the timed loop.
  constexpr size_t kDrawn = 1 << 16;
  std::vector<store::Key> keys(kDrawn);
  Random rng(42);
  for (store::Key& key : keys) key = rng.Uniform(kKeys) + (hit ? 0 : kKeys);
  size_t i = 0;
  for (auto _ : state) {
    const store::Key key = keys[i++ & (kDrawn - 1)];
    benchmark::DoNotOptimize(cluster->addresses().Lookup(
        0, static_cast<rdma::NodeId>(key & 1), key));
  }
}
BENCHMARK(BM_AddressCacheLookup)->Arg(1)->Arg(0);

void BM_KeyHash(benchmark::State& state) {
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashKey(key++));
  }
}
BENCHMARK(BM_KeyHash);

}  // namespace
}  // namespace pandora

BENCHMARK_MAIN();
