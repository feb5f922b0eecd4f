// Isolated layer probes: the simulator's own cost per verb, the undo-log
// serializer and parser, spin-wait lateness, and replica-set lookup.

#include <algorithm>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "perfbench.h"
#include "rdma/fabric.h"
#include "rdma/ordered_batch.h"
#include "store/log_layout.h"

namespace perfbench {

namespace {

using pandora::NowNanos;

// Keeps probe results observable so the timed loops are not folded away.
volatile uint64_t g_sink = 0;

// Median over five repetitions of the mean ns per call of `fn(i)`.
template <typename Fn>
double NsPerOp(uint64_t ops, Fn&& fn) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t start = NowNanos();
    for (uint64_t i = 0; i < ops; ++i) fn(i);
    reps.push_back(static_cast<double>(NowNanos() - start) /
                   static_cast<double>(ops));
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

constexpr uint64_t kVerbs = 200'000;
constexpr uint64_t kRecords = 200'000;
constexpr uint64_t kSpinSamples = 20'000;
constexpr uint64_t kSpinNs = 3'000;
constexpr uint64_t kObjectBytes = 64;
constexpr uint64_t kProbeObjects = 4096;

}  // namespace

ProbeResult RunProbes(const WorkloadSpec& spec) {
  ProbeResult result;
  const uint32_t slot_bytes = PaperTestbed().log.slot_bytes;

  // Undo-log record of the workload's write-set shape.
  std::vector<char> value(spec.log_value_bytes, 'v');
  std::vector<char> image;
  result.log_writer_ns = NsPerOp(kRecords, [&](uint64_t i) {
    pandora::store::LogRecordWriter writer(i, 1, slot_bytes, &image);
    for (uint32_t e = 0; e < spec.log_entries; ++e) {
      PANDORA_CHECK(writer.AddEntry(0, i * 8 + e, i, false, false,
                                    value.data(), value.size()));
    }
    writer.Finish();
  });
  const size_t record_bytes = image.size();
  image.resize(slot_bytes);
  pandora::store::LogRecord record;
  result.log_parse_ns = NsPerOp(kRecords, [&](uint64_t) {
    PANDORA_CHECK(
        pandora::store::ParseLogRecord(image.data(), slot_bytes, &record)
            .ok());
    g_sink = record.entries.size();
  });

  // Verbs on a zero-latency fabric: what remains is the simulator's host
  // cost of applying and accounting one verb.
  pandora::rdma::NetworkConfig net;
  net.one_way_ns = 0;
  net.per_byte_ns = 0;
  pandora::rdma::Fabric fabric(net);
  pandora::rdma::ProtectionDomain* pd = fabric.AttachMemoryNode(0);
  const uint64_t log_offset = kProbeObjects * kObjectBytes;
  const pandora::rdma::RKey rkey =
      pd->RegisterRegion(log_offset + slot_bytes, "probe");
  std::unique_ptr<pandora::rdma::QueuePair> qp =
      fabric.CreateQueuePair(/*src=*/1, /*dst=*/0);
  char object[kObjectBytes] = {0};
  auto offset = [](uint64_t i) { return (i % kProbeObjects) * kObjectBytes; };
  result.rdma_read_ns = NsPerOp(kVerbs, [&](uint64_t i) {
    PANDORA_CHECK(qp->Read(rkey, offset(i), object, kObjectBytes).ok());
  });
  result.rdma_write_ns = NsPerOp(kVerbs, [&](uint64_t i) {
    PANDORA_CHECK(qp->Write(rkey, offset(i), object, kObjectBytes).ok());
  });
  result.rdma_cas_ns = NsPerOp(kVerbs, [&](uint64_t i) {
    uint64_t observed = 0;
    PANDORA_CHECK(qp->CompareSwap(rkey, offset(i), 0, 0, &observed).ok());
    g_sink = observed;
  });
  // The merged commit's per-server chain: log record, apply, unlock.
  const uint64_t unlocked = 0;
  pandora::rdma::OrderedBatch chain(qp.get());
  result.rdma_chain_ns = NsPerOp(kVerbs, [&](uint64_t i) {
    chain.Write(rkey, log_offset, image.data(), record_bytes);
    chain.Write(rkey, offset(i), object, kObjectBytes);
    chain.Write(rkey, offset(i), &unlocked, sizeof(unlocked));
    PANDORA_CHECK(chain.Execute().ok());
  });

  // Lateness of a short simulated wait on a bare thread.
  LatencyHistogram overshoot;
  for (uint64_t i = 0; i < kSpinSamples; ++i) {
    const uint64_t target = NowNanos() + kSpinNs;
    pandora::SpinUntilNanos(target);
    overshoot.Record(NowNanos() - target);
  }
  result.spin_overshoot_p50_ns =
      static_cast<double>(overshoot.PercentileNanos(50));
  result.spin_overshoot_p99_ns =
      static_cast<double>(overshoot.PercentileNanos(99));
  return result;
}

double ProbeReplicaSetNs(Testbed& tb, uint64_t seed) {
  constexpr uint64_t kKeys = 1 << 16;
  Random rng(StreamSeed(seed, /*stream=*/3, 0));
  std::vector<uint64_t> keys(kKeys);
  for (uint64_t& key : keys) key = tb.spec().sample_key(&rng);
  const pandora::cluster::Cluster& cluster = tb.cluster();
  uint64_t sum = 0;
  const double ns = NsPerOp(1'000'000, [&](uint64_t i) {
    sum += cluster.ReplicaSetFor(0, keys[i & (kKeys - 1)]).front();
  });
  g_sink = sum;
  return ns;
}

}  // namespace perfbench
