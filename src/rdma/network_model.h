#ifndef PANDORA_RDMA_NETWORK_MODEL_H_
#define PANDORA_RDMA_NETWORK_MODEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace pandora {
namespace rdma {

/// Latency/bandwidth parameters for the simulated fabric.
///
/// Defaults approximate the paper's testbed: 100 Gbps links with low-µs RDMA
/// round trips (§4.1, §3.2.4 "RDMA round-trip times are in the low µs
/// range"). Setting `one_way_ns = 0` disables latency simulation entirely
/// (useful for unit tests, which exercise semantics rather than timing).
struct NetworkConfig {
  /// One-way propagation + NIC processing latency per message.
  uint64_t one_way_ns = 1500;
  /// Serialization cost per payload byte. 100 Gbps = 12.5 GB/s = 0.08 ns/B.
  double per_byte_ns = 0.08;
  /// Ablation mode without doorbell batching: every verb of a doorbell
  /// group waits out its own round trip (DoorbellWait sums the verbs'
  /// RTTs instead of overlapping them). Only the simulated wait changes;
  /// the protocols post the same verbs in the same groups, and their RTT
  /// and doorbell counters still count groups.
  bool sequential_verbs = false;

  bool latency_enabled() const { return one_way_ns != 0 || per_byte_ns != 0; }
};

/// Computes verb completion latency. Stateless and shared by all queue
/// pairs; jitter-free so benchmark runs are reproducible.
class NetworkModel {
 public:
  explicit NetworkModel(const NetworkConfig& config) : config_(config) {}

  const NetworkConfig& config() const { return config_; }
  bool latency_enabled() const { return config_.latency_enabled(); }

  /// Round trip of a verb without payload; RttNanos minus this is the
  /// verb's serialization time.
  uint64_t BaseRttNanos() const { return 2 * config_.one_way_ns; }

  /// Round-trip time for a verb carrying `request_bytes` to the memory
  /// server and `response_bytes` back. CAS/FAA carry 8 bytes each way;
  /// reads carry the payload back; writes carry it out.
  uint64_t RttNanos(size_t request_bytes, size_t response_bytes) const {
    return BaseRttNanos() +
           static_cast<uint64_t>(
               config_.per_byte_ns *
               static_cast<double>(request_bytes + response_bytes));
  }

  /// Simulated wait of two verb groups that share one doorbell wait: the
  /// longer of the two, or their sum when every verb pays its own round
  /// trip (sequential_verbs).
  uint64_t SharedWaitNanos(uint64_t a, uint64_t b) const {
    return config_.sequential_verbs ? a + b : std::max(a, b);
  }

 private:
  NetworkConfig config_;
};

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_NETWORK_MODEL_H_
