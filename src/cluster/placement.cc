#include "cluster/placement.h"

#include <algorithm>
#include <atomic>

#include "common/checksum.h"
#include "common/logging.h"

namespace pandora {
namespace cluster {
namespace {

uint64_t NextRingEpoch() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

HashRing::HashRing(std::vector<rdma::NodeId> nodes, uint32_t replication,
                   uint32_t vnodes_per_node)
    : nodes_(std::move(nodes)),
      replication_(replication),
      epoch_(NextRingEpoch()) {
  PANDORA_CHECK(!nodes_.empty());
  PANDORA_CHECK(replication_ >= 1);
  PANDORA_CHECK(replication_ <= nodes_.size());
  PANDORA_CHECK(replication_ <= kMaxReplication);
  ring_.reserve(nodes_.size() * vnodes_per_node);
  for (const rdma::NodeId node : nodes_) {
    for (uint32_t v = 0; v < vnodes_per_node; ++v) {
      // Derive the virtual point from (node, v) so the ring is stable
      // regardless of node registration order.
      const uint64_t h =
          HashKey((static_cast<uint64_t>(node) << 32) | (v + 1));
      ring_.push_back({h, node});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const Point& a, const Point& b) {
              return a.hash < b.hash || (a.hash == b.hash && a.node < b.node);
            });
}

uint64_t HashRing::PlacementHash(store::TableId table, store::Key key) {
  return HashKey((static_cast<uint64_t>(table) << 48) ^ HashKey(key));
}

ReplicaSet HashRing::ReplicaSetForHash(uint64_t hash) const {
  ReplicaSet replicas;
  // First point clockwise from `hash`.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), hash,
      [](const Point& p, uint64_t h) { return p.hash < h; });
  size_t idx = static_cast<size_t>(it - ring_.begin()) % ring_.size();
  for (size_t scanned = 0;
       scanned < ring_.size() && replicas.size() < replication_; ++scanned) {
    const rdma::NodeId node = ring_[idx].node;
    if (!replicas.Contains(node)) replicas.PushBack(node);
    idx = (idx + 1) % ring_.size();
  }
  PANDORA_CHECK(replicas.size() == replication_);
  return replicas;
}

}  // namespace cluster
}  // namespace pandora
