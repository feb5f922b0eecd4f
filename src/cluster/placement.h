#ifndef PANDORA_CLUSTER_PLACEMENT_H_
#define PANDORA_CLUSTER_PLACEMENT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "rdma/types.h"
#include "store/table_layout.h"

namespace pandora {
namespace cluster {

/// Upper bound on the replication factor. Placement results are returned in
/// fixed-capacity inline arrays sized by this constant so the per-operation
/// lookup path never touches the heap; raising it only costs a few bytes per
/// cached placement entry.
constexpr uint32_t kMaxReplication = 8;

/// Fixed-capacity, inline replica set (primary-candidate order). Fits in two
/// cache lines' worth of registers, is trivially copyable, and never
/// allocates — this is the hot-path currency for placement lookups.
class ReplicaSet {
 public:
  using const_iterator = const rdma::NodeId*;

  ReplicaSet() = default;

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  rdma::NodeId operator[](uint32_t i) const { return nodes_[i]; }

  const_iterator begin() const { return nodes_.data(); }
  const_iterator end() const { return nodes_.data() + size_; }

  /// First replica in ring order — the *static* primary candidate. Liveness
  /// filtering (who is primary now) is layered on top by the caller.
  rdma::NodeId front() const { return nodes_[0]; }

  void PushBack(rdma::NodeId node) { nodes_[size_++] = node; }
  void Clear() { size_ = 0; }

  bool Contains(rdma::NodeId node) const {
    for (uint32_t i = 0; i < size_; ++i) {
      if (nodes_[i] == node) return true;
    }
    return false;
  }

  bool operator==(const ReplicaSet& other) const {
    if (size_ != other.size_) return false;
    for (uint32_t i = 0; i < size_; ++i) {
      if (nodes_[i] != other.nodes_[i]) return false;
    }
    return true;
  }
  bool operator!=(const ReplicaSet& other) const { return !(*this == other); }

 private:
  std::array<rdma::NodeId, kMaxReplication> nodes_{};
  uint32_t size_ = 0;
};

/// Consistent-hash placement of objects onto memory servers (§3.2.5: "We
/// use consistent hashing to statically partition data across memory
/// servers, avoiding resizing when new replicas are added or removed").
///
/// Each memory node contributes a fixed number of virtual points on the
/// ring. An object's replica set is the first `replication` *distinct*
/// nodes clockwise from hash(table, key). The replica list is a static
/// property of the full ring; liveness filtering (who is primary *now*) is
/// applied on top by the membership view, so that when a memory server
/// fails, "compute servers deterministically calculate the new primary"
/// (the first alive node in the replica list).
class HashRing {
 public:
  HashRing(std::vector<rdma::NodeId> nodes, uint32_t replication,
           uint32_t vnodes_per_node = 64);

  uint32_t replication() const { return replication_; }
  const std::vector<rdma::NodeId>& nodes() const { return nodes_; }

  /// Monotonic ring identity: every constructed ring gets a distinct epoch
  /// from a process-wide counter, so epoch-tagged Locator entries are
  /// implicitly invalidated when a cluster swaps in a rebuilt ring.
  uint64_t epoch() const { return epoch_; }

  /// Allocation-free replica set (ring order, primary candidate first) for
  /// an object. Size == replication(). This is the hot-path lookup.
  ReplicaSet ReplicaSetFor(store::TableId table, store::Key key) const {
    return ReplicaSetForHash(PlacementHash(table, key));
  }

  /// Allocation-free replica set for a precomputed placement hash.
  ReplicaSet ReplicaSetForHash(uint64_t hash) const;

  /// Placement hash of (table, key).
  static uint64_t PlacementHash(store::TableId table, store::Key key);

 private:
  struct Point {
    uint64_t hash;
    rdma::NodeId node;
  };

  std::vector<rdma::NodeId> nodes_;
  uint32_t replication_;
  uint64_t epoch_;
  std::vector<Point> ring_;  // Sorted by hash.
};

}  // namespace cluster
}  // namespace pandora

#endif  // PANDORA_CLUSTER_PLACEMENT_H_
