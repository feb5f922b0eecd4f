#ifndef PANDORA_CLUSTER_ADDRESS_CACHE_H_
#define PANDORA_CLUSTER_ADDRESS_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "rdma/types.h"
#include "store/table_layout.h"

namespace pandora {
namespace cluster {

/// Maps (table, memory node, key) -> hash-table slot index.
///
/// FORD-style DKVSes resolve object addresses by traversing a hash index
/// with one-sided reads, then cache the addresses on the compute side so
/// that steady-state transactions know "exact addresses" and can lock
/// eagerly (§3.1.5 step 1). We model that cache directly: the bulk loader
/// fills a shared read-only base map, and runtime inserts/probes add to a
/// small overlay. Coordinators consult it through their private Locator,
/// which remembers what they found here.
class AddressCache {
 public:
  AddressCache(size_t num_tables, uint32_t num_memory_nodes)
      : base_(num_tables * num_memory_nodes),
        overlay_(num_tables * num_memory_nodes),
        num_memory_nodes_(num_memory_nodes) {}

  AddressCache(const AddressCache&) = delete;
  AddressCache& operator=(const AddressCache&) = delete;

  /// Loader-only (single-threaded, before transactions start).
  void InsertBase(store::TableId table, rdma::NodeId node, store::Key key,
                  uint64_t slot) {
    base_[Index(table, node)][key] = slot;
  }

  /// Runtime insert discovered via remote probing (thread-safe).
  void InsertOverlay(store::TableId table, rdma::NodeId node, store::Key key,
                     uint64_t slot) {
    Shard& shard = overlay_[Index(table, node)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.map[key] = slot;
  }

  /// Drops every entry for (table, node) — used when a memory server is
  /// rebuilt and its slot assignments change. Loader-grade operation: the
  /// caller must have quiesced the system, and must advance the placement
  /// epoch (Cluster::WipeMemoryNode does) so Locator entries holding the
  /// old slots die too.
  void ResetNode(store::TableId table, rdma::NodeId node) {
    base_[Index(table, node)].clear();
    Shard& shard = overlay_[Index(table, node)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.map.clear();
  }

  std::optional<uint64_t> Lookup(store::TableId table, rdma::NodeId node,
                                 store::Key key) const {
    const auto& base = base_[Index(table, node)];
    if (auto it = base.find(key); it != base.end()) return it->second;
    const Shard& shard = overlay_[Index(table, node)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    if (auto it = shard.map.find(key); it != shard.map.end()) {
      return it->second;
    }
    return std::nullopt;
  }

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<store::Key, uint64_t> map;
  };

  size_t Index(store::TableId table, rdma::NodeId node) const {
    return static_cast<size_t>(table) * num_memory_nodes_ + node;
  }

  std::vector<std::unordered_map<store::Key, uint64_t>> base_;
  mutable std::vector<Shard> overlay_;
  uint32_t num_memory_nodes_;
};

}  // namespace cluster
}  // namespace pandora

#endif  // PANDORA_CLUSTER_ADDRESS_CACHE_H_
