#ifndef PANDORA_CLUSTER_ADDRESS_CACHE_H_
#define PANDORA_CLUSTER_ADDRESS_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/checksum.h"
#include "rdma/types.h"
#include "store/table_layout.h"

namespace pandora {
namespace cluster {

/// Maps (table, memory node, key) -> hash-table slot index.
///
/// FORD-style DKVSes resolve object addresses by traversing a hash index
/// with one-sided reads, then cache the addresses on the compute side so
/// that steady-state transactions know "exact addresses" and can lock
/// eagerly (§3.1.5 step 1). We model that cache directly. Its base is a
/// compute-side copy of each region's key column, written by the loader and
/// by rebuilds (`mirror[slot] == key`), and walked with the store's own
/// linear probe, so a key's slot is where the walk finds it. Runtime
/// inserts/probes add to a small overlay. Coordinators consult the cache
/// through their private Locator, which remembers what they found here.
class AddressCache {
 public:
  AddressCache(size_t num_tables, uint32_t num_memory_nodes)
      : base_(num_tables * num_memory_nodes),
        overlay_(num_tables * num_memory_nodes),
        num_memory_nodes_(num_memory_nodes) {}

  AddressCache(const AddressCache&) = delete;
  AddressCache& operator=(const AddressCache&) = delete;

  /// Records that `key` sits in `slot` of `node`'s region of
  /// `layout.table()`. Loader-only (single-threaded, before transactions
  /// start, or a quiesced rebuild); the first call for a (table, node)
  /// allocates its key column.
  void InsertBase(const store::TableLayout& layout, rdma::NodeId node,
                  store::Key key, uint64_t slot) {
    KeyColumn& column = base_[Index(layout.table(), node)];
    if (column.keys.empty()) {
      column.layout = layout;
      column.keys.assign(layout.capacity(), store::kFreeKey);
    }
    column.keys[slot] = key;
  }

  /// Runtime insert discovered via remote probing (thread-safe).
  void InsertOverlay(store::TableId table, rdma::NodeId node, store::Key key,
                     uint64_t slot) {
    Shard& shard = overlay_[Index(table, node)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.map[key] = slot;
  }

  /// Drops every entry for (table, node) and frees its key column — used
  /// when a memory server is rebuilt and its slot assignments change.
  /// Loader-grade operation: the caller must have quiesced the system, and
  /// must advance the placement epoch (Cluster::WipeMemoryNode does) so
  /// Locator entries holding the old slots die too.
  void ResetNode(store::TableId table, rdma::NodeId node) {
    base_[Index(table, node)] = KeyColumn{};
    Shard& shard = overlay_[Index(table, node)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.map.clear();
  }

  std::optional<uint64_t> Lookup(store::TableId table, rdma::NodeId node,
                                 store::Key key) const {
    const KeyColumn& column = base_[Index(table, node)];
    if (!column.keys.empty()) {
      // The probe LoadRow placed the key with: its slot is the first one
      // holding it, and a free slot ends the chain.
      const store::TableLayout& layout = column.layout;
      uint64_t slot = layout.HomeSlot(HashKey(key));
      for (uint64_t scanned = 0; scanned < layout.capacity(); ++scanned) {
        const store::Key found = column.keys[slot];
        if (found == key) return slot;
        if (found == store::kFreeKey) break;
        slot = layout.NextSlot(slot);
      }
    }
    const Shard& shard = overlay_[Index(table, node)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    if (auto it = shard.map.find(key); it != shard.map.end()) {
      return it->second;
    }
    return std::nullopt;
  }

 private:
  /// One region's key column as the loader left it; empty until the
  /// region's first loaded key.
  struct KeyColumn {
    store::TableLayout layout;
    std::vector<store::Key> keys;
  };

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<store::Key, uint64_t> map;
  };

  size_t Index(store::TableId table, rdma::NodeId node) const {
    return static_cast<size_t>(table) * num_memory_nodes_ + node;
  }

  std::vector<KeyColumn> base_;
  mutable std::vector<Shard> overlay_;
  uint32_t num_memory_nodes_;
};

}  // namespace cluster
}  // namespace pandora

#endif  // PANDORA_CLUSTER_ADDRESS_CACHE_H_
