#ifndef PANDORA_CLUSTER_ADDRESS_CACHE_H_
#define PANDORA_CLUSTER_ADDRESS_CACHE_H_

#include <array>
#include <atomic>
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
/// small per-compute-node overlay.
class AddressCache {
 public:
  AddressCache(size_t num_tables, uint32_t num_memory_nodes)
      : base_(num_tables * num_memory_nodes),
        overlay_(num_tables * num_memory_nodes),
        epochs_(num_memory_nodes),
        num_memory_nodes_(num_memory_nodes) {}

  AddressCache(const AddressCache&) = delete;
  AddressCache& operator=(const AddressCache&) = delete;

  /// Monotonic per-node epoch, bumped by ResetNode when a rebuilt memory
  /// server's slot assignments change. Per-coordinator L1 caches
  /// (LocalAddressCache) tag entries with this epoch, so a rebuild
  /// invalidates every coordinator's private entries without a broadcast.
  uint32_t node_epoch(rdma::NodeId node) const {
    return epochs_[node].load(std::memory_order_acquire);
  }

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
  /// caller must have quiesced the system.
  void ResetNode(store::TableId table, rdma::NodeId node) {
    base_[Index(table, node)].clear();
    Shard& shard = overlay_[Index(table, node)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.map.clear();
    epochs_[node].fetch_add(1, std::memory_order_acq_rel);
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
  std::vector<std::atomic<uint32_t>> epochs_;  // One per memory node.
  uint32_t num_memory_nodes_;
};

/// Per-coordinator L1 in front of the shared AddressCache: a small
/// direct-mapped, lock-free table of (table, node, key) -> slot.
///
/// The shared overlay already persists across aborts, but every retried
/// transaction still pays a reader-writer lock plus a hash-map probe per
/// replica per op to re-resolve addresses it just resolved. Coordinators
/// are single-threaded, so this private cache answers the retry hit with
/// one array index and no synchronization; entries are validated against
/// the shared per-node epoch so a memory-server rebuild (which reassigns
/// slots) invalidates them implicitly.
class LocalAddressCache {
 public:
  std::optional<uint64_t> Lookup(const AddressCache& shared,
                                 store::TableId table, rdma::NodeId node,
                                 store::Key key) const {
    const Entry& e = entries_[IndexOf(table, node, key)];
    if (e.valid && e.table == table && e.node == node && e.key == key &&
        e.epoch == shared.node_epoch(node)) {
      return e.slot;
    }
    return std::nullopt;
  }

  void Insert(const AddressCache& shared, store::TableId table,
              rdma::NodeId node, store::Key key, uint64_t slot) {
    Entry& e = entries_[IndexOf(table, node, key)];
    e.key = key;
    e.slot = slot;
    e.table = table;
    e.node = node;
    e.epoch = shared.node_epoch(node);
    e.valid = true;
  }

 private:
  // Power of two; 1024 entries × 32 B ≈ 32 KiB per coordinator, enough to
  // keep a transaction's whole footprint resident across a retry burst.
  static constexpr size_t kEntries = 1024;

  struct Entry {
    store::Key key = 0;
    uint64_t slot = 0;
    store::TableId table = 0;
    rdma::NodeId node = 0;
    uint32_t epoch = 0;
    bool valid = false;
  };

  static size_t IndexOf(store::TableId table, rdma::NodeId node,
                        store::Key key) {
    uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<uint64_t>(table) << 32) ^ node;
    h *= 0xff51afd7ed558ccdULL;
    return static_cast<size_t>((h >> 33) & (kEntries - 1));
  }

  std::array<Entry, kEntries> entries_{};
};

}  // namespace cluster
}  // namespace pandora

#endif  // PANDORA_CLUSTER_ADDRESS_CACHE_H_
