#ifndef PANDORA_CLUSTER_LOCATOR_H_
#define PANDORA_CLUSTER_LOCATOR_H_

#include <array>
#include <cstdint>
#include <limits>
#include <optional>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "rdma/types.h"
#include "store/table_layout.h"

namespace pandora {
namespace cluster {

/// Per-coordinator answer to "where does this object live?": the exact
/// (table, key) maps to its replica set plus its slot on each replica —
/// the "exact addresses" a coordinator needs to lock eagerly (§3.1.5
/// step 1).
///
/// Direct-mapped and private to one single-threaded coordinator, so a
/// lookup is one array index with no synchronization. Every entry is
/// tagged with Cluster::placement_epoch(), which advances on any ring
/// swap, membership change or memory-node wipe; an entry from another
/// epoch is dead, so reconfigurations, failovers and rebuilds invalidate
/// every coordinator's entries without a broadcast. Slots are filled
/// lazily: from the cluster's shared, loader-filled AddressCache, else by
/// the caller's remote probe (Learn).
class Locator {
 public:
  /// Slot not resolved yet on this replica.
  static constexpr uint32_t kUnknownSlot =
      std::numeric_limits<uint32_t>::max();

  struct Entry {
    store::Key key = 0;
    /// placement_epoch() at Locate; 0 marks a never-filled entry (the
    /// epoch starts at 1).
    uint64_t epoch = 0;
    store::TableId table = 0;
    /// Static ring order, primary candidate first.
    ReplicaSet replicas;
    /// Slot on replicas[i], or kUnknownSlot. 32 bits suffice: a table's
    /// capacity is checked below kUnknownSlot at creation.
    std::array<uint32_t, kMaxReplication> slots{};
  };

  explicit Locator(Cluster* cluster) : cluster_(cluster) {}

  Locator(const Locator&) = delete;
  Locator& operator=(const Locator&) = delete;

  /// The entry of (table, key) at the current placement epoch. On a miss
  /// (`*hit` false) the replica set is re-walked from the ring and every
  /// slot forgotten. The reference stays valid until the next Locate,
  /// which may evict it.
  Entry& Locate(store::TableId table, store::Key key, bool* hit);

  /// The object's slot on replica `i` of `entry`: the remembered one, else
  /// the shared AddressCache's (remembered from now on). nullopt when
  /// neither knows it; the caller probes and reports back with Learn.
  std::optional<uint64_t> SlotOn(Entry& entry, uint32_t i);

  /// Records a probed slot of (table, key) on `node`: in the shared
  /// AddressCache, and in the object's entry if it is still resident at
  /// the current epoch.
  void Learn(store::TableId table, store::Key key, rdma::NodeId node,
             uint64_t slot);

 private:
  // Power of two; 1024 entries × 72 B = 72 KiB per coordinator, enough
  // to keep a transaction's whole footprint resident across a retry burst.
  static constexpr size_t kEntries = 1024;

  static size_t IndexOf(store::TableId table, store::Key key) {
    uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<uint64_t>(table) << 32;
    h *= 0xff51afd7ed558ccdULL;
    return static_cast<size_t>((h >> 33) & (kEntries - 1));
  }

  Cluster* cluster_;
  std::array<Entry, kEntries> entries_{};
};

static_assert(sizeof(Locator::Entry) <= 72,
              "a Locator entry grew past 72 B (32-bit slots)");

}  // namespace cluster
}  // namespace pandora

#endif  // PANDORA_CLUSTER_LOCATOR_H_
