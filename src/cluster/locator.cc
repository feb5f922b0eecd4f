#include "cluster/locator.h"

namespace pandora {
namespace cluster {

Locator::Entry& Locator::Locate(store::TableId table, store::Key key,
                                bool* hit) {
  // Read the epoch before the ring: an entry filled from a ring that was
  // swapped in meanwhile is tagged with the older epoch and dies at the
  // next Locate.
  const uint64_t epoch = cluster_->placement_epoch();
  Entry& entry = entries_[IndexOf(table, key)];
  *hit = entry.epoch == epoch && entry.key == key && entry.table == table;
  if (*hit) return entry;
  entry.key = key;
  entry.epoch = epoch;
  entry.table = table;
  entry.replicas = cluster_->ReplicaSetFor(table, key);
  entry.slots.fill(kUnknownSlot);
  return entry;
}

std::optional<uint64_t> Locator::SlotOn(Entry& entry, uint32_t i) {
  if (entry.slots[i] != kUnknownSlot) return entry.slots[i];
  const std::optional<uint64_t> shared =
      cluster_->addresses().Lookup(entry.table, entry.replicas[i], entry.key);
  if (shared) entry.slots[i] = static_cast<uint32_t>(*shared);
  return shared;
}

void Locator::Learn(store::TableId table, store::Key key, rdma::NodeId node,
                    uint64_t slot) {
  cluster_->addresses().InsertOverlay(table, node, key, slot);
  Entry& entry = entries_[IndexOf(table, key)];
  if (entry.key != key || entry.table != table ||
      entry.epoch != cluster_->placement_epoch()) {
    return;
  }
  for (uint32_t i = 0; i < entry.replicas.size(); ++i) {
    if (entry.replicas[i] == node) {
      entry.slots[i] = static_cast<uint32_t>(slot);
    }
  }
}

}  // namespace cluster
}  // namespace pandora
