#include "cluster/cluster.h"

#include <algorithm>
#include <cstring>

#include "cluster/locator.h"
#include "common/checksum.h"
#include "common/coding.h"
#include "common/logging.h"
#include "store/object_header.h"

namespace pandora {
namespace cluster {

namespace {

// Upper bound on tables per deployment (TPC-C needs 9); lets the address
// cache be sized before the schema exists.
constexpr size_t kMaxTables = 16;

// Keep hash-table regions at or below this load factor so linear probes
// stay short.
constexpr double kMaxLoadFactor = 0.6;

}  // namespace

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  PANDORA_CHECK(config_.replication >= 1);
  PANDORA_CHECK(config_.replication <= config_.memory_nodes);
  fabric_ = std::make_unique<rdma::Fabric>(config_.net);

  // Active nodes first, then standbys: both are attached (regions, queue
  // pairs, rkeys exist) but only active nodes enter the initial ring;
  // standbys are marked dead until a live join admits them.
  std::vector<rdma::NodeId> memory_ids;
  for (uint32_t i = 0; i < total_memory_nodes(); ++i) {
    const rdma::NodeId id = memory_node_id(i);
    memory_pds_.push_back(fabric_->AttachMemoryNode(id));
    if (i < config_.memory_nodes) {
      memory_ids.push_back(id);
      membership_.MarkMemoryAlive(id);
    } else {
      membership_.MarkMemoryDead(id);
    }
  }

  ring_storage_.push_back(
      std::make_unique<HashRing>(memory_ids, config_.replication));
  active_ring_.store(ring_storage_.back().get(),
                     std::memory_order_release);
  catalog_ = std::make_unique<Catalog>(total_memory_nodes());
  addresses_ =
      std::make_unique<AddressCache>(kMaxTables, total_memory_nodes());

  // Per-coordinator undo-log area on every memory server.
  const store::LogLayout log_layout(config_.log);
  for (uint32_t i = 0; i < total_memory_nodes(); ++i) {
    const rdma::RKey rkey = memory_pds_[i]->RegisterRegion(
        log_layout.region_size(), "log");
    catalog_->SetLogRegion(memory_node_id(i), rkey, log_layout);
  }

  for (uint32_t i = 0; i < config_.compute_nodes; ++i) {
    computes_.push_back(
        std::make_unique<ComputeServer>(compute_node_id(i), fabric_.get()));
  }
}

std::vector<ComputeServer*> Cluster::ComputeServers() {
  std::vector<ComputeServer*> out;
  out.reserve(computes_.size());
  for (auto& c : computes_) out.push_back(c.get());
  return out;
}

store::TableId Cluster::CreateTable(const std::string& name,
                                    uint32_t value_size,
                                    uint64_t expected_keys) {
  PANDORA_CHECK(catalog_->num_tables() < kMaxTables);
  // Every memory server can be a replica for any key; with an even key
  // spread each holds ~ expected_keys * replication / memory_nodes objects.
  const double per_server =
      static_cast<double>(expected_keys) * config_.replication /
      config_.memory_nodes;
  const uint64_t capacity = std::max<uint64_t>(
      64, static_cast<uint64_t>(per_server / kMaxLoadFactor) + 1);
  // Locator entries hold 32-bit slots.
  PANDORA_CHECK(capacity < Locator::kUnknownSlot);

  TableInfo info;
  info.spec.name = name;
  info.spec.value_size = value_size;
  info.spec.capacity = capacity;
  info.region_rkeys.resize(total_memory_nodes(), rdma::kInvalidRKey);
  const store::TableId id = catalog_->AddTable(std::move(info));

  TableInfo& stored = catalog_->mutable_table(id);
  for (uint32_t i = 0; i < total_memory_nodes(); ++i) {
    stored.region_rkeys[i] = memory_pds_[i]->RegisterRegion(
        stored.layout.region_size(), name);
    // Mark every slot free: a zeroed key word would collide with legal
    // key 0.
    rdma::MemoryRegion* region =
        memory_pds_[i]->GetRegion(stored.region_rkeys[i]);
    for (uint64_t slot = 0; slot < stored.layout.capacity(); ++slot) {
      EncodeFixed64(region->base() + stored.layout.KeyOffset(slot),
                    store::kFreeKey);
    }
  }
  return id;
}

Status Cluster::LoadRow(store::TableId table, store::Key key, Slice value) {
  const TableInfo& info = catalog_->table(table);
  if (key == store::kFreeKey) {
    return Status::InvalidArgument("reserved key value");
  }
  if (value.size() > info.spec.value_size) {
    return Status::InvalidArgument("value larger than table value_size");
  }
  const store::TableLayout& layout = info.layout;

  for (const rdma::NodeId node : ring().ReplicaSetFor(table, key)) {
    rdma::MemoryRegion* region =
        memory_pds_[node]->GetRegion(info.region_rkeys[node]);
    PANDORA_CHECK(region != nullptr);
    char* base = region->base();

    // Linear probe for the key's slot (control path: direct memory).
    uint64_t slot = layout.HomeSlot(HashKey(key));
    uint64_t scanned = 0;
    while (true) {
      if (scanned++ == layout.capacity()) {
        return Status::ResourceExhausted("table region full during load");
      }
      const uint64_t existing =
          DecodeFixed64(base + layout.KeyOffset(slot));
      if (existing == store::kFreeKey) break;
      if (existing == key) break;  // Overwrite (idempotent load).
      slot = layout.NextSlot(slot);
    }

    EncodeFixed64(base + layout.KeyOffset(slot), key);
    std::memset(base + layout.ValueOffset(slot), 0,
                layout.padded_value_size());
    if (!value.empty()) {
      std::memcpy(base + layout.ValueOffset(slot), value.data(),
                  value.size());
    }
    EncodeFixed64(base + layout.LockOffset(slot), store::kUnlocked);
    EncodeFixed64(base + layout.VersionOffset(slot),
                  store::MakeVersion(/*version=*/1, /*tombstone=*/false));
    addresses_->InsertBase(layout, node, key, slot);
  }
  return Status::OK();
}

void Cluster::WipeMemoryNode(rdma::NodeId node) {
  rdma::ProtectionDomain* pd = memory_pds_[node];
  for (size_t t = 0; t < catalog_->num_tables(); ++t) {
    const TableInfo& info = catalog_->table(static_cast<store::TableId>(t));
    rdma::MemoryRegion* region = pd->GetRegion(info.region_rkeys[node]);
    region->Reset();
    for (uint64_t slot = 0; slot < info.layout.capacity(); ++slot) {
      EncodeFixed64(region->base() + info.layout.KeyOffset(slot),
                    store::kFreeKey);
    }
    addresses_->ResetNode(static_cast<store::TableId>(t), node);
  }
  // Resetting returns the log's pages instead of faulting every one in to
  // store zeros: a wipe costs what the run touched, not the configured log.
  pd->GetRegion(catalog_->log_rkey(node))->Reset();
  wipes_.fetch_add(1, std::memory_order_acq_rel);
}

const HashRing& Cluster::InstallRing(std::unique_ptr<HashRing> ring) {
  std::lock_guard<std::mutex> lock(ring_mu_);
  ring_storage_.push_back(std::move(ring));
  const HashRing* installed = ring_storage_.back().get();
  active_ring_.store(installed, std::memory_order_release);
  return *installed;
}

Status Cluster::RebuildMemoryNode(rdma::NodeId node) {
  if (membership_.IsMemoryAlive(node)) {
    return Status::InvalidArgument("memory node is not dead");
  }
  // Stop-the-world precondition: copying slots while transactions mutate
  // them silently corrupts the rebuilt replica. When the recovery layer
  // installed its quiesce probe, refuse instead of corrupting; callers
  // that need a rebuild under traffic must go through the online
  // reconfiguration path (cluster::ReconfigManager).
  if (quiesce_check_ && !quiesce_check_()) {
    return Status::Busy(
        "RebuildMemoryNode requires quiesced transactions; use the online "
        "reconfiguration path under traffic");
  }
  rdma::ProtectionDomain* pd = memory_pds_[node];

  // Wipe: a replacement server starts empty (the crashed server's DRAM is
  // gone). Region objects are reused; contents are reset.
  WipeMemoryNode(node);

  // Re-replicate: copy every object whose replica set includes this node
  // from its current primary. (A production system streams this with
  // one-sided reads; re-replication is a stop-the-world control-path bulk
  // operation either way, §3.2.5.)
  for (size_t t = 0; t < catalog_->num_tables(); ++t) {
    const store::TableId table = static_cast<store::TableId>(t);
    const TableInfo& info = catalog_->table(table);
    const store::TableLayout& layout = info.layout;
    rdma::MemoryRegion* dst_region = pd->GetRegion(info.region_rkeys[node]);

    for (const rdma::NodeId source : ring().nodes()) {
      if (source == node || !membership_.IsMemoryAlive(source)) continue;
      rdma::MemoryRegion* src_region =
          memory_pds_[source]->GetRegion(info.region_rkeys[source]);

      for (uint64_t slot = 0; slot < layout.capacity(); ++slot) {
        const store::Key key =
            DecodeFixed64(src_region->base() + layout.KeyOffset(slot));
        if (key == store::kFreeKey) continue;
        // One ring walk per object: replica membership and the current
        // primary both come from the same inline replica set.
        const ReplicaSet replicas = ring().ReplicaSetFor(table, key);
        if (!replicas.Contains(node)) continue;
        // Copy once, from the current primary only.
        if (PrimaryOf(replicas) != source) continue;
        // Probe-insert into the rebuilt region.
        uint64_t dst = layout.HomeSlot(HashKey(key));
        uint64_t scanned = 0;
        while (DecodeFixed64(dst_region->base() + layout.KeyOffset(dst)) !=
               store::kFreeKey) {
          if (scanned++ == layout.capacity()) {
            return Status::ResourceExhausted(
                "rebuilt region full during re-replication");
          }
          dst = layout.NextSlot(dst);
        }
        std::memcpy(dst_region->base() + layout.SlotOffset(dst),
                    src_region->base() + layout.SlotOffset(slot),
                    layout.slot_size());
        addresses_->InsertBase(layout, node, key, dst);
      }
    }
  }

  fabric_->RestoreNodeEverywhere(node);
  fabric_->ResumeNode(node);
  membership_.MarkMemoryAlive(node);
  return Status::OK();
}

rdma::NodeId Cluster::PrimaryFor(store::TableId table,
                                 store::Key key) const {
  return PrimaryOf(ring().ReplicaSetFor(table, key));
}

}  // namespace cluster
}  // namespace pandora
