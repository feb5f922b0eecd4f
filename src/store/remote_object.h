#ifndef PANDORA_STORE_REMOTE_OBJECT_H_
#define PANDORA_STORE_REMOTE_OBJECT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rdma/doorbell_group.h"
#include "rdma/queue_pair.h"
#include "store/object_header.h"
#include "store/table_layout.h"

namespace pandora {
namespace store {

/// Snapshot of a slot's control words as observed by a one-sided read.
struct SlotState {
  uint64_t slot = 0;
  LockWord lock = 0;
  VersionWord version = 0;
};

/// Compute-side one-sided operations on table regions that need more than a
/// single verb: hash-table probing and insert-slot claiming. Everything
/// else (lock CAS, slot reads/writes) is a single verb that the protocols
/// issue directly through TableLayout offsets.

/// Probes for `key` with one-sided 24-byte reads ({lock, version, key} per
/// slot). On success fills `state`. Returns NotFound if the probe hits a
/// free slot (key absent) and ResourceExhausted if the whole region was
/// scanned. `rtts` (optional) accumulates the round trips spent probing.
Status FindSlotByProbe(rdma::QueuePair* qp, rdma::RKey rkey,
                       const TableLayout& layout, Key key, SlotState* state,
                       uint64_t* rtts = nullptr);

/// Finds the slot for `key`, or claims a free slot for an insert by CASing
/// the key word from kFreeKey to `key`. On success `*state` names the
/// object's slot (existing or newly claimed) and `*existed` says which.
/// Claiming is idempotent under races: if another coordinator claims the
/// probed slot first, probing continues. `rtts` (optional) accumulates the
/// round trips spent.
Status FindOrClaimSlot(rdma::QueuePair* qp, rdma::RKey rkey,
                       const TableLayout& layout, Key key, SlotState* state,
                       bool* existed, uint64_t* rtts = nullptr);

/// --- Combined slot reads (lock + version + key + value in one verb) ----

/// Bytes a combined slot read covers: the full slot from the lock word.
inline size_t SlotReadSize(const TableLayout& layout) {
  return 24 + layout.padded_value_size();
}

/// Posts a combined read of `slot`'s {lock, version, key, value} into
/// `group`. `buf` must hold SlotReadSize(layout) bytes and stay alive
/// until the group executes.
void PostSlotRead(rdma::DoorbellGroup* group, rdma::QueuePair* qp,
                  rdma::RKey rkey, const TableLayout& layout, uint64_t slot,
                  char* buf);

/// Decoded view over a combined slot read. `value` aliases `buf`.
struct SlotReadView {
  LockWord lock = 0;
  VersionWord version = 0;
  Key key = 0;
  const char* value = nullptr;
};
SlotReadView DecodeSlotRead(const char* buf);

/// --- Batched slot resolution -------------------------------------------

/// One key's slot-resolution request in a batched probe: the key may live
/// on any server (per-request QP/rkey), so a range scan batches across its
/// keys and a replica-set resolution batches the same key across replicas.
struct ProbeRequest {
  rdma::QueuePair* qp = nullptr;
  rdma::RKey rkey = rdma::kInvalidRKey;
  Key key = 0;
};

struct ProbeOutcome {
  Status status;    // OK, NotFound (key absent), or a verb error.
  SlotState state;  // Valid when status.ok().
};

/// Reusable per-caller working state for FindSlotsByBatchedProbe: probe
/// cursors, the per-request 24-byte read views and the doorbell group the
/// rounds ring. A caller that batches
/// probes repeatedly (e.g. a coordinator's range reads) holds one of these
/// so steady-state resolution reuses the grown vectors instead of
/// allocating a cursor array and buffer pool per call.
struct BatchedProbeScratch {
  struct Cursor {
    uint64_t probe = 0;
    uint64_t scanned = 0;
    bool done = false;
  };
  std::vector<Cursor> cursors;
  std::vector<std::array<char, 24>> bufs;
  rdma::DoorbellGroup group;
};

/// Resolves many keys' slots by linear probing, batching each probe step
/// across all still-unresolved requests into one doorbell — max-RTT rounds
/// instead of per-key sequential probe chains. Per-key results land in
/// `outcomes` (resized to match `requests`); the return value is the first
/// verb-level error, which also fails every still-unresolved request.
/// `rounds` (optional) accumulates the number of round trips spent.
/// `scratch` (optional) supplies reusable working vectors; without it the
/// call allocates its own.
Status FindSlotsByBatchedProbe(const TableLayout& layout,
                               const std::vector<ProbeRequest>& requests,
                               std::vector<ProbeOutcome>* outcomes,
                               uint64_t* rounds = nullptr,
                               BatchedProbeScratch* scratch = nullptr);

}  // namespace store
}  // namespace pandora

#endif  // PANDORA_STORE_REMOTE_OBJECT_H_
