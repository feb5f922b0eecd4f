#include "store/remote_object.h"

#include <array>

#include "common/checksum.h"
#include "common/coding.h"

namespace pandora {
namespace store {

namespace {

// One probe step's view: lock, version, key.
struct ProbeView {
  LockWord lock;
  VersionWord version;
  Key key;
};

Status ReadProbeView(rdma::QueuePair* qp, rdma::RKey rkey,
                     const TableLayout& layout, uint64_t slot,
                     ProbeView* view, uint64_t* rtts) {
  alignas(8) char buf[24];
  if (rtts != nullptr) ++*rtts;
  PANDORA_RETURN_NOT_OK(
      qp->Read(rkey, layout.LockOffset(slot), buf, sizeof(buf)));
  view->lock = DecodeFixed64(buf);
  view->version = DecodeFixed64(buf + 8);
  view->key = DecodeFixed64(buf + 16);
  return Status::OK();
}

}  // namespace

Status FindSlotByProbe(rdma::QueuePair* qp, rdma::RKey rkey,
                       const TableLayout& layout, Key key, SlotState* state,
                       uint64_t* rtts) {
  uint64_t probe = layout.HomeSlot(HashKey(key));
  for (uint64_t scanned = 0; scanned < layout.capacity(); ++scanned) {
    ProbeView view;
    PANDORA_RETURN_NOT_OK(
        ReadProbeView(qp, rkey, layout, probe, &view, rtts));
    if (view.key == key) {
      state->slot = probe;
      state->lock = view.lock;
      state->version = view.version;
      return Status::OK();
    }
    if (view.key == kFreeKey) {
      return Status::NotFound("key absent");
    }
    probe = layout.NextSlot(probe);
  }
  return Status::ResourceExhausted("probed entire region");
}

Status FindOrClaimSlot(rdma::QueuePair* qp, rdma::RKey rkey,
                       const TableLayout& layout, Key key, SlotState* state,
                       bool* existed, uint64_t* rtts) {
  uint64_t probe = layout.HomeSlot(HashKey(key));
  for (uint64_t scanned = 0; scanned < layout.capacity(); ++scanned) {
    ProbeView view;
    PANDORA_RETURN_NOT_OK(
        ReadProbeView(qp, rkey, layout, probe, &view, rtts));
    if (view.key == key) {
      state->slot = probe;
      state->lock = view.lock;
      state->version = view.version;
      *existed = true;
      return Status::OK();
    }
    if (view.key == kFreeKey) {
      uint64_t observed = 0;
      if (rtts != nullptr) ++*rtts;
      PANDORA_RETURN_NOT_OK(qp->CompareSwap(rkey, layout.KeyOffset(probe),
                                            kFreeKey, key, &observed));
      if (observed == kFreeKey || observed == key) {
        // Claimed by us, or concurrently claimed for the same key.
        state->slot = probe;
        state->lock = view.lock;
        state->version = view.version;
        *existed = (observed == key);
        return Status::OK();
      }
      // Claimed for a different key; keep probing past it.
    }
    probe = layout.NextSlot(probe);
  }
  return Status::ResourceExhausted("probed entire region");
}

void PostSlotRead(rdma::DoorbellGroup* group, rdma::QueuePair* qp,
                  rdma::RKey rkey, const TableLayout& layout, uint64_t slot,
                  char* buf) {
  group->Read(qp, rkey, layout.LockOffset(slot), buf,
              SlotReadSize(layout));
}

SlotReadView DecodeSlotRead(const char* buf) {
  SlotReadView view;
  view.lock = DecodeFixed64(buf);
  view.version = DecodeFixed64(buf + 8);
  view.key = DecodeFixed64(buf + 16);
  view.value = buf + 24;
  return view;
}

Status FindSlotsByBatchedProbe(const TableLayout& layout,
                               const std::vector<ProbeRequest>& requests,
                               std::vector<ProbeOutcome>* outcomes,
                               uint64_t* rounds,
                               BatchedProbeScratch* scratch) {
  outcomes->assign(requests.size(), ProbeOutcome{});

  // Working state lives in the caller's scratch when provided (repeated
  // callers reuse the grown vectors), else in a local one.
  BatchedProbeScratch local;
  if (scratch == nullptr) scratch = &local;
  std::vector<BatchedProbeScratch::Cursor>& cursors = scratch->cursors;
  cursors.assign(requests.size(), BatchedProbeScratch::Cursor{});
  for (size_t i = 0; i < requests.size(); ++i) {
    cursors[i].probe = layout.HomeSlot(HashKey(requests[i].key));
  }

  // 24-byte {lock, version, key} views, one per request, reused per round.
  std::vector<std::array<char, 24>>& bufs = scratch->bufs;
  if (bufs.size() < requests.size()) bufs.resize(requests.size());
  rdma::DoorbellGroup& group = scratch->group;

  size_t unresolved = requests.size();
  while (unresolved > 0) {
    for (size_t i = 0; i < requests.size(); ++i) {
      if (cursors[i].done) continue;
      group.Read(requests[i].qp, requests[i].rkey,
                 layout.LockOffset(cursors[i].probe), bufs[i].data(), 24);
    }
    if (rounds != nullptr) ++*rounds;
    const Status status = group.Execute();
    if (!status.ok()) {
      // A dead server or halted compute node fails the whole round with
      // its first error. Callers fall back to the sequential per-key path,
      // which has the retry machinery.
      for (size_t i = 0; i < requests.size(); ++i) {
        if (!cursors[i].done) (*outcomes)[i].status = status;
      }
      return status;
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      BatchedProbeScratch::Cursor& cursor = cursors[i];
      if (cursor.done) continue;
      const Key key = DecodeFixed64(bufs[i].data() + 16);
      if (key == requests[i].key) {
        (*outcomes)[i].status = Status::OK();
        (*outcomes)[i].state.slot = cursor.probe;
        (*outcomes)[i].state.lock = DecodeFixed64(bufs[i].data());
        (*outcomes)[i].state.version = DecodeFixed64(bufs[i].data() + 8);
        cursor.done = true;
        --unresolved;
      } else if (key == kFreeKey) {
        (*outcomes)[i].status = Status::NotFound("key absent");
        cursor.done = true;
        --unresolved;
      } else if (++cursor.scanned >= layout.capacity()) {
        (*outcomes)[i].status =
            Status::ResourceExhausted("probed entire region");
        cursor.done = true;
        --unresolved;
      } else {
        cursor.probe = layout.NextSlot(cursor.probe);
      }
    }
  }
  return Status::OK();
}

}  // namespace store
}  // namespace pandora
