#ifndef PANDORA_RDMA_ORDERED_BATCH_H_
#define PANDORA_RDMA_ORDERED_BATCH_H_

#include <cstdint>

#include "common/status.h"
#include "rdma/doorbell_group.h"
#include "rdma/queue_pair.h"
#include "rdma/types.h"

namespace pandora {
namespace rdma {

/// A DoorbellGroup bound to one queue pair: a single ordered chain, such
/// as the §3.1.1 lock CAS with the undo-image read behind it. Its wait,
/// flush and statuses are the group's.
class OrderedBatch {
 public:
  explicit OrderedBatch(QueuePair* qp) : qp_(qp) {}

  QueuePair* qp() const { return qp_; }

  size_t Read(RKey rkey, uint64_t offset, void* dst, size_t len) {
    return group_.Read(qp_, rkey, offset, dst, len);
  }
  size_t Write(RKey rkey, uint64_t offset, const void* src, size_t len) {
    return group_.Write(qp_, rkey, offset, src, len);
  }
  size_t CompareSwap(RKey rkey, uint64_t offset, uint64_t expected,
                     uint64_t desired, uint64_t* observed) {
    return group_.CompareSwap(qp_, rkey, offset, expected, desired,
                              observed);
  }

  Status Execute() { return group_.Execute(); }
  const Status& status(size_t index) const { return group_.status(index); }
  size_t size() const { return group_.size(); }
  uint64_t last_wait_ns() const { return group_.last_wait_ns(); }

 private:
  QueuePair* qp_;
  DoorbellGroup group_;
};

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_ORDERED_BATCH_H_
