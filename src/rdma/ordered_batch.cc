#include "rdma/ordered_batch.h"

#include "common/clock.h"

namespace pandora {
namespace rdma {

size_t OrderedBatch::Record(const Status& status, uint64_t rtt_ns) {
  statuses_.push_back(status);
  if (status.ok()) {
    wait_.Add(rtt_ns, qp_->net());
  } else {
    errored_ = true;
    if (first_error_.ok()) first_error_ = status;
  }
  return statuses_.size() - 1;
}

size_t OrderedBatch::Read(RKey rkey, uint64_t offset, void* dst,
                          size_t len) {
  if (errored_) return Record(Status::Aborted("work request flushed"), 0);
  uint64_t rtt = 0;
  const Status status = qp_->PostRead(rkey, offset, dst, len, &rtt);
  return Record(status, rtt);
}

size_t OrderedBatch::Write(RKey rkey, uint64_t offset, const void* src,
                           size_t len) {
  if (errored_) return Record(Status::Aborted("work request flushed"), 0);
  uint64_t rtt = 0;
  const Status status = qp_->PostWrite(rkey, offset, src, len, &rtt);
  return Record(status, rtt);
}

size_t OrderedBatch::CompareSwap(RKey rkey, uint64_t offset,
                                 uint64_t expected, uint64_t desired,
                                 uint64_t* observed) {
  if (errored_) return Record(Status::Aborted("work request flushed"), 0);
  uint64_t rtt = 0;
  const Status status =
      qp_->PostCompareSwap(rkey, offset, expected, desired, observed, &rtt);
  return Record(status, rtt);
}

Status OrderedBatch::Execute(uint64_t extra_rtt_ns) {
  const uint64_t own_ns = wait_.ns();
  last_wait_ns_ = own_ns > extra_rtt_ns ? own_ns : extra_rtt_ns;
  if (last_wait_ns_ > 0) SpinForNanos(last_wait_ns_);
  return Collect();
}

Status OrderedBatch::Collect() {
  Status result = first_error_;
  first_error_ = Status::OK();
  statuses_.clear();
  wait_.Reset();
  errored_ = false;
  return result;
}

}  // namespace rdma
}  // namespace pandora
