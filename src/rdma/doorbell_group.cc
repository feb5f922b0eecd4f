#include "rdma/doorbell_group.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"

namespace pandora {
namespace rdma {

template <typename PostFn>
size_t DoorbellGroup::Post(QueuePair* qp, PostFn post) {
  if (rung_) Reset();
  const size_t verb = posted_++;
  if (std::find(failed_qps_.begin(), failed_qps_.end(), qp) !=
      failed_qps_.end()) {
    failures_.push_back(
        {verb, qp->dst(), Status::Aborted("work request flushed")});
    return verb;
  }
  uint64_t rtt = 0;
  Status status = post(&rtt);
  if (status.ok()) {
    wait_.Add(rtt, qp->net());
    return verb;
  }
  failed_qps_.push_back(qp);
  failures_.push_back({verb, qp->dst(), std::move(status)});
  return verb;
}

size_t DoorbellGroup::Read(QueuePair* qp, RKey rkey, uint64_t offset,
                           void* dst, size_t len) {
  return Post(qp, [&](uint64_t* rtt) {
    return qp->PostRead(rkey, offset, dst, len, rtt);
  });
}

size_t DoorbellGroup::Write(QueuePair* qp, RKey rkey, uint64_t offset,
                            const void* src, size_t len) {
  return Post(qp, [&](uint64_t* rtt) {
    return qp->PostWrite(rkey, offset, src, len, rtt);
  });
}

size_t DoorbellGroup::CompareSwap(QueuePair* qp, RKey rkey, uint64_t offset,
                                  uint64_t expected, uint64_t desired,
                                  uint64_t* observed) {
  return Post(qp, [&](uint64_t* rtt) {
    return qp->PostCompareSwap(rkey, offset, expected, desired, observed,
                               rtt);
  });
}

Status DoorbellGroup::Execute() {
  last_wait_ns_ = wait_.ns();
  if (last_wait_ns_ > 0) SpinForNanos(last_wait_ns_);
  wait_.Reset();
  // Ringing a rung group again completes nothing new.
  const bool failed = !rung_ && !failures_.empty();
  rung_ = true;
  return failed ? failures_.front().status : Status::OK();
}

void DoorbellGroup::Reset() {
  failed_qps_.clear();
  failures_.clear();
  wait_.Reset();
  posted_ = 0;
  rung_ = false;
}

const Status& DoorbellGroup::status(size_t index) const {
  static const Status kCompleted;
  for (const Failure& failure : failures_) {
    if (failure.verb == index) return failure.status;
  }
  return kCompleted;
}

}  // namespace rdma
}  // namespace pandora
