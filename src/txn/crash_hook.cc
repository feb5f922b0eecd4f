#include "txn/crash_hook.h"

#include <algorithm>

#include "rdma/verb_schedule.h"

namespace pandora {
namespace txn {

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kBeforeLock:
      return "BeforeLock";
    case CrashPoint::kAfterLock:
      return "AfterLock";
    case CrashPoint::kAfterLockFetch:
      return "AfterLockFetch";
    case CrashPoint::kBeforeLogWrite:
      return "BeforeLogWrite";
    case CrashPoint::kAfterLogWrite:
      return "AfterLogWrite";
    case CrashPoint::kAfterValidation:
      return "AfterValidation";
    case CrashPoint::kBeforeCommitApply:
      return "BeforeCommitApply";
    case CrashPoint::kMidCommitApply:
      return "MidCommitApply";
    case CrashPoint::kAfterCommitApply:
      return "AfterCommitApply";
    case CrashPoint::kAfterClientAck:
      return "AfterClientAck";
    case CrashPoint::kBeforeUnlock:
      return "BeforeUnlock";
    case CrashPoint::kMidUnlock:
      return "MidUnlock";
    case CrashPoint::kAfterUnlock:
      return "AfterUnlock";
    case CrashPoint::kBeforeAbortTruncate:
      return "BeforeAbortTruncate";
    case CrashPoint::kAfterAbortTruncate:
      return "AfterAbortTruncate";
    case CrashPoint::kMidAbortUnlock:
      return "MidAbortUnlock";
    case CrashPoint::kAfterAbort:
      return "AfterAbort";
    case CrashPoint::kBeforeDeferredLock:
      return "BeforeDeferredLock";
  }
  return "Unknown";
}

bool CrashPointFromName(const std::string& name, CrashPoint* out) {
  for (int p = 0; p < kNumCrashPoints; ++p) {
    const CrashPoint point = static_cast<CrashPoint>(p);
    if (name == CrashPointName(point)) {
      *out = point;
      return true;
    }
  }
  return false;
}

void ScheduleRecorderHook::BeginRun(int run) {
  run_ = run;
  if (static_cast<size_t>(run) >= visited_.size()) {
    visited_.resize(static_cast<size_t>(run) + 1);
  }
  // A fresh program run starts outside any protocol phase.
  rdma::SetVerbPhase(-1);
}

void ScheduleRecorderHook::ArmCrashAt(int run, CrashPoint point,
                                      int occurrence) {
  armed_ = true;
  arm_run_ = run;
  arm_point_ = point;
  arm_occurrence_ = occurrence;
}

bool ScheduleRecorderHook::MaybeCrash(CrashPoint point) {
  if (run_ < 0) BeginRun(0);
  auto& trace = visited_[static_cast<size_t>(run_)];
  trace.push_back(point);
  const int occurrence = static_cast<int>(
      std::count(trace.begin(), trace.end(), point));
  if (observer_) observer_(point, run_, occurrence);
  // Tag the issuing thread: every verb until the next crash point carries
  // this phase in its VerbDesc (verb-level schedule hooks key off it). Set
  // after the observer, which may have run other fibers on this thread.
  rdma::SetVerbPhase(static_cast<int>(point));
  if (fired_) return false;

  const bool fire = armed_ && run_ == arm_run_ && point == arm_point_ &&
                    occurrence == arm_occurrence_;
  if (fire) {
    fired_ = true;
    fired_point_ = point;
    fired_run_ = run_;
    fired_occurrence_ = occurrence;
  }
  return fire;
}

const std::vector<CrashPoint>& ScheduleRecorderHook::visited(int run) const {
  static const std::vector<CrashPoint> kEmpty;
  if (run < 0 || static_cast<size_t>(run) >= visited_.size()) return kEmpty;
  return visited_[static_cast<size_t>(run)];
}

}  // namespace txn
}  // namespace pandora
