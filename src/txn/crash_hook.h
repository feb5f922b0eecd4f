#ifndef PANDORA_TXN_CRASH_HOOK_H_
#define PANDORA_TXN_CRASH_HOOK_H_

#include <functional>
#include <string>
#include <vector>

namespace pandora {
namespace txn {

/// Named points in the transaction protocols where a compute-server crash
/// can be injected. Each point sits between two RDMA verbs, so injecting a
/// crash there reproduces exactly the partial states a real process death
/// can leave in disaggregated memory (§3.1.1 "failure atomicity"). A
/// doorbell group visits its "Mid" point (Pandora's merged commit group:
/// kAfterLogWrite, kMidCommitApply, kMidUnlock) between every two verbs it
/// posts, so with the points before and after it every prefix of the group
/// is one (point, occurrence): the protocols the benches measure are the
/// protocols a crash schedule interrupts.
enum class CrashPoint {
  kBeforeLock,
  kAfterLock,          // lock taken, undo image not yet read
  kAfterLockFetch,     // lock taken and undo image read
  kBeforeLogWrite,
  kAfterLogWrite,      // logged but validation outcome unknown
  kAfterValidation,    // decision reached, nothing applied
  kBeforeCommitApply,
  kMidCommitApply,     // some replicas updated, some not
  kAfterCommitApply,   // all replicas updated, client not yet acked
  kAfterClientAck,     // acked, locks still held
  kBeforeUnlock,
  kMidUnlock,          // some locks released
  kAfterUnlock,
  kBeforeAbortTruncate,
  kAfterAbortTruncate,  // logs invalidated, locks still held
  kMidAbortUnlock,
  kAfterAbort,
  kBeforeDeferredLock,  // relaxed-locks bug: validation read done, the
                        // deferred lock CAS not yet posted
};

constexpr int kNumCrashPoints =
    static_cast<int>(CrashPoint::kBeforeDeferredLock) + 1;

/// Returns a stable human-readable name (for litmus reports and trace
/// serialization).
const char* CrashPointName(CrashPoint point);

/// Inverse of CrashPointName; returns false if `name` is unknown.
bool CrashPointFromName(const std::string& name, CrashPoint* out);

/// Fault-injection callback. Implementations (the litmus framework's crash
/// schedules) return true to kill the coordinator's compute server at this
/// point; the coordinator then halts its node and abandons the transaction
/// without any cleanup, exactly like a process crash.
class CrashHook {
 public:
  virtual ~CrashHook() = default;
  virtual bool MaybeCrash(CrashPoint point) = 0;
};

/// Schedule-aware crash hook used by the litmus schedule explorer. It
/// records every crash point a coordinator actually visits (per program
/// run), so the explorer can enumerate exactly the reachable schedules and
/// flag directives that never fired (injection no-ops). A crash is armed
/// at the Nth visit of one point in one run (deterministic schedule
/// exploration / replay).
///
/// The optional point observer runs at *every* visited point before the
/// crash decision; the litmus harness hands the lockstep turn to the next
/// slot's fiber there.
///
/// Not thread-safe: one hook per coordinator, driven from its fiber;
/// results are read after the fibers finish.
class ScheduleRecorderHook : public CrashHook {
 public:
  using PointObserver =
      std::function<void(CrashPoint point, int run, int occurrence)>;

  void set_point_observer(PointObserver observer) {
    observer_ = std::move(observer);
  }

  /// Marks the start of program run `run` (0-based, monotonic).
  void BeginRun(int run);

  /// Arms a precise crash: the `occurrence`-th (1-based) visit of `point`
  /// during run `run`.
  void ArmCrashAt(int run, CrashPoint point, int occurrence);

  bool MaybeCrash(CrashPoint point) override;

  bool armed() const { return armed_; }
  bool fired() const { return fired_; }
  CrashPoint fired_point() const { return fired_point_; }
  int fired_run() const { return fired_run_; }
  int fired_occurrence() const { return fired_occurrence_; }

  int runs_recorded() const { return static_cast<int>(visited_.size()); }
  /// Points visited during `run`, in visit order.
  const std::vector<CrashPoint>& visited(int run) const;
  /// Number of times `point` was visited during `run`.
  int VisitCount(int run, CrashPoint point) const;

 private:
  PointObserver observer_;
  std::vector<std::vector<CrashPoint>> visited_;
  int run_ = -1;

  bool armed_ = false;
  int arm_run_ = 0;
  CrashPoint arm_point_ = CrashPoint::kBeforeLock;
  int arm_occurrence_ = 1;

  bool fired_ = false;
  CrashPoint fired_point_ = CrashPoint::kBeforeLock;
  int fired_run_ = 0;
  int fired_occurrence_ = 0;
};

}  // namespace txn
}  // namespace pandora

#endif  // PANDORA_TXN_CRASH_HOOK_H_
