#ifndef PANDORA_COMMON_FIBER_H_
#define PANDORA_COMMON_FIBER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace pandora {

/// Cooperative stackful fibers: the concurrency substrate that lets one OS
/// worker thread overlap the simulated RDMA waits of many in-flight
/// transactions, the way the paper's testbed overlaps its 128 latency-bound
/// coordinators over a handful of cores.
///
/// A FiberScheduler owns N fibers on ONE thread. Fibers never migrate
/// between threads and never run concurrently — every switch is explicit —
/// so code running inside fibers needs no synchronization against its
/// sibling fibers (cross-thread synchronization rules are unchanged).
///
/// The simulated fabric's waits (SpinUntilNanos / SleepForMicros, and
/// through them QueuePair::Wait, DoorbellGroup::Execute, stall retries,
/// and the system gate) consult the thread's active scheduler: inside a
/// fiber they suspend it with a ready-at deadline instead of burning the
/// core, and the scheduler resumes the earliest-ready runnable fiber. A
/// fiber is never resumed before its deadline — the scheduler spins only
/// when *nothing* is runnable — so simulated-RTT accounting is identical
/// to the blocking implementation; only the real CPU time of the wait is
/// reclaimed for other fibers.
///
/// Clock rule: the scheduler dispatches on the latest clock reading it
/// holds, which is the suspending fiber's own (WaitForNanos reads the
/// clock once; PaceAdmission keeps its read). It calls NowNanos() itself
/// only when the earliest fiber is not yet due by that reading, or after a
/// fiber has finished (a finished fiber leaves no reading). A reading is
/// never later than the real time, so dispatching on it can never resume a
/// fiber early.
///
/// Tail fairness: the ready queue is a min-heap on (deadline, yield seq),
/// so dispatch is earliest-deadline-first in O(log n) regardless of fiber
/// count. EDF alone cannot starve an overdue fiber, but two second-order
/// effects can still blow up the tail: (1) the worker thread itself gets
/// descheduled for a whole OS quantum on an oversubscribed host, stalling
/// every in-flight fiber at once, and (2) fibers keep *admitting* new work
/// while the scheduler is already behind on work it has admitted. The
/// scheduler therefore (a) measures the resume lag of every dispatch
/// (wall time between a fiber becoming runnable and actually resuming),
/// (b) optionally yields the OS thread on a fixed CPU cadence so a
/// co-scheduled sibling worker is never blocked for a full OS quantum, and
/// (c) offers PaceAdmission(), which lets a fiber donate its slice to the
/// backlog instead of starting new work whenever the oldest runnable
/// fiber is overdue past a configurable lag budget.
///
/// Logical clock (Options::logical_clock): while such a scheduler's Run()
/// is active, NowNanos() on its thread returns the scheduler's logical
/// time, which moves only when no fiber is due: it then jumps to the
/// earliest deadline instead of idling. A fiber never observes time pass
/// while it runs, and fibers with equal deadlines dispatch FIFO, so a run
/// is a pure function of what its fibers do. The litmus harness runs
/// every slot of an iteration, and the migration racing them, as fibers
/// of one logical-clock scheduler on its own thread; a zero-time wait
/// (WaitForNanos(0)) is a turn handed to the next due fiber.
///
/// Threads that never install a scheduler (unit tests, recovery and
/// heartbeat threads) are untouched: the wait hook is inert without a
/// thread-local scheduler.
class FiberScheduler {
 public:
  struct Stats {
    /// Fiber suspensions through the wait hook.
    uint64_t yields = 0;
    /// Simulated wait nanoseconds suspended through the scheduler — the
    /// time the blocking implementation would have burned spinning.
    uint64_t wait_ns = 0;
    /// Wall nanoseconds the scheduler truly idled because no fiber was
    /// runnable yet.
    uint64_t idle_ns = 0;
    /// Fiber dispatches (resumes after a suspension; first runs excluded).
    uint64_t resumes = 0;
    /// Worst resume lag observed: wall nanoseconds between a fiber
    /// becoming runnable (its deadline passing) and the scheduler actually
    /// dispatching it. The starvation metric behind the fibers8 p99 gate.
    uint64_t max_resume_lag_ns = 0;
    /// Dispatches whose resume lag exceeded Options::lag_budget_ns.
    uint64_t lag_budget_overruns = 0;
    /// Times PaceAdmission() deferred new work because the oldest
    /// runnable fiber was overdue past the lag budget.
    uint64_t paced_admissions = 0;
    /// Cooperative OS-thread yields taken on the os_yield_every_ns cadence.
    uint64_t os_yields = 0;
  };

  static constexpr size_t kDefaultStackBytes = 256 * 1024;

  struct Options {
    /// Usable stack per fiber, rounded up to whole pages. A PROT_NONE
    /// guard page below it turns an overflow into a fault.
    size_t stack_bytes = kDefaultStackBytes;
    /// Resume lag past which PaceAdmission() defers new admissions (and
    /// past which a dispatch counts as a lag_budget_overrun). 0 disables
    /// pacing and overrun accounting; max_resume_lag_ns is always kept.
    uint64_t lag_budget_ns = 0;
    /// Yield the OS thread after at least this much scheduler CPU time,
    /// even when fibers are always runnable, so a sibling worker thread on
    /// an oversubscribed core is not stalled for a full OS quantum (the
    /// dominant fiber tail-latency term when threads > cores). 0 = never.
    uint64_t os_yield_every_ns = 0;
    /// Run on a logical clock (see the class comment) instead of the wall
    /// clock: no wait costs wall time, and idle_ns stays 0.
    bool logical_clock = false;
  };

  explicit FiberScheduler(size_t stack_bytes = kDefaultStackBytes);
  explicit FiberScheduler(const Options& options);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Registers a fiber; it starts running on the next Run(). Must be
  /// called from the thread that will call Run(), outside any fiber.
  void Spawn(std::function<void()> body);

  /// Runs every spawned fiber to completion, interleaving them at wait
  /// points. Installs this scheduler as the calling thread's active one
  /// for the duration. Not reentrant: nesting schedulers on one thread is
  /// a programming error.
  void Run();

  /// The calling thread's scheduler while inside Run(), else nullptr.
  static FiberScheduler* Active();

  /// True while a fiber body is executing (the wait hook fires only then).
  bool InFiber() const { return current_ != nullptr; }

  /// Suspends the current fiber until NowNanos() >= deadline_ns, running
  /// other fibers meanwhile. The wait hook's entry point; callable only
  /// from inside a fiber.
  void WaitUntilNanos(uint64_t deadline_ns);

  /// Suspends the current fiber for `delay_ns` from now, reading the clock
  /// once: the fiber resumes no earlier than that reading plus the delay,
  /// and wait_ns grows by exactly the delay. SpinForNanos and
  /// SleepForMicros enter here; callable only from inside a fiber.
  void WaitForNanos(uint64_t delay_ns);

  /// Admission pacing (bounded in-flight work): call from a fiber before
  /// starting a NEW unit of work. If the oldest runnable sibling is
  /// overdue past the lag budget, the calling fiber suspends for a short
  /// quantum — donating its slice to the backlog — and true is returned;
  /// the caller should re-check its own stop conditions before retrying.
  /// No-op (returns false) when no lag budget is configured or nothing is
  /// overdue. Unlike WaitUntilNanos, the pacing suspension is NOT counted
  /// as simulated wait (a blocking implementation has no analogue).
  bool PaceAdmission();

  const Stats& stats() const { return stats_; }
  size_t num_fibers() const { return fibers_.size(); }

 private:
  struct Fiber;

  /// First code a new fiber (passed as `arg`) runs, reached through the
  /// entry stub its seeded stack returns into. Never returns.
  static void Trampoline(void* arg);
  void SwitchIn(Fiber* fiber);         // Scheduler context -> fiber.
  void SwitchOut(Fiber* fiber);        // Fiber -> scheduler context.
  void FinishSwitchIntoFiber(Fiber* fiber);  // Sanitizer arrival hook.
  /// Pops the earliest-deadline fiber (FIFO tie-break) off the ready
  /// heap; nullptr when no fiber remains. O(log n).
  Fiber* PickNext();
  static bool ResumesAfter(const Fiber* a, const Fiber* b);
  /// Re-queues the current fiber with the given deadline and switches to
  /// the scheduler; now_ns is the caller's clock reading, which becomes
  /// the scheduler's. Wait/pacing accounting is done by the callers.
  void SuspendCurrent(uint64_t deadline_ns, uint64_t now_ns);
  void PushReady(Fiber* fiber);
  void MaybeYieldOsThread();

  Options options_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  /// Min-heap of runnable/suspended fibers on (ready_at_ns, seq).
  std::vector<Fiber*> ready_;
  Fiber* current_ = nullptr;
  /// The scheduler context's saved stack pointer while a fiber runs.
  void* main_sp_ = nullptr;
  uint64_t next_seq_ = 0;
  /// The latest clock reading the scheduler holds (see the clock rule);
  /// with a logical clock, the time itself.
  uint64_t now_ns_ = 0;
  uint64_t last_os_yield_ns_ = 0;
  Stats stats_;

  // Sanitizer bookkeeping for the scheduler (thread) context.
  void* main_fake_stack_ = nullptr;
  const void* main_stack_bottom_ = nullptr;
  size_t main_stack_size_ = 0;
  void* main_tsan_fiber_ = nullptr;
};

}  // namespace pandora

#endif  // PANDORA_COMMON_FIBER_H_
