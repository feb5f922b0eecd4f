#include "common/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>
#include <thread>

#include "common/clock.h"
#include "common/logging.h"

// Sanitizer fiber-switch annotations. Without them ASan sees a switched
// stack as a wild jump (false "stack-use-after-return"/overflow reports)
// and TSan sees impossible happens-before edges between fibers sharing one
// thread. GCC defines __SANITIZE_*__; clang exposes __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define PANDORA_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PANDORA_TSAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PANDORA_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define PANDORA_TSAN_FIBERS 1
#endif
#endif

#if defined(PANDORA_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(PANDORA_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__) || !defined(__linux__)
#error "common/fiber.cc: port pandora_fiber_switch and pandora_fiber_start to this target"
#endif

// The fiber switch, in the style of boost.context's fcontext for x86-64
// SysV. It pushes exactly what the ABI makes callee-saved (rbp, rbx,
// r12-r15, the MXCSR control/status word and the x87 control word), stores
// rsp to *save_sp, loads next_sp and pops the same set from it. Everything
// else is caller-saved, so the compiler has already spilled what it needs
// around the call. Fibers share the thread's signal mask, so a switch
// makes no syscall; nothing in the program changes the mask. The final
// ret lands wherever next_sp's context last called in from, or, for a
// fiber that has never run, in pandora_fiber_start. That ret does not
// match the call that entered, so user-space CET shadow stacks must stay
// off.
//
// pandora_fiber_start is the outermost frame of every fiber: its seeded
// stack carries the Fiber* in r12 and the entry function in r13. rbp is
// seeded 0 and the CFI marks the return address undefined, so
// frame-pointer walks and unwinders stop here.
extern "C" {
void pandora_fiber_switch(void** save_sp, void* next_sp);
void pandora_fiber_start();
}

asm(R"(
  .pushsection .text
  .p2align 4
  .globl pandora_fiber_switch
  .hidden pandora_fiber_switch
  .type pandora_fiber_switch, @function
pandora_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size pandora_fiber_switch, .-pandora_fiber_switch

  .p2align 4
  .globl pandora_fiber_start
  .hidden pandora_fiber_start
  .type pandora_fiber_start, @function
pandora_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size pandora_fiber_start, .-pandora_fiber_start
  .popsection
)");

namespace pandora {

namespace {

thread_local FiberScheduler* tl_active_scheduler = nullptr;

size_t PageSize() {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

// A fiber stack: a private anonymous mapping whose lowest page is
// PROT_NONE, so an overflow faults at once instead of silently writing
// over whatever lies below. Pages are demand-zero, so only the depth a
// fiber reaches becomes resident.
class GuardedStack {
 public:
  explicit GuardedStack(size_t bytes)
      : size_((bytes + PageSize() - 1) / PageSize() * PageSize()) {
    void* mapping = ::mmap(nullptr, size_ + PageSize(), PROT_NONE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    PANDORA_CHECK(mapping != MAP_FAILED);
    mapping_ = static_cast<char*>(mapping);
    PANDORA_CHECK(::mprotect(bottom(), size_, PROT_READ | PROT_WRITE) == 0);
  }

  ~GuardedStack() {
#if defined(PANDORA_ASAN_FIBERS)
    // Frames a fiber never returned from stay poisoned in ASan's shadow;
    // clear them before the range can be mapped again.
    ASAN_UNPOISON_MEMORY_REGION(bottom(), size_);
#endif
    ::munmap(mapping_, size_ + PageSize());
  }

  GuardedStack(const GuardedStack&) = delete;
  GuardedStack& operator=(const GuardedStack&) = delete;

  /// Lowest usable byte, just above the guard page.
  char* bottom() const { return mapping_ + PageSize(); }
  size_t size() const { return size_; }
  /// One past the highest usable byte; page-aligned.
  char* top() const { return bottom() + size_; }

 private:
  const size_t size_;
  char* mapping_ = nullptr;
};

// What pandora_fiber_switch pops, lowest address first.
struct SwitchFrame {
  uint32_t mxcsr;
  uint16_t x87_control;
  uint16_t padding[5];
  void* r15;
  void* r14;
  void* r13;
  void* r12;
  void* rbx;
  void* rbp;
  void (*return_address)();
};
static_assert(sizeof(SwitchFrame) == 72);

// Seeds a new fiber's stack so that the first switch into it pops the
// spawning thread's floating-point control state and returns into
// pandora_fiber_start, which calls entry(fiber). Returns the fiber's
// initial saved stack pointer.
void* SeedStack(char* top, void (*entry)(void*), void* fiber) {
  // After the final ret, rsp = top - 16: 16-byte aligned, as the call in
  // pandora_fiber_start requires.
  auto* frame = new (top - 16 - sizeof(SwitchFrame)) SwitchFrame{};
  asm volatile("stmxcsr %0\n\tfnstcw %1"
               : "=m"(frame->mxcsr), "=m"(frame->x87_control));
  frame->r13 = reinterpret_cast<void*>(entry);
  frame->r12 = fiber;
  frame->return_address = &pandora_fiber_start;
  return frame;
}

}  // namespace

struct FiberScheduler::Fiber {
  std::function<void()> body;
  FiberScheduler* scheduler = nullptr;
  std::unique_ptr<GuardedStack> stack;
  void* sp = nullptr;  // Saved stack pointer while not running.
  uint64_t ready_at_ns = 0;  // Runnable once NowNanos() >= this.
  uint64_t seq = 0;          // FIFO tie-break among equal deadlines.
  /// Wall instant the fiber last became runnable: max(deadline, yield
  /// time). Resume lag is measured from here, so a wait posted with an
  /// already-passed deadline is not charged for time before it yielded.
  /// 0 until the first suspension (first runs carry no lag).
  uint64_t runnable_from_ns = 0;
  bool done = false;
  void* fake_stack = nullptr;  // ASan fake-stack handle across suspension.
  void* tsan_fiber = nullptr;
};

FiberScheduler::FiberScheduler(size_t stack_bytes)
    : FiberScheduler(Options{stack_bytes, 0, 0}) {}

FiberScheduler::FiberScheduler(const Options& options) : options_(options) {}

FiberScheduler::~FiberScheduler() {
  PANDORA_CHECK(current_ == nullptr);
  for (auto& fiber : fibers_) {
    // Fibers must run to completion: destroying a suspended fiber would
    // leak whatever its stack owns.
    PANDORA_CHECK(fiber->done);
#if defined(PANDORA_TSAN_FIBERS)
    if (fiber->tsan_fiber != nullptr) __tsan_destroy_fiber(fiber->tsan_fiber);
#endif
  }
}

FiberScheduler* FiberScheduler::Active() { return tl_active_scheduler; }

void FiberScheduler::Trampoline(void* arg) {
  auto* fiber = static_cast<Fiber*>(arg);
  FiberScheduler* scheduler = fiber->scheduler;
  scheduler->FinishSwitchIntoFiber(fiber);
  fiber->body();
  fiber->done = true;
  scheduler->SwitchOut(fiber);
  PANDORA_CHECK(false);  // A done fiber is never resumed.
}

void FiberScheduler::Spawn(std::function<void()> body) {
  PANDORA_CHECK(current_ == nullptr);
  auto fiber = std::make_unique<Fiber>();
  fiber->body = std::move(body);
  fiber->scheduler = this;
  fiber->stack = std::make_unique<GuardedStack>(options_.stack_bytes);
  fiber->seq = ++next_seq_;
  fiber->sp = SeedStack(fiber->stack->top(), &Trampoline, fiber.get());
#if defined(PANDORA_TSAN_FIBERS)
  fiber->tsan_fiber = __tsan_create_fiber(0);
#endif
  PushReady(fiber.get());
  fibers_.push_back(std::move(fiber));
}

// Strict-weak "resumes later than" on (deadline, yield seq): the heap
// comparator that makes ready_ a min-heap dispatching earliest deadline
// first with FIFO tie-break — exactly the order the old O(n) linear scan
// produced, now in O(log n).
bool FiberScheduler::ResumesAfter(const Fiber* a, const Fiber* b) {
  return a->ready_at_ns > b->ready_at_ns ||
         (a->ready_at_ns == b->ready_at_ns && a->seq > b->seq);
}

FiberScheduler::Fiber* FiberScheduler::PickNext() {
  if (ready_.empty()) return nullptr;
  std::pop_heap(ready_.begin(), ready_.end(), &ResumesAfter);
  Fiber* next = ready_.back();
  ready_.pop_back();
  return next;
}

void FiberScheduler::PushReady(Fiber* fiber) {
  ready_.push_back(fiber);
  std::push_heap(ready_.begin(), ready_.end(), &ResumesAfter);
}

void FiberScheduler::MaybeYieldOsThread() {
  if (options_.os_yield_every_ns == 0) return;
  if (last_os_yield_ns_ == 0) {
    last_os_yield_ns_ = now_ns_;
    return;
  }
  if (now_ns_ - last_os_yield_ns_ < options_.os_yield_every_ns) return;
  std::this_thread::yield();
  stats_.os_yields++;
  now_ns_ = last_os_yield_ns_ = NowNanos();
}

void FiberScheduler::Run() {
  PANDORA_CHECK(tl_active_scheduler == nullptr);
  tl_active_scheduler = this;
#if defined(PANDORA_TSAN_FIBERS)
  main_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  now_ns_ = NowNanos();
  if (options_.logical_clock) SetThreadLogicalClock(&now_ns_);
  while (Fiber* next = PickNext()) {
    if (next->ready_at_ns > now_ns_) {
      // Not due by the reading the scheduler holds: look at the clock.
      now_ns_ = NowNanos();
      if (next->ready_at_ns > now_ns_) {
        // Nothing runnable: this is the only wall time a wait still
        // costs. A logical clock jumps to the deadline instead.
        if (!options_.logical_clock) {
          stats_.idle_ns += next->ready_at_ns - now_ns_;
          BlockUntilNanos(next->ready_at_ns);
        }
        now_ns_ = next->ready_at_ns;
      }
    }
    MaybeYieldOsThread();
    if (next->runnable_from_ns != 0) {
      stats_.resumes++;
      if (now_ns_ > next->runnable_from_ns) {
        const uint64_t lag = now_ns_ - next->runnable_from_ns;
        if (lag > stats_.max_resume_lag_ns) stats_.max_resume_lag_ns = lag;
        if (options_.lag_budget_ns != 0 && lag > options_.lag_budget_ns) {
          stats_.lag_budget_overruns++;
        }
      }
    }
    SwitchIn(next);
    if (next->done) {
      next->stack.reset();  // Stack is dead; free it early.
      // A finished fiber leaves no reading, and it may have run for long.
      now_ns_ = NowNanos();
    }
  }
  if (options_.logical_clock) SetThreadLogicalClock(nullptr);
  tl_active_scheduler = nullptr;
}

void FiberScheduler::WaitUntilNanos(uint64_t deadline_ns) {
  stats_.yields++;
  const uint64_t now = NowNanos();
  if (deadline_ns > now) stats_.wait_ns += deadline_ns - now;
  SuspendCurrent(deadline_ns, now);
  // The scheduler resumes a fiber only once its deadline has passed, so
  // NowNanos() >= deadline_ns here — the simulated wait fully elapsed.
}

void FiberScheduler::WaitForNanos(uint64_t delay_ns) {
  stats_.yields++;
  stats_.wait_ns += delay_ns;
  const uint64_t now = NowNanos();
  SuspendCurrent(now + delay_ns, now);
}

bool FiberScheduler::PaceAdmission() {
  Fiber* fiber = current_;
  PANDORA_CHECK(fiber != nullptr);
  if (options_.lag_budget_ns == 0 || ready_.empty()) return false;
  const uint64_t now = NowNanos();
  const Fiber* oldest = ready_.front();
  // First runs (runnable_from_ns == 0) and not-yet-due fibers carry no
  // lag; the scheduler is keeping up.
  if (oldest->runnable_from_ns == 0 || oldest->runnable_from_ns >= now) {
    return false;
  }
  if (now - oldest->runnable_from_ns <= options_.lag_budget_ns) return false;
  // The scheduler is behind on already-admitted work: donate this fiber's
  // slice to the backlog instead of starting another transaction. EDF
  // dispatches the overdue fibers first; this fiber re-enters the queue
  // behind a short quantum.
  stats_.paced_admissions++;
  const uint64_t quantum = std::max<uint64_t>(options_.lag_budget_ns / 2, 1000);
  SuspendCurrent(now + quantum, now);
  return true;
}

void FiberScheduler::SuspendCurrent(uint64_t deadline_ns, uint64_t now_ns) {
  Fiber* fiber = current_;
  PANDORA_CHECK(fiber != nullptr);
  fiber->ready_at_ns = deadline_ns;
  fiber->runnable_from_ns = std::max(deadline_ns, now_ns);
  now_ns_ = now_ns;
  fiber->seq = ++next_seq_;
  PushReady(fiber);
  SwitchOut(fiber);
}

void FiberScheduler::SwitchIn(Fiber* fiber) {
#if defined(PANDORA_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&main_fake_stack_, fiber->stack->bottom(),
                                 fiber->stack->size());
#endif
#if defined(PANDORA_TSAN_FIBERS)
  __tsan_switch_to_fiber(fiber->tsan_fiber, 0);
#endif
  current_ = fiber;
  pandora_fiber_switch(&main_sp_, fiber->sp);
  current_ = nullptr;
#if defined(PANDORA_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(main_fake_stack_, nullptr, nullptr);
#endif
}

void FiberScheduler::SwitchOut(Fiber* fiber) {
#if defined(PANDORA_ASAN_FIBERS)
  // A dying fiber hands ASan a null save slot so its fake stack is freed.
  __sanitizer_start_switch_fiber(fiber->done ? nullptr : &fiber->fake_stack,
                                 main_stack_bottom_, main_stack_size_);
#endif
#if defined(PANDORA_TSAN_FIBERS)
  __tsan_switch_to_fiber(main_tsan_fiber_, 0);
#endif
  pandora_fiber_switch(&fiber->sp, main_sp_);
  // Resumed by a later SwitchIn.
  FinishSwitchIntoFiber(fiber);
}

void FiberScheduler::FinishSwitchIntoFiber(Fiber* fiber) {
#if defined(PANDORA_ASAN_FIBERS)
  // On first entry fake_stack is null; bottom/size capture the scheduler
  // context's stack so SwitchOut can name it as the switch target.
  __sanitizer_finish_switch_fiber(fiber->fake_stack, &main_stack_bottom_,
                                  &main_stack_size_);
#else
  (void)fiber;
#endif
}

}  // namespace pandora
