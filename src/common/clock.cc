#include "common/clock.h"

#include <chrono>
#include <thread>

#include "common/fiber.h"

namespace pandora {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

// The logical time NowNanos() reads on this thread, or nullptr for the
// wall clock.
thread_local const uint64_t* tl_logical_now = nullptr;

// The scheduler whose fiber is running on this thread, else nullptr.
FiberScheduler* FiberInFlight() {
  FiberScheduler* scheduler = FiberScheduler::Active();
  return scheduler != nullptr && scheduler->InFiber() ? scheduler : nullptr;
}

}  // namespace

uint64_t NowNanos() {
  if (tl_logical_now != nullptr) [[unlikely]] return *tl_logical_now;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kEpoch)
          .count());
}

void SetThreadLogicalClock(const uint64_t* now_ns) {
  tl_logical_now = now_ns;
}

uint64_t NowMicros() { return NowNanos() / 1000; }

void SpinUntilNanos(uint64_t deadline_ns) {
  // Cooperative wait hook: inside a fiber, suspend it until the deadline
  // and let another in-flight transaction use the core. The scheduler
  // resumes the fiber no earlier than deadline_ns, so callers observe the
  // same elapsed wall time as the blocking spin below.
  if (FiberScheduler* scheduler = FiberInFlight()) {
    scheduler->WaitUntilNanos(deadline_ns);
    return;
  }
  // Spin for short waits; yield for longer ones. With only a couple of
  // physical cores, pure spinning across many coordinator threads would
  // serialize the whole simulation.
  constexpr uint64_t kSpinThresholdNs = 20'000;
  uint64_t now = NowNanos();
  while (now < deadline_ns) {
    if (deadline_ns - now > kSpinThresholdNs) {
      std::this_thread::yield();
    }
    now = NowNanos();
  }
}

void SpinForNanos(uint64_t delay_ns) {
  // A fiber's wait reads the clock once, inside the scheduler.
  if (FiberScheduler* scheduler = FiberInFlight()) {
    scheduler->WaitForNanos(delay_ns);
    return;
  }
  SpinUntilNanos(NowNanos() + delay_ns);
}

void SleepForMicros(uint64_t micros) {
  // Same cooperative hook as SpinForNanos: a sleeping fiber (stall
  // retry, gate wait, pacing) must not block its whole worker thread.
  if (FiberScheduler* scheduler = FiberInFlight()) {
    scheduler->WaitForNanos(micros * 1000);
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

}  // namespace pandora
