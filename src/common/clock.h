#ifndef PANDORA_COMMON_CLOCK_H_
#define PANDORA_COMMON_CLOCK_H_

#include <cstdint>

namespace pandora {

/// Monotonic wall-clock nanoseconds. All latency accounting in the simulated
/// fabric and the benchmarks uses this clock. On a thread running a
/// logical-clock FiberScheduler (common/fiber.h) it is that scheduler's
/// logical time instead.
uint64_t NowNanos();

/// Makes NowNanos() on the calling thread return *now_ns until called
/// again with nullptr. FiberScheduler::Run installs its logical time here.
void SetThreadLogicalClock(const uint64_t* now_ns);

/// Monotonic microseconds, for coarse-grained reporting.
uint64_t NowMicros();

/// Waits until NowNanos() >= deadline_ns. Inside a fiber (see
/// common/fiber.h) the wait suspends the fiber so another in-flight
/// transaction can use the core; otherwise it is BlockUntilNanos. Either
/// way the caller observes at least the requested wall-time delay.
void SpinUntilNanos(uint64_t deadline_ns);

/// Blocks the calling OS thread until NowNanos() >= deadline_ns, bypassing
/// the fiber wait hook: the one wait rule of common/, shared by
/// SpinUntilNanos outside a fiber and by an idle FiberScheduler. It spins
/// while at most 20 µs are left (a simulated round trip), yields the core
/// while at most 50 µs are left, and sleeps the OS thread through the rest
/// of a longer wait. It never returns before the deadline.
void BlockUntilNanos(uint64_t deadline_ns);

/// Waits for `delay_ns` nanoseconds from now. Inside a fiber this is
/// FiberScheduler::WaitForNanos, which reads the clock once.
void SpinForNanos(uint64_t delay_ns);

/// Sleeps for the given duration — an OS sleep on a plain thread, a fiber
/// suspension inside a fiber. For heartbeat loops, failure-detector
/// timers, and retry backoffs where burning a core would be wrong.
void SleepForMicros(uint64_t micros);

}  // namespace pandora

#endif  // PANDORA_COMMON_CLOCK_H_
