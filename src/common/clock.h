#ifndef PANDORA_COMMON_CLOCK_H_
#define PANDORA_COMMON_CLOCK_H_

#include <cstdint>

namespace pandora {

/// Monotonic wall-clock nanoseconds. All latency accounting in the simulated
/// fabric and the benchmarks uses this clock.
uint64_t NowNanos();

/// Monotonic microseconds, for coarse-grained reporting.
uint64_t NowMicros();

/// Waits until NowNanos() >= deadline_ns. Inside a fiber (see
/// common/fiber.h) the wait suspends the fiber so another in-flight
/// transaction can use the core; otherwise, for short waits (< ~50 us,
/// i.e. simulated RDMA round trips) this spins, and for longer waits it
/// yields to the OS scheduler so multiplexed logical coordinators don't
/// starve each other on a small core count. Either way the caller
/// observes at least the requested wall-time delay.
void SpinUntilNanos(uint64_t deadline_ns);

/// Waits for `delay_ns` nanoseconds from now. Inside a fiber this is
/// FiberScheduler::WaitForNanos, which reads the clock once.
void SpinForNanos(uint64_t delay_ns);

/// Sleeps for the given duration — an OS sleep on a plain thread, a fiber
/// suspension inside a fiber. For heartbeat loops, failure-detector
/// timers, and retry backoffs where burning a core would be wrong.
void SleepForMicros(uint64_t micros);

}  // namespace pandora

#endif  // PANDORA_COMMON_CLOCK_H_
