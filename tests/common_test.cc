#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cfenv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/atomic_copy.h"
#include "common/checksum.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/fiber.h"
#include "common/fixed_bitset.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace pandora {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::PermissionDenied().IsPermissionDenied());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::ResourceExhausted().IsResourceExhausted());
  EXPECT_TRUE(Status::Internal().IsInternal());
  EXPECT_FALSE(Status::NotFound().ok());
}

TEST(StatusTest, MessageIncludedInToString) {
  Status s = Status::Aborted("validation failed");
  EXPECT_EQ(s.ToString(), "Aborted: validation failed");
}

// Only string literals name a message: a runtime string does not compile.
static_assert(std::is_convertible_v<const char (&)[4], Status::Literal>);
static_assert(!std::is_convertible_v<const char*, Status::Literal>);
static_assert(!std::is_convertible_v<std::string, Status::Literal>);
static_assert(!std::is_convertible_v<std::string_view, Status::Literal>);

TEST(StatusTest, MessageSurvivesCopyAndPassThrough) {
  const Status original = Status::Busy("object locked by live transaction");
  Status copy = original;
  EXPECT_TRUE(copy.IsBusy());
  EXPECT_STREQ(copy.message(), "object locked by live transaction");
  copy = Status::OK();
  EXPECT_STREQ(copy.message(), "");
  EXPECT_STREQ(original.message(), "object locked by live transaction");

  // The coordinator's pass-throughs re-code a cause as an abort and keep
  // its message: AbortIfLogFull a full log area, Validate a failed check.
  const Status log_full = Status::Aborted(
      Status::ResourceExhausted("write-set exceeds the coordinator's log area"));
  EXPECT_TRUE(log_full.IsAborted());
  EXPECT_EQ(log_full.ToString(),
            "Aborted: write-set exceeds the coordinator's log area");
  const Status validation =
      Status::Aborted(Status::Aborted("read-set version changed"));
  EXPECT_EQ(validation.ToString(), "Aborted: read-set version changed");

  // ToString keeps its text: no message, no colon.
  EXPECT_EQ(Status::NotFound().ToString(), "NotFound");
  EXPECT_EQ(Status::Aborted(Status::OK()).ToString(), "Aborted");
  EXPECT_EQ(Status::Unavailable("compute node halted").ToString(),
            "Unavailable: compute node halted");
}

Status FailsEarly(bool fail) {
  PANDORA_RETURN_NOT_OK(fail ? Status::Busy("locked") : Status::OK());
  return Status::NotFound("reached end");
}

TEST(StatusTest, ReturnNotOkMacro) {
  EXPECT_TRUE(FailsEarly(true).IsBusy());
  EXPECT_TRUE(FailsEarly(false).IsNotFound());
}

// ---------------------------------------------------------------- Result --

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = ParsePositive(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);

  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(bad.value_or(42), 42);
}

Status UseAssignOrReturn(int in, int* out) {
  PANDORA_ASSIGN_OR_RETURN(*out, ParsePositive(in));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseAssignOrReturn(-5, &out).IsInvalidArgument());
}

// ----------------------------------------------------------------- Slice --

TEST(SliceTest, BasicAndEquality) {
  std::string s = "hello";
  Slice a(s);
  Slice b("hello", 5);
  Slice c("hellx", 5);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_EQ(a[1], 'e');
  EXPECT_TRUE(Slice().empty());
}

// ---------------------------------------------------------------- Random --

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123), c(124);
  bool all_equal_c = true;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) all_equal_c = false;
  }
  EXPECT_FALSE(all_equal_c);
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = r.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, PercentTrueIsRoughlyCalibrated) {
  Random r(99);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.PercentTrue(30) ? 1 : 0;
  EXPECT_NEAR(hits, 30000, 1500);
}

TEST(ZipfTest, InRangeAndSkewed) {
  ZipfGenerator zipf(1000, 0.99, 42);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank 0 must be much hotter than the tail under theta=0.99.
  EXPECT_GT(counts[0], counts[500] * 10);
  EXPECT_GT(counts[0], 1000);
}

TEST(ZipfTest, LowThetaIsCloserToUniform) {
  ZipfGenerator zipf(100, 0.1, 42);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.Next()]++;
  // Hottest key should be well below 10% of accesses.
  int max_count = 0;
  for (int c : counts) max_count = std::max(max_count, c);
  EXPECT_LT(max_count, 10000);
}

// ---------------------------------------------------------------- Bitset --

TEST(FixedBitsetTest, SetTestClear) {
  FailedIdBitset bits;
  EXPECT_FALSE(bits.Test(0));
  EXPECT_FALSE(bits.Test(65535));
  bits.Set(0);
  bits.Set(65535);
  bits.Set(1234);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(65535));
  EXPECT_TRUE(bits.Test(1234));
  EXPECT_FALSE(bits.Test(1233));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Clear(1234);
  EXPECT_FALSE(bits.Test(1234));
  EXPECT_EQ(bits.Count(), 2u);
  bits.Reset();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(FixedBitsetTest, CopyFrom) {
  FailedIdBitset a, b;
  a.Set(7);
  a.Set(700);
  b.CopyFrom(a);
  EXPECT_TRUE(b.Test(7));
  EXPECT_TRUE(b.Test(700));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(PlainFixedBitsetTest, SetTestClearCount) {
  FixedBitset<4096> bits;
  EXPECT_FALSE(bits.Test(0));
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(4095);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(4095));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 4u);
  bits.Clear(63);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Reset();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(PlainFixedBitsetTest, ForEachSetVisitsAscending) {
  FixedBitset<4096> bits;
  const std::vector<size_t> expected = {0, 2, 63, 64, 65, 1000, 4095};
  // Insert out of order; iteration must still come out ascending.
  bits.Set(4095);
  bits.Set(64);
  bits.Set(0);
  bits.Set(1000);
  bits.Set(65);
  bits.Set(2);
  bits.Set(63);
  std::vector<size_t> visited;
  bits.ForEachSet([&](size_t bit) { visited.push_back(bit); });
  EXPECT_EQ(visited, expected);
}

TEST(FixedBitsetTest, ConcurrentSetsAreAllVisible) {
  FailedIdBitset bits;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bits, t] {
      for (int i = 0; i < kPerThread; ++i) bits.Set(t * kPerThread + i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bits.Count(), static_cast<size_t>(kThreads * kPerThread));
}

// ---------------------------------------------------------------- Coding --

TEST(CodingTest, Fixed64RoundTrip) {
  char buf[8];
  EncodeFixed64(buf, 0xdeadbeefcafebabeULL);
  EXPECT_EQ(DecodeFixed64(buf), 0xdeadbeefcafebabeULL);
}

TEST(CodingTest, AlignUp) {
  EXPECT_EQ(AlignUp(0, 8), 0u);
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignUp(9, 8), 16u);
  EXPECT_EQ(AlignUp(100, 64), 128u);
}

// -------------------------------------------------------------- Checksum --

TEST(ChecksumTest, Fnv1aDiffersOnDifferentInput) {
  const char a[] = "transaction log record";
  const char b[] = "transaction log recorD";
  EXPECT_NE(Fnv1a64(a, sizeof(a)), Fnv1a64(b, sizeof(b)));
  EXPECT_EQ(Fnv1a64(a, sizeof(a)), Fnv1a64(a, sizeof(a)));
}

TEST(ChecksumTest, HashKeySpreadsConsecutiveKeys) {
  std::set<uint64_t> buckets;
  for (uint64_t k = 0; k < 1000; ++k) buckets.insert(HashKey(k) % 64);
  // Consecutive keys must not all land in a few buckets.
  EXPECT_GT(buckets.size(), 32u);
}

// ------------------------------------------------------------ AtomicCopy --

TEST(AtomicCopyTest, RoundTrip) {
  alignas(8) char region[64];
  std::memset(region, 0, sizeof(region));
  alignas(8) char src[32];
  for (int i = 0; i < 32; ++i) src[i] = static_cast<char>(i * 3);
  AtomicCopyToRegion(region + 8, src, 32);
  alignas(8) char dst[32];
  AtomicCopyFromRegion(dst, region + 8, 32);
  EXPECT_EQ(std::memcmp(src, dst, 32), 0);
}

TEST(AtomicCopyTest, Cas64) {
  alignas(8) uint64_t word = 10;
  uint64_t observed = 0;
  EXPECT_FALSE(AtomicCas64(&word, 11, 20, &observed));
  EXPECT_EQ(observed, 10u);
  EXPECT_EQ(word, 10u);
  EXPECT_TRUE(AtomicCas64(&word, 10, 20, &observed));
  EXPECT_EQ(observed, 10u);
  EXPECT_EQ(word, 20u);
}

TEST(AtomicCopyTest, FetchAdd64) {
  alignas(8) uint64_t word = 5;
  EXPECT_EQ(AtomicFetchAdd64(&word, 3), 5u);
  EXPECT_EQ(word, 8u);
}


// ------------------------------------------------------------- Histogram --

TEST(HistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.PercentileNanos(50), 0u);
  EXPECT_EQ(h.MeanNanos(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  LatencyHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.MaxNanos(), 1000u);
  // Log buckets: the percentile is within one sub-bucket (<= 25% error).
  EXPECT_GE(h.PercentileNanos(50), 768u);
  EXPECT_LE(h.PercentileNanos(50), 1024u);
}

TEST(HistogramTest, PercentilesOrdered) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  const uint64_t p10 = h.PercentileNanos(10);
  const uint64_t p50 = h.PercentileNanos(50);
  const uint64_t p99 = h.PercentileNanos(99);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
  // p50 of uniform 1..10000 is ~5000; log-bucket error <= 25%.
  EXPECT_GE(p50, 3500u);
  EXPECT_LE(p50, 6500u);
  EXPECT_GE(p99, 7000u);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.MeanNanos(), 5000.5, 1.0);
}

TEST(HistogramTest, MergeCombines) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(100);
  for (int i = 0; i < 100; ++i) b.Record(1'000'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_LT(a.PercentileNanos(25), 200u);
  EXPECT_GT(a.PercentileNanos(75), 500'000u);
  EXPECT_EQ(a.MaxNanos(), 1'000'000u);
}

TEST(HistogramTest, HugeValuesDoNotOverflowBuckets) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(~0ULL);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.MaxNanos(), ~0ULL);
}

TEST(HistogramTest, TailResolutionBoundsRelativeError) {
  // 16 sub-buckets per octave + intra-bucket interpolation: a percentile
  // of a single repeated value lands within one sub-bucket width of the
  // true value — 1/16 ≈ 6.25% relative error, at every magnitude. This
  // pins the resolution the fibers8 p99/p50 gate depends on (25%-wide
  // buckets made a passing 3.4x ratio indistinguishable from a failing
  // 4.2x one).
  const uint64_t values[] = {37,         1'000,        13'579,
                             3'670'016,  87'654'321,   1'234'567'890};
  for (const uint64_t value : values) {
    LatencyHistogram h;
    for (int i = 0; i < 100; ++i) h.Record(value);
    for (const double pct : {50.0, 99.0}) {
      const double estimate =
          static_cast<double>(h.PercentileNanos(pct));
      const double err =
          std::abs(estimate - static_cast<double>(value)) /
          static_cast<double>(value);
      EXPECT_LE(err, 0.0700) << "value=" << value << " pct=" << pct;
    }
  }
  // Values below one sub-bucket row are represented exactly.
  LatencyHistogram small;
  for (int i = 0; i < 10; ++i) small.Record(7);
  EXPECT_EQ(small.PercentileNanos(50), 7u);
}

// ----------------------------------------------------------------- Clock --

TEST(ClockTest, MonotonicAndSpin) {
  const uint64_t t0 = NowNanos();
  SpinForNanos(100000);  // 100 us
  const uint64_t t1 = NowNanos();
  EXPECT_GE(t1 - t0, 100000u);
  EXPECT_GE(NowMicros(), t0 / 1000);
}

// ---------------------------------------------------------------- Fibers --

TEST(FiberTest, RunsAllFibersToCompletion) {
  FiberScheduler scheduler;
  int ran = 0;
  for (int i = 0; i < 8; ++i) {
    scheduler.Spawn([&ran] { ++ran; });
  }
  EXPECT_EQ(scheduler.num_fibers(), 8u);
  scheduler.Run();
  EXPECT_EQ(ran, 8);
  EXPECT_EQ(FiberScheduler::Active(), nullptr);
}

TEST(FiberTest, ActiveOnlyDuringRunAndOnlyOnThisThread) {
  FiberScheduler scheduler;
  FiberScheduler* seen_inside = nullptr;
  FiberScheduler* seen_on_other_thread = &scheduler;  // Sentinel.
  scheduler.Spawn([&] {
    seen_inside = FiberScheduler::Active();
    std::thread other(
        [&] { seen_on_other_thread = FiberScheduler::Active(); });
    other.join();
  });
  EXPECT_EQ(FiberScheduler::Active(), nullptr);
  scheduler.Run();
  EXPECT_EQ(seen_inside, &scheduler);
  // The scheduler is thread-local: other threads (recovery threads)
  // never see it, so the wait hook is inert there.
  EXPECT_EQ(seen_on_other_thread, nullptr);
  EXPECT_EQ(FiberScheduler::Active(), nullptr);
}

TEST(FiberTest, ResumesInDeadlineOrderNotSpawnOrder) {
  FiberScheduler scheduler;
  const uint64_t base = NowNanos();
  std::vector<int> order;
  scheduler.Spawn([&] {
    scheduler.WaitUntilNanos(base + 3'000'000);
    order.push_back(3);
  });
  scheduler.Spawn([&] {
    scheduler.WaitUntilNanos(base + 1'000'000);
    order.push_back(1);
  });
  scheduler.Spawn([&] {
    scheduler.WaitUntilNanos(base + 2'000'000);
    order.push_back(2);
  });
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.stats().yields, 3u);
}

TEST(FiberTest, EqualDeadlinesResumeFifo) {
  FiberScheduler scheduler;
  const uint64_t deadline = NowNanos();  // Already due: pure tie-break.
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    scheduler.Spawn([&, i] {
      scheduler.WaitUntilNanos(deadline);
      order.push_back(i);
    });
  }
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FiberTest, WaitNeverResumesBeforeDeadline) {
  FiberScheduler scheduler;
  bool checked = false;
  scheduler.Spawn([&] {
    const uint64_t deadline = NowNanos() + 500'000;  // 500 us.
    SpinUntilNanos(deadline);  // Routed through the wait hook.
    EXPECT_GE(NowNanos(), deadline);
    checked = true;
  });
  scheduler.Run();
  EXPECT_TRUE(checked);
  // A single fiber has nothing to overlap with: the scheduler idled the
  // full wait and counted it.
  EXPECT_GE(scheduler.stats().idle_ns, 400'000u);
  EXPECT_GE(scheduler.stats().wait_ns, 400'000u);
}

TEST(FiberTest, SpinAndSleepHooksSuspendInsteadOfBlocking) {
  // Two fibers wait 1 ms each through the public clock entry points; with
  // overlap the pair completes in well under the 2 ms a blocking
  // implementation needs. Generous ceiling for sanitizer/CI jitter.
  FiberScheduler scheduler;
  scheduler.Spawn([] { SpinForNanos(1'000'000); });
  scheduler.Spawn([] { SleepForMicros(1000); });
  const uint64_t start = NowNanos();
  scheduler.Run();
  const uint64_t elapsed = NowNanos() - start;
  EXPECT_GE(elapsed, 1'000'000u);
  EXPECT_LT(elapsed, 1'900'000u);
  EXPECT_EQ(scheduler.stats().yields, 2u);
  // Both 1 ms waits were paid for by ~1 ms of true idling: overlap ~2x.
  EXPECT_GT(scheduler.stats().wait_ns,
            scheduler.stats().idle_ns + 500'000u);
}

TEST(FiberTest, NoRunnableFiberFallsBackToIdleSpin) {
  // One fiber far in the future, one ready now: the scheduler must run
  // the ready one first, then idle-spin until the far deadline rather
  // than busy-resume anyone early.
  FiberScheduler scheduler;
  uint64_t far_resumed_at = 0;
  uint64_t far_deadline = 0;
  scheduler.Spawn([&] {
    far_deadline = NowNanos() + 2'000'000;
    scheduler.WaitUntilNanos(far_deadline);
    far_resumed_at = NowNanos();
  });
  bool near_ran = false;
  scheduler.Spawn([&] { near_ran = true; });
  scheduler.Run();
  EXPECT_TRUE(near_ran);
  EXPECT_GE(far_resumed_at, far_deadline);
  EXPECT_GT(scheduler.stats().idle_ns, 0u);
}

// Keeps eight seed-derived values live across a call `depth` frames deep
// that suspends the fiber (when `scheduler` is set), then folds each one
// into the result in turn. That needs more values than there are
// callee-saved registers, so a switch that loses any of them changes the
// result; with a null scheduler the same call yields the expected value.
[[gnu::noinline]] uint64_t MixAcrossSuspension(FiberScheduler* scheduler,
                                               uint64_t seed, int depth) {
  const uint64_t a = seed * 3 + 1;
  const uint64_t b = seed ^ 0x9e3779b97f4a7c15ull;
  const uint64_t c = seed + 11;
  const uint64_t d = seed * seed + 5;
  const uint64_t e = seed >> 1;
  const uint64_t g = ~seed;
  const uint64_t h = seed * 7 + 13;
  const uint64_t k = seed << 3;
  uint64_t r = 0;
  if (depth > 0) {
    r = MixAcrossSuspension(scheduler, seed + 1, depth - 1);
  } else if (scheduler != nullptr) {
    scheduler->WaitUntilNanos(0);  // Immediately ready: pure yield.
  }
  r = r * a + b;
  r = (r ^ c) * d;
  r = (r + e) ^ g;
  return r * h + k;
}

TEST(FiberTest, ManySwitchesAreStable) {
  // Ping-pong two fibers through thousands of switches to shake out
  // stack/context corruption (and give the sanitizer annotations a real
  // workout under ASan/TSan CI). Each switch happens four frames deep,
  // with different live values on each fiber.
  FiberScheduler scheduler;
  uint64_t counter = 0;
  int mismatches = 0;
  for (uint64_t f = 0; f < 2; ++f) {
    scheduler.Spawn([&, f] {
      for (uint64_t i = 0; i < 2000; ++i) {
        ++counter;
        const uint64_t seed = f * 1'000'003 + i;
        if (MixAcrossSuspension(&scheduler, seed, 3) !=
            MixAcrossSuspension(nullptr, seed, 3)) {
          ++mismatches;
        }
      }
    });
  }
  scheduler.Run();
  EXPECT_EQ(counter, 4000u);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(scheduler.stats().yields, 4000u);
}

// 1/3 under the thread's current SSE rounding mode; volatile operands keep
// the division from being folded at compile time.
double OneThird() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(FiberTest, FloatingPointControlStaysWithItsFiber) {
  // The SysV ABI makes the x87 control word and MXCSR's control bits
  // callee-saved, so each fiber keeps its own rounding mode across
  // switches: fegetround reads the x87 word, OneThird uses MXCSR.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = OneThird();
  FiberScheduler scheduler;
  int sibling_mode = -1;
  double sibling_third = 0;
  int resumed_mode = -1;
  double resumed_third = 0;
  scheduler.Spawn([&] {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    scheduler.WaitUntilNanos(0);  // The sibling runs before this resumes.
    resumed_mode = std::fegetround();
    resumed_third = OneThird();
  });
  scheduler.Spawn([&] {
    sibling_mode = std::fegetround();
    sibling_third = OneThird();
  });
  scheduler.Run();
  EXPECT_EQ(sibling_mode, FE_TONEAREST);
  EXPECT_EQ(sibling_third, nearest);
  EXPECT_EQ(resumed_mode, FE_UPWARD);
  EXPECT_GT(resumed_third, nearest);
  // The first fiber finished in FE_UPWARD; the scheduler's own context
  // kept its mode.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(OneThird(), nearest);
}

// Stack overflow: the fiber recurses until its stack runs out. Frames are
// smaller than a page and each touches its own bytes, so the first access
// past the stack's low end is a permission fault (SEGV_ACCERR) on the
// guard page. The handler runs on an alternate stack and exits with
// kGuardPageHit only for such a fault within a page of where the stack
// must end; any other fault exits with kOtherFault.
constexpr size_t kOverflowStackBytes = 64 * 1024;
constexpr int kGuardPageHit = 3;
constexpr int kOtherFault = 4;
uintptr_t g_overflow_stack_end = 0;  // Expected lowest stack address.

void OnOverflowFault(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<uintptr_t>(info->si_addr);
  const auto page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const bool at_end =
      addr + page >= g_overflow_stack_end && addr < g_overflow_stack_end + page;
  if (info->si_code == SEGV_ACCERR && at_end) {
    constexpr char kMsg[] = "stack overflow hit the guard page\n";
    [[maybe_unused]] const ssize_t n = ::write(2, kMsg, sizeof(kMsg) - 1);
    ::_exit(kGuardPageHit);
  }
  ::_exit(kOtherFault);
}

[[gnu::noinline]] uint64_t RecurseUntilOverflow(uint64_t depth,
                                                uint64_t limit) {
  volatile char frame[512];
  frame[depth % sizeof(frame)] = static_cast<char>(depth);
  if (depth == limit) return 0;
  return RecurseUntilOverflow(depth + 1, limit) + frame[0];
}

void OverflowFiberStack() {
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof(alt_stack);
  PANDORA_CHECK(::sigaltstack(&ss, nullptr) == 0);
  struct sigaction action {};
  action.sa_sigaction = &OnOverflowFault;
  action.sa_flags = SA_SIGINFO | SA_ONSTACK;
  PANDORA_CHECK(::sigaction(SIGSEGV, &action, nullptr) == 0);

  FiberScheduler::Options options;
  options.stack_bytes = kOverflowStackBytes;
  FiberScheduler scheduler(options);
  scheduler.Spawn([] {
    // The fiber starts within a page of its stack's page-aligned top.
    char probe = 0;
    const auto page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
    const uintptr_t top =
        (reinterpret_cast<uintptr_t>(&probe) + page - 1) / page * page;
    g_overflow_stack_end = top - kOverflowStackBytes;
    RecurseUntilOverflow(0, std::numeric_limits<uint64_t>::max());
  });
  scheduler.Run();
}

TEST(FiberTest, StackOverflowHitsGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(OverflowFiberStack(), testing::ExitedWithCode(kGuardPageHit),
              "stack overflow hit the guard page");
}

TEST(FiberTest, HookInertOutsideFibers) {
  // SpinUntilNanos on a plain thread (no scheduler installed) must behave
  // exactly as before fibers existed.
  const uint64_t t0 = NowNanos();
  SpinForNanos(200'000);
  EXPECT_GE(NowNanos() - t0, 200'000u);
}

TEST(FiberTest, HeapOrderMatchesStableDeadlineSort) {
  // The min-heap PickNext must be observably identical to the old linear
  // EDF scan for non-starved schedules: resume order is a stable sort by
  // (deadline, suspension order). 16 fibers across 4 duplicated deadlines
  // exercise both the ordering and the FIFO tie-break at heap scale.
  FiberScheduler scheduler;
  const uint64_t base = NowNanos() + 500'000;
  std::vector<int> order;
  constexpr int kFibers = 16;
  for (int i = 0; i < kFibers; ++i) {
    scheduler.Spawn([&, i] {
      scheduler.WaitUntilNanos(base +
                               static_cast<uint64_t>(i % 4) * 400'000);
      order.push_back(i);
    });
  }
  scheduler.Run();
  std::vector<int> expected;
  for (int d = 0; d < 4; ++d) {
    for (int i = 0; i < kFibers; ++i) {
      if (i % 4 == d) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(FiberTest, RecordsResumeLagAndBudgetOverruns) {
  // A runnable fiber held off the CPU by a hog shows up in the scheduler's
  // starvation stats: max_resume_lag_ns reflects the delay and the lag
  // budget overrun is counted.
  FiberScheduler::Options options;
  options.lag_budget_ns = 1'000;  // 1 us: the 500 us hog must overrun it.
  FiberScheduler scheduler(options);
  scheduler.Spawn([&] {
    scheduler.WaitUntilNanos(NowNanos());  // Immediately runnable again.
  });
  scheduler.Spawn([&] {
    // Hog the thread with a raw busy loop (not the clock hooks, which
    // would suspend this fiber and defeat the starvation).
    const uint64_t until = NowNanos() + 500'000;
    while (NowNanos() < until) {
    }
  });
  scheduler.Run();
  EXPECT_GE(scheduler.stats().resumes, 1u);
  EXPECT_GE(scheduler.stats().max_resume_lag_ns, 300'000u);
  EXPECT_GE(scheduler.stats().lag_budget_overruns, 1u);
}

TEST(FiberTest, ResumeLagCountsAHogThatSuspends) {
  // The scheduler dispatches on the suspending fiber's own clock reading.
  // A hog that ends by suspending rather than by finishing must still
  // charge the sibling it held off the CPU.
  FiberScheduler::Options options;
  options.lag_budget_ns = 1'000;
  FiberScheduler scheduler(options);
  scheduler.Spawn([&] {
    scheduler.WaitUntilNanos(NowNanos());  // Immediately runnable again.
  });
  // Finishes at once, so the scheduler reads the clock when the sibling
  // above is already due: from then on only the hog's reading can show
  // how long the sibling waited.
  scheduler.Spawn([] {});
  scheduler.Spawn([&] {
    const uint64_t until = NowNanos() + 500'000;
    while (NowNanos() < until) {
    }
    SpinForNanos(100'000);  // Suspends, handing over its reading.
  });
  scheduler.Run();
  EXPECT_GE(scheduler.stats().max_resume_lag_ns, 300'000u);
  EXPECT_GE(scheduler.stats().lag_budget_overruns, 1u);
}

TEST(FiberTest, WaitForNanosNeverResumesEarly) {
  // Three fibers with interleaved deadlines: the scheduler mostly
  // dispatches on a sibling's reading, yet no fiber may resume before the
  // reading it suspended with plus its delay, and wait_ns is exactly the
  // sum of the delays.
  FiberScheduler scheduler;
  constexpr int kFibers = 3;
  constexpr int kWaits = 20;
  int early = 0;
  uint64_t delays = 0;
  for (int f = 0; f < kFibers; ++f) {
    scheduler.Spawn([&, f] {
      for (int i = 0; i < kWaits; ++i) {
        const uint64_t delay = static_cast<uint64_t>(f + 1) * 20'000 +
                               static_cast<uint64_t>(i) * 1'000;
        delays += delay;
        const uint64_t before = NowNanos();
        scheduler.WaitForNanos(delay);
        if (NowNanos() < before + delay) ++early;
      }
    });
  }
  scheduler.Run();
  EXPECT_EQ(early, 0);
  EXPECT_EQ(scheduler.stats().wait_ns, delays);
  EXPECT_EQ(scheduler.stats().yields,
            static_cast<uint64_t>(kFibers) * kWaits);

  // One fiber alone: wait_ns grows by exactly each delay.
  FiberScheduler single;
  uint64_t grew = 0;
  single.Spawn([&] {
    const uint64_t wait_before = single.stats().wait_ns;
    single.WaitForNanos(12'345);
    grew = single.stats().wait_ns - wait_before;
  });
  single.Run();
  EXPECT_EQ(grew, 12'345u);
}

TEST(FiberTest, PaceAdmissionDefersWhenOverdueWorkWaits) {
  // PaceAdmission suspends the calling fiber (yielding to the overdue one)
  // when the oldest runnable fiber has waited past the lag budget, and is
  // a cheap no when nothing is overdue.
  FiberScheduler::Options options;
  options.lag_budget_ns = 1'000;
  FiberScheduler scheduler(options);
  bool starved_ran = false;
  bool paced = false;
  bool paced_when_idle = false;
  scheduler.Spawn([&] {
    scheduler.WaitUntilNanos(NowNanos());  // Runnable, then starved.
    starved_ran = true;
  });
  scheduler.Spawn([&] {
    const uint64_t until = NowNanos() + 300'000;
    while (NowNanos() < until) {
    }
    paced = scheduler.PaceAdmission();
    // By now the starved fiber was dispatched and finished; with nothing
    // overdue the pacer must decline.
    paced_when_idle = scheduler.PaceAdmission();
  });
  scheduler.Run();
  EXPECT_TRUE(paced);
  EXPECT_TRUE(starved_ran);
  EXPECT_FALSE(paced_when_idle);
  EXPECT_GE(scheduler.stats().paced_admissions, 1u);
}

TEST(FiberTest, PeriodicOsYieldCountsUnderLongScheduling) {
  // With os_yield_every_ns set, a scheduler that stays busy past the
  // period must call std::this_thread::yield() and count it — the release
  // valve against whole-thread OS descheduling on oversubscribed cores.
  FiberScheduler::Options options;
  options.os_yield_every_ns = 50'000;  // 50 us.
  FiberScheduler scheduler(options);
  scheduler.Spawn([&] {
    for (int i = 0; i < 5; ++i) {
      scheduler.WaitUntilNanos(NowNanos() + 40'000);
    }
  });
  scheduler.Run();
  EXPECT_GE(scheduler.stats().os_yields, 1u);
}

FiberScheduler::Options LogicalClock() {
  FiberScheduler::Options options;
  options.logical_clock = true;
  return options;
}

TEST(FiberTest, LogicalClockJumpsToTheDeadline) {
  // A logical-clock sleep costs no wall time: with no other fiber due,
  // time jumps to the deadline, and the fiber reads exactly start + 1 s.
  FiberScheduler scheduler(LogicalClock());
  uint64_t start = 0;
  uint64_t woke = 0;
  scheduler.Spawn([&] {
    start = NowNanos();
    SleepForMicros(1'000'000);
    woke = NowNanos();
  });
  const auto wall_start = std::chrono::steady_clock::now();
  scheduler.Run();
  const auto wall = std::chrono::steady_clock::now() - wall_start;
  EXPECT_EQ(woke, start + 1'000'000'000u);
  EXPECT_LT(wall, std::chrono::milliseconds(10));
  EXPECT_EQ(scheduler.stats().wait_ns, 1'000'000'000u);
  EXPECT_EQ(scheduler.stats().idle_ns, 0u);
}

TEST(FiberTest, LogicalClockZeroTimeYieldsTakeTurns) {
  // Zero-time waits on a logical clock are turns: equal deadlines
  // dispatch FIFO, so three fibers alternate in spawn order.
  FiberScheduler scheduler(LogicalClock());
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    scheduler.Spawn([&, i] {
      for (int turn = 0; turn < 2; ++turn) {
        order.push_back(i);
        SpinForNanos(0);
      }
    });
  }
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(FiberTest, WallClockReturnsAfterLogicalRun) {
  // Once Run() returns, NowNanos() reads the wall clock again: it is
  // behind the 10 s the fiber slept and moves with real time.
  FiberScheduler scheduler(LogicalClock());
  uint64_t logical_end = 0;
  scheduler.Spawn([&] {
    SleepForMicros(10'000'000);
    logical_end = NowNanos();
  });
  scheduler.Run();
  const uint64_t after = NowNanos();
  EXPECT_LT(after, logical_end);
  const auto spin_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  while (std::chrono::steady_clock::now() < spin_until) {
  }
  EXPECT_GE(NowNanos() - after, 1'000'000u);
}

}  // namespace
}  // namespace pandora
