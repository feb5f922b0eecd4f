#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "common/clock.h"

#include "cluster/cluster.h"
#include "rdma/verb_schedule.h"
#include "recovery/recovery_manager.h"
#include "txn/system_gate.h"
#include "workloads/driver.h"
#include "workloads/micro.h"
#include "workloads/smallbank.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"

namespace pandora {
namespace workloads {
namespace {

cluster::ClusterConfig TestClusterConfig() {
  cluster::ClusterConfig config;
  config.memory_nodes = 2;
  config.compute_nodes = 2;
  config.replication = 2;
  config.net.one_way_ns = 0;
  config.net.per_byte_ns = 0;
  config.log.max_coordinators = 256;
  config.log.slot_bytes = 8192;  // TPC-C write-sets are large.
  return config;
}

recovery::RecoveryManagerConfig TestRmConfig() {
  recovery::RecoveryManagerConfig config;
  // Generous detection timing: saturating driver tests on two cores can
  // starve heartbeat pumps for tens of milliseconds.
  config.fd.timeout_us = 150'000;
  config.fd.heartbeat_period_us = 10'000;
  config.fd.poll_period_us = 10'000;
  return config;
}

class WorkloadsTest : public ::testing::Test {
 protected:
  void Start(Workload* workload) {
    cluster_ = std::make_unique<cluster::Cluster>(TestClusterConfig());
    ASSERT_TRUE(workload->Setup(cluster_.get()).ok());
    manager_ = std::make_unique<recovery::RecoveryManager>(
        cluster_.get(), TestRmConfig(), &gate_);
    manager_->Start();
  }

  std::unique_ptr<txn::Coordinator> MakeCoordinator(
      uint32_t compute_index, txn::TxnConfig config = txn::TxnConfig()) {
    std::vector<uint16_t> ids;
    EXPECT_TRUE(manager_
                    ->RegisterComputeNode(cluster_->compute(compute_index),
                                          1, &ids)
                    .ok());
    return std::make_unique<txn::Coordinator>(
        cluster_.get(), cluster_->compute(compute_index), ids[0], config,
        &gate_);
  }

  txn::SystemGate gate_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<recovery::RecoveryManager> manager_;
};

TEST_F(WorkloadsTest, MicroRunsTransactions) {
  MicroConfig config;
  config.num_keys = 1000;
  config.write_percent = 50;
  MicroWorkload micro(config);
  Start(&micro);
  auto coord = MakeCoordinator(0);
  Random rng(1);
  int committed = 0;
  for (int i = 0; i < 200; ++i) {
    if (micro.RunTransaction(coord.get(), &rng).ok()) ++committed;
  }
  EXPECT_GT(committed, 150);
}

TEST_F(WorkloadsTest, MicroHotKeysRestrictAccess) {
  MicroConfig config;
  config.num_keys = 1000;
  config.hot_keys = 4;
  config.write_percent = 100;
  config.ops_per_txn = 2;
  MicroWorkload micro(config);
  Start(&micro);

  // Distribution assertion: the workload draws only from the hot set, and
  // a modest sample covers all of it.
  {
    Random rng(42);
    std::vector<int> hits(config.hot_keys, 0);
    for (int i = 0; i < 4096; ++i) {
      const store::Key key = micro.SampleKey(&rng);
      ASSERT_LT(key, config.hot_keys) << "sampled key outside the hot set";
      hits[key]++;
    }
    for (uint64_t k = 0; k < config.hot_keys; ++k) {
      EXPECT_GT(hits[k], 0) << "hot key " << k << " never sampled";
    }
  }

  // Conflict assertion, made deterministic: c1 holds locks on the entire
  // hot set, so any write transaction c2 runs must hit a held lock. (The
  // old version raced two free-running coordinators on a zero-latency
  // fabric, where the lock windows are so short the conflict was flaky.)
  auto c1 = MakeCoordinator(0);
  auto c2 = MakeCoordinator(1);
  ASSERT_TRUE(c1->Begin().ok());
  char value[40] = {0};
  for (store::Key key = 0; key < config.hot_keys; ++key) {
    ASSERT_TRUE(c1->Write(micro.table(), key, Slice(value, 40)).ok());
  }
  Random rng(2);
  const Status status = micro.RunTransaction(c2.get(), &rng);
  EXPECT_TRUE(status.IsAborted()) << status.ToString();
  EXPECT_GT(c2->stats().lock_conflicts, 0u);
  EXPECT_TRUE(c1->Abort().IsAborted());
}

TEST_F(WorkloadsTest, SmallBankConservesMoneySerially) {
  SmallBankConfig config;
  config.num_accounts = 200;
  SmallBankWorkload bank(config);
  Start(&bank);
  auto coord = MakeCoordinator(0);
  Random rng(7);
  int committed = 0;
  for (int i = 0; i < 300; ++i) {
    if (bank.RunTransaction(coord.get(), &rng).ok()) ++committed;
  }
  EXPECT_GT(committed, 250);
  int64_t total = 0;
  ASSERT_TRUE(bank.TotalBalance(coord.get(), &total).ok());
  EXPECT_EQ(total, bank.ExpectedTotal() + bank.committed_delta());
}

TEST_F(WorkloadsTest, SmallBankConservesMoneyUnderConcurrency) {
  SmallBankConfig config;
  config.num_accounts = 100;
  config.hot_accounts = 20;
  config.conserving_only = true;
  SmallBankWorkload bank(config);
  Start(&bank);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto coord = MakeCoordinator(t % 2);
      Random rng(100 + t);
      for (int i = 0; i < 150; ++i) {
        bank.RunTransaction(coord.get(), &rng);
      }
    });
  }
  for (auto& thread : threads) {
    if (thread.joinable()) thread.join();
  }
  auto auditor = MakeCoordinator(0);
  int64_t total = 0;
  ASSERT_TRUE(bank.TotalBalance(auditor.get(), &total).ok());
  EXPECT_EQ(total, bank.ExpectedTotal());
}

TEST_F(WorkloadsTest, SmallBankConservesMoneyAcrossCrashAndRecovery) {
  SmallBankConfig config;
  config.num_accounts = 100;
  config.hot_accounts = 10;
  config.conserving_only = true;
  SmallBankWorkload bank(config);
  Start(&bank);

  // Coordinator on node 0 runs transactions, then its node crashes
  // mid-flight; survivors continue; recovery must keep the invariant.
  std::thread victim_thread([&] {
    auto victim = MakeCoordinator(0);
    Random rng(5);
    for (int i = 0; i < 10000; ++i) {
      if (!bank.RunTransaction(victim.get(), &rng).ok() &&
          victim->stats().crashed > 0) {
        break;
      }
    }
  });
  std::thread survivor_thread([&] {
    auto survivor = MakeCoordinator(1);
    Random rng(6);
    for (int i = 0; i < 400; ++i) bank.RunTransaction(survivor.get(), &rng);
  });
  SleepForMicros(20'000);
  const uint64_t before =
      manager_->recovery_count(cluster_->compute_node_id(0));
  cluster_->CrashComputeNode(cluster_->compute_node_id(0));
  victim_thread.join();
  survivor_thread.join();
  ASSERT_TRUE(manager_->WaitForComputeRecovery(
      cluster_->compute_node_id(0), 3'000'000, before));

  auto auditor = MakeCoordinator(1);
  int64_t total = 0;
  ASSERT_TRUE(bank.TotalBalance(auditor.get(), &total).ok());
  EXPECT_EQ(total, bank.ExpectedTotal());
}

TEST_F(WorkloadsTest, TatpRunsAllProfiles) {
  TatpConfig config;
  config.subscribers = 500;
  TatpWorkload tatp(config);
  Start(&tatp);
  auto coord = MakeCoordinator(0);
  Random rng(11);
  int committed = 0;
  for (int i = 0; i < 400; ++i) {
    if (tatp.RunTransaction(coord.get(), &rng).ok()) ++committed;
  }
  // TATP is mostly read-only; nearly everything commits.
  EXPECT_GT(committed, 350);
}

TEST_F(WorkloadsTest, TpccRunsAllProfiles) {
  TpccConfig config;
  config.warehouses = 1;
  config.districts_per_warehouse = 4;
  config.customers_per_district = 50;
  config.items = 100;
  config.max_orders_per_district = 512;
  TpccWorkload tpcc(config);
  Start(&tpcc);
  auto coord = MakeCoordinator(0);
  Random rng(13);
  int committed = 0;
  for (int i = 0; i < 300; ++i) {
    if (tpcc.RunTransaction(coord.get(), &rng).ok()) ++committed;
  }
  EXPECT_GT(committed, 250);

  // Explicit per-profile smoke checks.
  EXPECT_TRUE(tpcc.NewOrder(coord.get(), &rng).ok());
  EXPECT_TRUE(tpcc.Payment(coord.get(), &rng).ok());
  EXPECT_TRUE(tpcc.OrderStatus(coord.get(), &rng).ok());
  EXPECT_TRUE(tpcc.Delivery(coord.get(), &rng).ok());
  EXPECT_TRUE(tpcc.StockLevel(coord.get(), &rng).ok());
}

TEST_F(WorkloadsTest, DriverProducesTimeline) {
  MicroConfig config;
  config.num_keys = 1000;
  MicroWorkload micro(config);
  Start(&micro);

  DriverConfig driver_config;
  driver_config.threads = 2;
  driver_config.coordinators = 4;
  driver_config.duration_ms = 300;
  driver_config.bucket_ms = 50;
  Driver driver(cluster_.get(), manager_.get(), &gate_, &micro,
                driver_config);
  const DriverResult result = driver.Run();
  EXPECT_GT(result.committed, 100u);
  EXPECT_GT(result.mtps, 0.0);
  EXPECT_EQ(result.timeline_mtps.size(), 6u);
  EXPECT_EQ(result.totals.committed, result.committed);
}

TEST_F(WorkloadsTest, DriverSurvivesComputeCrashAndRestart) {
  MicroConfig config;
  config.num_keys = 500;
  MicroWorkload micro(config);
  Start(&micro);

  DriverConfig driver_config;
  driver_config.threads = 2;
  driver_config.coordinators = 4;
  driver_config.duration_ms = 500;
  driver_config.bucket_ms = 50;
  Driver driver(cluster_.get(), manager_.get(), &gate_, &micro,
                driver_config);
  driver.AddFault({FaultEvent::Kind::kComputeCrash, 150, 0});
  driver.AddFault({FaultEvent::Kind::kComputeRestart, 300, 0});
  const DriverResult result = driver.Run();
  EXPECT_GT(result.committed, 50u);
  // Work continued after the crash: late buckets are non-empty.
  double tail = 0;
  for (size_t b = 6; b < result.timeline_mtps.size(); ++b) {
    tail += result.timeline_mtps[b];
  }
  EXPECT_GT(tail, 0.0);
}

// ------------------------------------------------------- Fiber driver --

// Sanitizer instrumentation inflates per-txn CPU cost ~10x, which would
// CPU-bind the overlapped runs on small test machines and compress the
// speedup; scale the simulated network latency up with it so waits keep
// dominating CPU and overlap stays measurable, and relax the floor for
// loaded single-core CI runners.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif
#else
constexpr bool kSanitizerBuild = false;
#endif
constexpr double kMinFiberSpeedup = kSanitizerBuild ? 1.5 : 2.0;
constexpr uint64_t kFiberTestOneWayNs = kSanitizerBuild ? 50'000 : 5'000;
// Tail bound for the oversubscribed fiber run (p99 <= ratio * p50). The
// bench gate enforces 4x at full scale; test scale is shorter and noisier
// (and sanitizer CPU inflation compresses the wait/CPU ratio), so the
// regression bar here is looser — pure-EDF starvation produced ~30x.
constexpr double kMaxFiberTailRatio = kSanitizerBuild ? 12.0 : 6.0;

TEST_F(WorkloadsTest, DriverFibersOverlapSimulatedLatency) {
  // The tentpole acceptance check: under a 5 µs one-way simulated
  // latency (scaled up with sanitizer CPU inflation, see above),
  // 8 fibers/thread must commit at least 2x what 1 fiber/thread does —
  // the paper's coordinators-per-core scaling lever — while the
  // per-transaction round-trip accounting stays unchanged (overlap must
  // reclaim CPU time, never simulated time).
  MicroConfig config;
  config.num_keys = 20'000;
  config.write_percent = 100;
  config.ops_per_txn = 2;
  MicroWorkload micro(config);
  cluster::ClusterConfig cluster_config = TestClusterConfig();
  cluster_config.net.one_way_ns = kFiberTestOneWayNs;
  cluster_ = std::make_unique<cluster::Cluster>(cluster_config);
  ASSERT_TRUE(micro.Setup(cluster_.get()).ok());
  manager_ = std::make_unique<recovery::RecoveryManager>(
      cluster_.get(), TestRmConfig(), &gate_);
  manager_->Start();

  auto run = [&](uint32_t fibers) {
    DriverConfig driver_config;
    driver_config.threads = 2;
    driver_config.coordinators = 16;
    driver_config.duration_ms = 300;
    driver_config.bucket_ms = 50;
    driver_config.fibers_per_thread = fibers;
    Driver driver(cluster_.get(), manager_.get(), &gate_, &micro,
                  driver_config);
    return driver.Run();
  };

  constexpr uint32_t kFibers = 8;
  const DriverResult base = run(1);
  const DriverResult fibered = run(kFibers);
  ASSERT_GT(base.committed, 100u);
  EXPECT_GE(static_cast<double>(fibered.committed),
            kMinFiberSpeedup * static_cast<double>(base.committed))
      << "1 fiber: " << base.committed << ", 8 fibers: "
      << fibered.committed;

  // Overlap must not alter simulated-time accounting: the round trips a
  // committed transaction waits out are identical in both modes (small
  // tolerance for the abort mix shifting the per-committed ratio).
  const auto per_committed = [](const DriverResult& r, uint64_t rtts) {
    return static_cast<double>(rtts) /
           static_cast<double>(std::max<uint64_t>(r.totals.committed, 1));
  };
  EXPECT_NEAR(per_committed(base, base.totals.execution_rtts),
              per_committed(fibered, fibered.totals.execution_rtts),
              0.1 * per_committed(base, base.totals.execution_rtts));
  EXPECT_NEAR(per_committed(base, base.totals.commit_rtts),
              per_committed(fibered, fibered.totals.commit_rtts),
              0.1 * per_committed(base, base.totals.commit_rtts));

  // Both runs wait through their schedulers. One fiber per worker has at
  // most one wait in flight; the fiber run overlaps its waits.
  EXPECT_GT(base.fiber_yields, 0u);
  EXPECT_EQ(base.totals.fiber_yields, base.fiber_yields);
  EXPECT_GT(fibered.fiber_yields, 0u);
  EXPECT_EQ(fibered.totals.fiber_yields, fibered.fiber_yields);
  EXPECT_GT(base.overlap_factor, 0.0);
  EXPECT_LE(base.overlap_factor, 1.0);
  // Waits in flight per worker: real overlap, and never more than the
  // fibers a worker runs.
  EXPECT_GT(fibered.overlap_factor, 1.5);
  EXPECT_LE(fibered.overlap_factor, kFibers);
  // Percentiles are wired through for every run.
  EXPECT_GT(base.latency_p50_ns, 0u);
  EXPECT_GE(base.latency_p95_ns, base.latency_p50_ns);
  EXPECT_GE(base.latency_p99_ns, base.latency_p95_ns);
}

TEST_F(WorkloadsTest, FiberDriverSurvivesComputeCrashAndRestart) {
  MicroConfig config;
  config.num_keys = 500;
  MicroWorkload micro(config);
  Start(&micro);

  DriverConfig driver_config;
  driver_config.threads = 2;
  driver_config.coordinators = 8;
  driver_config.duration_ms = 500;
  driver_config.bucket_ms = 50;
  driver_config.fibers_per_thread = 4;
  Driver driver(cluster_.get(), manager_.get(), &gate_, &micro,
                driver_config);
  driver.AddFault({FaultEvent::Kind::kComputeCrash, 150, 0});
  driver.AddFault({FaultEvent::Kind::kComputeRestart, 300, 0});
  const DriverResult result = driver.Run();
  EXPECT_GT(result.committed, 50u);
  double tail = 0;
  for (size_t b = 6; b < result.timeline_mtps.size(); ++b) {
    tail += result.timeline_mtps[b];
  }
  EXPECT_GT(tail, 0.0);
}

TEST_F(WorkloadsTest, FiberDriverHonorsPacing) {
  // Deadline-aware pacing: a paced fiber suspends until its earliest slot
  // is due, and the pacing budget still caps throughput.
  MicroConfig config;
  config.num_keys = 1000;
  MicroWorkload micro(config);
  Start(&micro);

  DriverConfig driver_config;
  driver_config.threads = 2;
  driver_config.coordinators = 8;
  driver_config.duration_ms = 200;
  driver_config.bucket_ms = 50;
  driver_config.pace_us = 500;
  driver_config.fibers_per_thread = 4;
  Driver driver(cluster_.get(), manager_.get(), &gate_, &micro,
                driver_config);
  const DriverResult result = driver.Run();
  // 8 coordinators x (200 ms / 500 us) = 3200 paced starts, plus one
  // immediate start each; aborts only lower the committed count.
  EXPECT_GT(result.committed, 100u);
  EXPECT_LE(result.committed, 8u * (200'000u / 500u) + 8u);
}

TEST_F(WorkloadsTest, FiberDriverBoundsTailLatency) {
  // The tail-starvation regression test behind the fibers8 bench gate:
  // pure-EDF admission kept admitting fresh transactions while an
  // already-admitted runnable fiber sat unscheduled for milliseconds,
  // pushing p99 to ~30x p50. The lag-budgeted heap scheduler (bounded
  // admission pacing + periodic OS yields) must keep the oversubscribed
  // run's p99 within a small multiple of its p50.
  MicroConfig config;
  config.num_keys = 20'000;
  config.write_percent = 50;
  MicroWorkload micro(config);
  cluster::ClusterConfig cluster_config = TestClusterConfig();
  cluster_config.net.one_way_ns = kFiberTestOneWayNs;
  cluster_ = std::make_unique<cluster::Cluster>(cluster_config);
  ASSERT_TRUE(micro.Setup(cluster_.get()).ok());
  manager_ = std::make_unique<recovery::RecoveryManager>(
      cluster_.get(), TestRmConfig(), &gate_);
  manager_->Start();

  DriverConfig driver_config;
  driver_config.threads = 2;
  driver_config.coordinators = 16;
  driver_config.duration_ms = 400;
  driver_config.bucket_ms = 50;
  driver_config.fibers_per_thread = 8;
  Driver driver(cluster_.get(), manager_.get(), &gate_, &micro,
                driver_config);
  const DriverResult result = driver.Run();
  ASSERT_GT(result.committed, 100u);
  ASSERT_GT(result.latency_p50_ns, 0u);
  const double tail_ratio = static_cast<double>(result.latency_p99_ns) /
                            static_cast<double>(result.latency_p50_ns);
  EXPECT_LE(tail_ratio, kMaxFiberTailRatio)
      << "p50=" << result.latency_p50_ns / 1000
      << "us p99=" << result.latency_p99_ns / 1000 << "us";

  // The starvation metrics are plumbed end to end: the per-worker maxima
  // and sums surface both as DriverResult fields and in the aggregated
  // TxnStats totals the benches read.
  EXPECT_EQ(result.totals.max_resume_lag_ns,
            result.fiber_max_resume_lag_ns);
  EXPECT_EQ(result.totals.paced_admissions,
            result.fiber_paced_admissions);
}

// A verb held at the fabric must suspend only its own fiber: sibling
// fibers on the *same* worker thread keep issuing and landing verbs
// while the hold is in place. The hook holds the first lock CAS it sees
// and releases it only after observing 8 further CAS applies — so the
// release condition itself is proof of sibling progress (a blocked
// worker would starve the counter and trip the deadline instead).
TEST_F(WorkloadsTest, HeldVerbSuspendsOnlyItsFiber) {
  class HoldFirstCas : public rdma::VerbScheduleHook {
   public:
    bool OnVerbIssue(const rdma::VerbDesc& desc) override {
      if (desc.kind != rdma::VerbKind::kCompareSwap) return true;
      bool expected = false;
      if (!holding_.compare_exchange_strong(expected, true)) return true;
      const uint64_t deadline = NowNanos() + 100'000'000;  // 100 ms
      while (cas_applied_.load(std::memory_order_acquire) < 8) {
        if (NowNanos() > deadline) {
          timed_out_.store(true, std::memory_order_release);
          break;
        }
        SleepForMicros(50);  // Fiber-aware: suspends, never blocks.
      }
      held_one_.store(true, std::memory_order_release);
      return true;
    }
    void OnVerbApplied(const rdma::VerbDesc& desc) override {
      if (desc.kind == rdma::VerbKind::kCompareSwap) {
        cas_applied_.fetch_add(1, std::memory_order_acq_rel);
      }
    }
    std::atomic<bool> holding_{false};
    std::atomic<bool> held_one_{false};
    std::atomic<bool> timed_out_{false};
    std::atomic<int> cas_applied_{0};
  };

  MicroConfig config;
  config.num_keys = 20'000;
  config.write_percent = 100;
  config.ops_per_txn = 2;
  MicroWorkload micro(config);
  Start(&micro);

  auto run = [&](uint32_t fibers) {
    DriverConfig driver_config;
    driver_config.threads = 1;  // One worker: siblings share it.
    driver_config.coordinators = 4;
    driver_config.duration_ms = 200;
    driver_config.bucket_ms = 50;
    driver_config.fibers_per_thread = fibers;
    Driver driver(cluster_.get(), manager_.get(), &gate_, &micro,
                  driver_config);
    return driver.Run();
  };

  HoldFirstCas hook;
  cluster_->fabric().set_verb_hook(&hook);
  const DriverResult fibered = run(4);
  cluster_->fabric().set_verb_hook(nullptr);
  ASSERT_TRUE(hook.held_one_.load()) << "no lock CAS ever issued";
  EXPECT_FALSE(hook.timed_out_.load())
      << "sibling fibers made no progress while a verb was held";
  EXPECT_GT(fibered.committed, 20u);

  // Per-committed round-trip accounting is the same with one fiber per
  // worker: a held verb costs wall-clock time, never simulated RTTs.
  const DriverResult one_fiber = run(1);
  ASSERT_GT(one_fiber.committed, 20u);
  const auto per_committed = [](const DriverResult& r, uint64_t rtts) {
    return static_cast<double>(rtts) /
           static_cast<double>(std::max<uint64_t>(r.totals.committed, 1));
  };
  EXPECT_NEAR(per_committed(one_fiber, one_fiber.totals.execution_rtts),
              per_committed(fibered, fibered.totals.execution_rtts),
              0.15 * per_committed(one_fiber, one_fiber.totals.execution_rtts));
  EXPECT_NEAR(per_committed(one_fiber, one_fiber.totals.commit_rtts),
              per_committed(fibered, fibered.totals.commit_rtts),
              0.15 * per_committed(one_fiber, one_fiber.totals.commit_rtts));
}

TEST_F(WorkloadsTest, DriverSurvivesMemoryCrash) {
  MicroConfig config;
  config.num_keys = 500;
  MicroWorkload micro(config);
  Start(&micro);

  DriverConfig driver_config;
  driver_config.threads = 2;
  driver_config.coordinators = 4;
  driver_config.duration_ms = 800;
  driver_config.bucket_ms = 50;
  Driver driver(cluster_.get(), manager_.get(), &gate_, &micro,
                driver_config);
  driver.AddFault({FaultEvent::Kind::kMemoryCrash, 200, 0});
  const DriverResult result = driver.Run();
  EXPECT_GT(result.committed, 50u);
  // Work resumed after the fail-over: the tail of the timeline is live.
  double tail = 0;
  for (size_t b = 8; b < result.timeline_mtps.size(); ++b) {
    tail += result.timeline_mtps[b];
  }
  EXPECT_GT(tail, 0.0);
}

}  // namespace
}  // namespace workloads
}  // namespace pandora
