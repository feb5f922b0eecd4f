#include "workloads/driver.h"

#include <algorithm>
#include <thread>

#include "common/clock.h"
#include "common/logging.h"

namespace pandora {
namespace workloads {

namespace {

// Tail-fairness lag budget for the fiber scheduler (inert at 1 fiber):
// before admitting a NEW transaction, a fiber checks whether the oldest
// runnable sibling is overdue past this budget and, if so, donates its
// slice to the backlog instead (bounded in-flight admission pacing).
constexpr uint64_t kFiberLagBudgetUs = 150;
// Cooperative OS-thread yield cadence inside the fiber scheduler: with
// more worker threads than cores, a fiber worker that never blocks
// (fibers soak every simulated wait) would hold the core for full OS
// quanta (milliseconds), stalling the sibling worker's fibers — the
// dominant fibers8 p99 term. Yielding every ~50 µs of scheduler CPU
// bounds that stall at microsecond scale. A one-fiber worker soaks no
// wait, so it takes no cadence: Linux's EEVDF scheduler pushes a yielding
// thread's deadline out by a whole slice, and a worker yielding every
// 50 µs got a few percent of a core it shared with a spinning thread (the
// elasticity bench's migration), stalling every transaction for the
// whole migration.
constexpr uint64_t kFiberOsYieldUs = 50;
// How often a fiber whose slots are all on crashed nodes looks for a
// respawn. Longer than BlockUntilNanos's 50 µs sleep threshold, so an idle
// worker sleeps through the poll instead of yielding the core all of it.
constexpr uint64_t kDeadSlotPollUs = 200;

}  // namespace

Driver::Driver(cluster::Cluster* cluster,
               recovery::RecoveryManager* manager, txn::SystemGate* gate,
               Workload* workload, const DriverConfig& config)
    : cluster_(cluster),
      manager_(manager),
      gate_(gate),
      workload_(workload),
      config_(config) {}

txn::Coordinator* Driver::SpawnCoordinator(uint32_t compute_index) {
  std::vector<uint16_t> ids;
  Status status = manager_->RegisterComputeNode(
      cluster_->compute(compute_index), 1, &ids);
  // Fresh-id exhaustion is transient while a recycling scan is still
  // reclaiming a fenced node's ids (§3.1.2) — a respawn can race ahead of
  // the scan that frees its predecessors. Wait for recycled ids instead of
  // aborting the run.
  const uint64_t deadline = NowMicros() + 2'000'000;
  while (status.IsResourceExhausted() && NowMicros() < deadline) {
    SleepForMicros(500);
    status = manager_->RegisterComputeNode(cluster_->compute(compute_index),
                                           1, &ids);
  }
  PANDORA_CHECK(status.ok());
  std::lock_guard<std::mutex> lock(coords_mu_);
  coords_.push_back(std::make_unique<txn::Coordinator>(
      cluster_, cluster_->compute(compute_index), ids[0], config_.txn,
      gate_));
  return coords_.back().get();
}

void Driver::RunSlotTxn(Slot* slot, Random* rng, uint64_t start_ns,
                        LatencyHistogram* latency) {
  txn::Coordinator* coord = slot->coord.load(std::memory_order_acquire);
  const uint64_t txn_start_ns = NowNanos();
  const Status status = workload_->RunTransaction(coord, rng);
  if (status.ok()) {
    const uint64_t end_ns = NowNanos();
    latency->Record(end_ns - txn_start_ns);
    committed_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t bucket =
        (end_ns - start_ns) / (config_.bucket_ms * 1'000'000);
    if (bucket < bucket_commits_.size()) {
      bucket_commits_[bucket]->fetch_add(1, std::memory_order_relaxed);
    }
  } else if (status.IsAborted() || status.IsBusy()) {
    aborted_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsPermissionDenied()) {
    // This node was fenced — usually a failure-detector false positive
    // under CPU pressure (its process is alive). Rejoin it with fresh
    // coordinator-ids instead of hammering revoked links.
    crashed_.fetch_add(1, std::memory_order_relaxed);
    RejoinFencedNode(slot->node);
  } else if (status.IsUnavailable()) {
    crashed_.fetch_add(1, std::memory_order_relaxed);
  }
  // NotFound / ResourceExhausted etc.: transaction-level no-ops.
}

void Driver::RunWorker(uint32_t worker_index, uint64_t start_ns,
                       uint64_t deadline_ns, LatencyHistogram* latency,
                       FiberScheduler::Stats* fiber_stats) {
  // The worker's slots, partitioned over max(1, min(fibers_per_thread,
  // slots)) fibers. Each fiber round-robins its own subset, so a slot stays
  // pinned to one fiber (and this one thread) for the whole run; the wait
  // hook in SpinUntilNanos/SleepForMicros does the actual overlapping.
  std::vector<Slot*> mine;
  for (size_t i = worker_index; i < slots_.size();
       i += config_.threads) {
    mine.push_back(slots_[i].get());
  }
  if (mine.empty()) return;
  const uint32_t fibers = static_cast<uint32_t>(std::max<size_t>(
      1, std::min<size_t>(config_.fibers_per_thread, mine.size())));

  FiberScheduler::Options options;
  options.lag_budget_ns = kFiberLagBudgetUs * 1000;
  options.os_yield_every_ns = fibers > 1 ? kFiberOsYieldUs * 1000 : 0;
  FiberScheduler scheduler(options);
  for (uint32_t f = 0; f < fibers; ++f) {
    std::vector<Slot*> owned;
    for (size_t i = f; i < mine.size(); i += fibers) {
      owned.push_back(mine[i]);
    }
    scheduler.Spawn([this, &scheduler, owned = std::move(owned),
                     worker_index, f, start_ns, deadline_ns, latency] {
      Random rng(config_.seed * 7919 + worker_index + 131 * (f + 1));
      size_t next = 0;
      size_t skipped = 0;
      while (!stop_.load(std::memory_order_acquire)) {
        const uint64_t now = NowNanos();
        if (now >= deadline_ns) break;
        Slot* slot = owned[next];
        next = (next + 1) % owned.size();
        if (cluster_->fabric().IsHalted(slot->node) ||
            (config_.pace_us > 0 && now < slot->next_allowed_ns)) {
          // Crashed and not yet respawned, or paced. After a round with
          // nothing to run, suspend until the earliest live slot is due,
          // or poll for a respawn when every slot is on a crashed node.
          if (++skipped >= owned.size()) {
            skipped = 0;
            uint64_t due = UINT64_MAX;
            for (const Slot* s : owned) {
              if (!cluster_->fabric().IsHalted(s->node)) {
                due = std::min(due, std::max(s->next_allowed_ns, now));
              }
            }
            if (due == UINT64_MAX) due = now + kDeadSlotPollUs * 1000;
            SpinUntilNanos(std::min(due, deadline_ns));
          }
          continue;
        }
        skipped = 0;
        // Bounded in-flight admission: if the scheduler is overdue past
        // its lag budget on already-admitted transactions, let the
        // backlog drain before starting another (the stop/deadline checks
        // re-run after the pacing suspension).
        if (scheduler.PaceAdmission()) continue;
        slot->next_allowed_ns = now + config_.pace_us * 1000;
        RunSlotTxn(slot, &rng, start_ns, latency);
      }
    });
  }
  scheduler.Run();
  *fiber_stats = scheduler.stats();
}

void Driver::RejoinFencedNode(rdma::NodeId node) {
  // Not a blocking mutex: the holder may be a *fiber* suspended mid-
  // rejoin on this very thread, and blocking the OS thread would prevent
  // the holder from ever resuming (and locking a mutex twice from one
  // thread is UB besides). The retry sleep goes through the fiber-aware
  // SleepForMicros, so waiting fibers yield cooperatively while a plain
  // thread degrades to a 200 µs-granularity lock.
  while (rejoin_busy_.exchange(true, std::memory_order_acquire)) {
    SleepForMicros(200);
  }
  struct Release {
    std::atomic<bool>* busy;
    ~Release() { busy->store(false, std::memory_order_release); }
  } release{&rejoin_busy_};
  if (cluster_->fabric().IsHalted(node)) return;  // Genuinely crashed.
  // Let the (false-positive) recovery finish before restoring the links —
  // restoring earlier would violate Cor1.
  const uint64_t deadline = NowMicros() + 2'000'000;
  while (manager_->pending_recoveries() > 0 && NowMicros() < deadline) {
    SleepForMicros(200);
  }
  if (cluster_->fabric().GetMemoryNode(0) != nullptr &&
      !cluster_->fabric().GetMemoryNode(0)->IsRevoked(node)) {
    return;  // Another worker already rejoined it.
  }
  PANDORA_LOG(kInfo) << "driver: rejoining fenced compute node " << node;
  cluster_->RestartComputeNode(node);
  for (auto& slot : slots_) {
    if (slot->node != node) continue;
    slot->coord.store(SpawnCoordinator(slot->compute_index),
                      std::memory_order_release);
  }
}

void Driver::FaultLoop(uint64_t start_ns) {
  std::vector<FaultEvent> events = faults_;
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at_ms < b.at_ms;
            });
  for (const FaultEvent& event : events) {
    const uint64_t target_ns = start_ns + event.at_ms * 1'000'000;
    while (NowNanos() < target_ns && !stop_.load()) SleepForMicros(200);
    if (stop_.load()) return;

    switch (event.kind) {
      case FaultEvent::Kind::kComputeCrash: {
        const rdma::NodeId node =
            cluster_->compute_node_id(event.node_index);
        PANDORA_LOG(kInfo) << "driver: crashing compute node " << node;
        cluster_->CrashComputeNode(node);
        break;
      }
      case FaultEvent::Kind::kComputeRestart: {
        const rdma::NodeId node =
            cluster_->compute_node_id(event.node_index);
        // Wait for the node's recovery before readmitting it (a fenced
        // node must not resume with stale rights).
        manager_->WaitForComputeRecovery(node, 2'000'000);
        PANDORA_LOG(kInfo) << "driver: restarting compute node " << node;
        cluster_->RestartComputeNode(node);
        for (auto& slot : slots_) {
          if (slot->node != node) continue;
          slot->coord.store(SpawnCoordinator(slot->compute_index),
                            std::memory_order_release);
        }
        break;
      }
      case FaultEvent::Kind::kMemoryCrash: {
        const rdma::NodeId node =
            cluster_->memory_node_id(event.node_index);
        PANDORA_LOG(kInfo) << "driver: crashing memory node " << node;
        cluster_->CrashMemoryNode(node);
        manager_->RecoverMemoryFailure(node);
        break;
      }
      case FaultEvent::Kind::kReconfig: {
        PANDORA_LOG(kInfo) << "driver: running scheduled reconfiguration";
        if (event.action) event.action();
        break;
      }
    }
  }
}

DriverResult Driver::Run() {
  const uint64_t buckets =
      (config_.duration_ms + config_.bucket_ms - 1) / config_.bucket_ms;
  bucket_commits_.clear();
  for (uint64_t b = 0; b < buckets; ++b) {
    bucket_commits_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }

  // Logical coordinators, round-robin over compute nodes.
  slots_.clear();
  for (uint32_t i = 0; i < config_.coordinators; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->compute_index = i % cluster_->num_compute_nodes();
    slot->node = cluster_->compute_node_id(slot->compute_index);
    slot->coord.store(SpawnCoordinator(slot->compute_index),
                      std::memory_order_release);
    slots_.push_back(std::move(slot));
  }

  const uint64_t start_ns = NowNanos();
  const uint64_t deadline_ns = start_ns + config_.duration_ms * 1'000'000;
  stop_.store(false);

  std::vector<std::thread> workers;
  std::vector<LatencyHistogram> latencies(config_.threads);
  std::vector<FiberScheduler::Stats> fiber_stats(config_.threads);
  for (uint32_t w = 0; w < config_.threads; ++w) {
    workers.emplace_back(
        [this, w, start_ns, deadline_ns, &latencies, &fiber_stats] {
          RunWorker(w, start_ns, deadline_ns, &latencies[w],
                    &fiber_stats[w]);
        });
  }
  std::thread fault_thread([this, start_ns] { FaultLoop(start_ns); });

  for (auto& worker : workers) worker.join();
  stop_.store(true);
  fault_thread.join();
  const uint64_t end_ns = NowNanos();

  DriverResult result;
  result.committed = committed_.load();
  result.aborted = aborted_.load();
  result.crashed = crashed_.load();
  result.mtps = static_cast<double>(result.committed) /
                (static_cast<double>(end_ns - start_ns) / 1e9) / 1e6;
  const double bucket_seconds =
      static_cast<double>(config_.bucket_ms) / 1000.0;
  for (const auto& bucket : bucket_commits_) {
    result.timeline_mtps.push_back(
        static_cast<double>(bucket->load()) / bucket_seconds / 1e6);
  }
  for (const LatencyHistogram& latency : latencies) {
    result.commit_latency.Merge(latency);
  }
  result.latency_p50_ns = result.commit_latency.PercentileNanos(50);
  result.latency_p95_ns = result.commit_latency.PercentileNanos(95);
  result.latency_p99_ns = result.commit_latency.PercentileNanos(99);
  for (const FiberScheduler::Stats& stats : fiber_stats) {
    result.fiber_yields += stats.yields;
    result.fiber_wait_ns += stats.wait_ns;
    result.fiber_idle_ns += stats.idle_ns;
    result.fiber_max_resume_lag_ns =
        std::max(result.fiber_max_resume_lag_ns, stats.max_resume_lag_ns);
    result.fiber_paced_admissions += stats.paced_admissions;
  }
  result.overlap_factor =
      static_cast<double>(result.fiber_wait_ns) /
      (static_cast<double>(config_.threads) *
       static_cast<double>(end_ns - start_ns));
  {
    std::lock_guard<std::mutex> lock(coords_mu_);
    for (const auto& coord : coords_) {
      const txn::TxnStats& stats = coord->stats();
      result.totals.committed += stats.committed;
      result.totals.aborted += stats.aborted;
      result.totals.lock_conflicts += stats.lock_conflicts;
      result.totals.validation_failures += stats.validation_failures;
      result.totals.locks_stolen += stats.locks_stolen;
      result.totals.stray_reads_ignored += stats.stray_reads_ignored;
      result.totals.stall_retries += stats.stall_retries;
      result.totals.log_records_written += stats.log_records_written;
      result.totals.nvm_flushes += stats.nvm_flushes;
      result.totals.crashed += stats.crashed;
      result.totals.execution_rtts += stats.execution_rtts;
      result.totals.commit_rtts += stats.commit_rtts;
      result.totals.doorbells += stats.doorbells;
      result.totals.bug_injections += stats.bug_injections;
      result.totals.placement_hits += stats.placement_hits;
      result.totals.placement_misses += stats.placement_misses;
      result.totals.reconfig_aborts += stats.reconfig_aborts;
      result.totals.reconfig_retries += stats.reconfig_retries;
    }
  }
  result.totals.fiber_yields = result.fiber_yields;
  result.totals.max_resume_lag_ns = result.fiber_max_resume_lag_ns;
  result.totals.paced_admissions = result.fiber_paced_admissions;
  return result;
}

}  // namespace workloads
}  // namespace pandora
