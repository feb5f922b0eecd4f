// Deployment, the steady closed loop, crash cycles, audits and the
// latency-off pass.

#include <algorithm>
#include <thread>

#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "perfbench.h"
#include "txn/crash_hook.h"
#include "workloads/micro.h"
#include "workloads/smallbank.h"

namespace perfbench {

namespace {

using pandora::FiberScheduler;
using pandora::NowNanos;
using pandora::cluster::Cluster;
using pandora::txn::Coordinator;
using pandora::txn::TxnConfig;
using pandora::txn::TxnStats;

constexpr uint32_t kCoordinators = 128;
constexpr uint32_t kComputeNodes = 2;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kFibersPerWorker = 8;
constexpr uint64_t kLagBudgetNs = 150'000;
constexpr uint64_t kOsYieldNs = 50'000;
constexpr uint64_t kWarmupNs = 500'000'000;
// Commits are also counted per window of this length, to show how steady
// the host was during the run.
constexpr uint64_t kWindowNs = 500'000'000;
// Latency-off pass length, in attempts per client.
constexpr uint32_t kHostPassAttemptsPerClient = 128;

enum Stream : uint64_t { kSteadyStream = 1, kCrashStream = 2 };

void AddStats(const TxnStats& s, TxnStats* total) {
  total->committed += s.committed;
  total->aborted += s.aborted;
  total->lock_conflicts += s.lock_conflicts;
  total->validation_failures += s.validation_failures;
  total->log_records_written += s.log_records_written;
  total->crashed += s.crashed;
  total->execution_rtts += s.execution_rtts;
  total->commit_rtts += s.commit_rtts;
  total->doorbells += s.doorbells;
  total->placement_hits += s.placement_hits;
  total->placement_misses += s.placement_misses;
}

// One closed-loop client: a coordinator and the generator stream it draws
// its transactions from.
struct Client {
  Coordinator* coord = nullptr;
  Random rng{0};
  WrittenKeys written;
  std::vector<uint64_t> staged;
};

// 64 coordinators on each compute node; client i runs on node i % 2.
class ClientPool {
 public:
  ClientPool(Testbed& tb, uint64_t seed) {
    std::vector<std::vector<uint16_t>> ids(kComputeNodes);
    for (uint32_t c = 0; c < kComputeNodes; ++c) {
      ids[c] = tb.AllocateIds(c, kCoordinators / kComputeNodes);
    }
    clients_.resize(kCoordinators);
    for (uint32_t i = 0; i < kCoordinators; ++i) {
      const uint32_t compute = i % kComputeNodes;
      coords_.push_back(std::make_unique<Coordinator>(
          &tb.cluster(), tb.cluster().compute(compute),
          ids[compute][i / kComputeNodes], TxnConfig(), &tb.gate()));
      clients_[i].coord = coords_.back().get();
      clients_[i].rng = Random(StreamSeed(seed, kSteadyStream, i));
    }
  }

  std::vector<Client>& clients() { return clients_; }

  TxnStats Totals() const {
    TxnStats total;
    for (const auto& coord : coords_) AddStats(coord->stats(), &total);
    return total;
  }

 private:
  std::vector<std::unique_ptr<Coordinator>> coords_;
  std::vector<Client> clients_;
};

enum class Outcome { kCommitted, kAborted, kFailed };

// Runs one transaction attempt. As in the repository's driver, an aborted
// attempt is dropped and the client's next transaction is a fresh draw.
Outcome RunAttempt(Testbed& tb, Client* client) {
  client->staged.clear();
  const Status status =
      RunClientTxn(tb, client->coord, &client->rng, &client->staged);
  if (status.ok()) {
    for (const uint64_t key : client->staged) client->written.Add(key);
    return Outcome::kCommitted;
  }
  if (status.IsAborted() || status.IsBusy()) return Outcome::kAborted;
  PANDORA_LOG(kWarning) << "perfbench: transaction failed: "
                        << status.ToString();
  if (client->coord->in_txn()) client->coord->Abort();
  return Outcome::kFailed;
}

struct WorkerState {
  LatencyHistogram latency;
  std::vector<uint64_t> window_commits;
  uint64_t attempts = 0;
  uint64_t aborted = 0;
  uint64_t failed = 0;
  FiberScheduler::Stats fiber;
  uint64_t wall_ns = 0;
  CallTimers timers;
};

void RunWorker(Testbed& tb, const std::vector<Client*>& mine,
               uint64_t window_start, uint64_t deadline, bool trace_calls,
               WorkerState* state) {
  FiberScheduler::Options options;
  options.lag_budget_ns = kLagBudgetNs;
  options.os_yield_every_ns = kOsYieldNs;
  FiberScheduler scheduler(options);
  const size_t fibers = std::min<size_t>(kFibersPerWorker, mine.size());
  for (size_t f = 0; f < fibers; ++f) {
    std::vector<Client*> owned;
    for (size_t i = f; i < mine.size(); i += fibers) owned.push_back(mine[i]);
    scheduler.Spawn([&tb, &scheduler, owned = std::move(owned),
                     window_start, deadline, state] {
      size_t next = 0;
      while (NowNanos() < deadline) {
        Client* client = owned[next];
        next = (next + 1) % owned.size();
        if (scheduler.PaceAdmission()) continue;
        const uint64_t start = NowNanos();
        const Outcome outcome = RunAttempt(tb, client);
        ++state->attempts;
        if (outcome == Outcome::kAborted) ++state->aborted;
        if (outcome == Outcome::kFailed) ++state->failed;
        if (outcome != Outcome::kCommitted) continue;
        const uint64_t end = NowNanos();
        if (end < window_start || end >= deadline) continue;
        state->latency.Record(end - start);
        const uint64_t window = (end - window_start) / kWindowNs;
        if (window < state->window_commits.size()) {
          ++state->window_commits[window];
        }
      }
    });
  }
  t_call_timers = trace_calls ? &state->timers : nullptr;
  const uint64_t start = NowNanos();
  scheduler.Run();
  state->wall_ns = NowNanos() - start;
  t_call_timers = nullptr;
  state->fiber = scheduler.stats();
}

// Fires once, at the given protocol point.
class CrashAt : public pandora::txn::CrashHook {
 public:
  explicit CrashAt(pandora::txn::CrashPoint point) : point_(point) {}
  bool MaybeCrash(pandora::txn::CrashPoint point) override {
    if (fired_ || point != point_) return false;
    fired_ = true;
    return true;
  }

 private:
  pandora::txn::CrashPoint point_;
  bool fired_ = false;
};

}  // namespace

pandora::cluster::ClusterConfig PaperTestbed() {
  pandora::cluster::ClusterConfig config;
  config.memory_nodes = 2;
  config.compute_nodes = kComputeNodes;
  config.replication = 2;
  config.net.one_way_ns = 1500;
  config.net.per_byte_ns = 0.08;
  config.log.slots_per_coordinator = 64;
  config.log.slot_bytes = 2048;
  config.log.max_coordinators = 1100;
  return config;
}

Testbed::Testbed(const pandora::cluster::ClusterConfig& config,
                 const WorkloadSpec& spec)
    : spec_(spec) {
  const uint64_t rows_before = t_rows_loaded;
  const uint64_t start = NowNanos();
  workload_ = spec.make();
  cluster_ = std::make_unique<Cluster>(config);
  const uint64_t load_start = NowNanos();
  PANDORA_CHECK(workload_->Setup(cluster_.get()).ok());
  load_seconds_ = static_cast<double>(NowNanos() - load_start) / 1e9;
  manager_ = std::make_unique<pandora::recovery::RecoveryManager>(
      cluster_.get(), pandora::recovery::RecoveryManagerConfig(), &gate_);
  setup_seconds_ = static_cast<double>(NowNanos() - start) / 1e9;
  rows_loaded_ = t_rows_loaded - rows_before;
}

std::vector<uint16_t> Testbed::AllocateIds(uint32_t compute_index,
                                           uint32_t n) {
  pandora::recovery::FailureDetector& fd = manager_->fd();
  const uint32_t max_ids = std::min<uint32_t>(
      cluster_->catalog().log_layout().config().max_coordinators,
      pandora::store::kMaxCoordinatorIds);
  const uint32_t fresh_left =
      max_ids > fd.ids_allocated() ? max_ids - fd.ids_allocated() : 0;
  if (free_ids_ + fresh_left < n) RecycleRetired();
  pandora::cluster::ComputeServer* server = cluster_->compute(compute_index);
  std::vector<uint16_t> ids;
  PANDORA_CHECK(fd.RegisterComputeNode(server->node(), n, &ids).ok());
  free_ids_ -= std::min(free_ids_, n);
  server->failed_ids().CopyFrom(fd.failed_ids());
  return ids;
}

void Testbed::Retire(const std::vector<uint16_t>& ids) {
  retired_.insert(retired_.end(), ids.begin(), ids.end());
}

void Testbed::RecycleRetired() {
  if (retired_.empty()) return;
  pandora::recovery::RecoveryStats stats;
  PANDORA_CHECK(
      manager_->rc().ScanAndReleaseStrayLocks(retired_, &stats).ok());
  stray_locks_ += stats.locks_released;
  manager_->fd().ReleaseRecycledIds(retired_);
  for (pandora::cluster::ComputeServer* server : cluster_->ComputeServers()) {
    for (const uint16_t id : retired_) server->failed_ids().Clear(id);
  }
  free_ids_ += static_cast<uint32_t>(retired_.size());
  retired_.clear();
}

Coordinator* Testbed::AuditCoordinator() {
  if (audit_coord_ == nullptr) {
    const std::vector<uint16_t> ids = AllocateIds(1, 1);
    audit_coord_ = std::make_unique<Coordinator>(
        cluster_.get(), cluster_->compute(1), ids[0], TxnConfig(), &gate_);
  }
  return audit_coord_.get();
}

SteadyResult RunSteadyPhase(Testbed& tb, uint64_t seed, double seconds,
                            bool trace_calls) {
  ClientPool pool(tb, seed);
  const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t window_start = NowNanos() + kWarmupNs;
  const uint64_t deadline = window_start + window_ns;

  std::vector<WorkerState> states(kWorkers);
  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    // Client i runs on worker i % 2, which is also its compute node.
    std::vector<Client*> mine;
    for (size_t i = w; i < pool.clients().size(); i += kWorkers) {
      mine.push_back(&pool.clients()[i]);
    }
    states[w].window_commits.assign(window_ns / kWindowNs, 0);
    threads.emplace_back([&tb, mine = std::move(mine), window_start,
                          deadline, trace_calls, state = &states[w]] {
      RunWorker(tb, mine, window_start, deadline, trace_calls, state);
    });
  }
  for (std::thread& thread : threads) thread.join();

  SteadyResult result;
  result.window_seconds = seconds;
  result.window_commits.assign(window_ns / kWindowNs, 0);
  for (const WorkerState& state : states) {
    result.attempts += state.attempts;
    result.aborted += state.aborted;
    result.failed += state.failed;
    result.worker_wall_ns += state.wall_ns;
    result.timers.Merge(state.timers);
    result.latency.Merge(state.latency);
    for (size_t w = 0; w < result.window_commits.size(); ++w) {
      result.window_commits[w] += state.window_commits[w];
    }
    FiberScheduler::Stats& f = result.fiber;
    f.yields += state.fiber.yields;
    f.idle_ns += state.fiber.idle_ns;
    f.max_resume_lag_ns =
        std::max(f.max_resume_lag_ns, state.fiber.max_resume_lag_ns);
    f.lag_budget_overruns += state.fiber.lag_budget_overruns;
    f.paced_admissions += state.fiber.paced_admissions;
  }
  result.throughput_tps =
      static_cast<double>(result.latency.count()) / seconds;
  result.totals = pool.Totals();
  for (const Client& client : pool.clients()) {
    result.written_sample.insert(result.written_sample.end(),
                                 client.written.keys.begin(),
                                 client.written.keys.end());
  }
  return result;
}

CycleResult RunCrashCycle(Testbed& tb, uint64_t seed, uint32_t cycle) {
  CycleResult result;
  Cluster& cluster = tb.cluster();
  const pandora::rdma::NodeId victim = cluster.compute_node_id(0);
  const std::vector<uint16_t> ids = tb.AllocateIds(0, kCoordinators);
  Random rng(StreamSeed(seed, kCrashStream, cycle));
  std::vector<uint64_t> staged;
  // The crashed coordinators stay alive until recovery has run, as a dead
  // process's memory state would.
  std::vector<std::unique_ptr<CrashAt>> hooks;
  std::vector<std::unique_ptr<Coordinator>> coords;
  for (const uint16_t id : ids) {
    hooks.push_back(
        std::make_unique<CrashAt>(pandora::txn::CrashPoint::kAfterValidation));
    coords.push_back(std::make_unique<Coordinator>(
        &cluster, cluster.compute(0), id, TxnConfig(), &tb.gate()));
    coords.back()->set_crash_hook(hooks.back().get());
    ++result.staged;
    const Status status = RunClientTxn(tb, coords.back().get(), &rng, &staged);
    if (status.IsUnavailable()) {
      ++result.in_flight;
    } else if (status.IsAborted() || status.IsBusy()) {
      ++result.staged_aborted;
    } else if (!status.ok()) {
      PANDORA_LOG(kWarning) << "perfbench: staged transaction failed: "
                            << status.ToString();
      result.ok = false;
    }
    // The next coordinator on the node needs the fabric back.
    cluster.fabric().ResumeNode(victim);
  }

  cluster.fabric().HaltNode(victim);
  const uint64_t start = NowNanos();
  const Status status = tb.manager().RecoverComputeFailure(victim, ids);
  result.recovery_ns = NowNanos() - start;
  if (!status.ok()) {
    PANDORA_LOG(kWarning) << "perfbench: recovery failed: "
                          << status.ToString();
    result.ok = false;
  }
  result.stats = tb.manager().last_recovery_stats();
  cluster.RestartComputeNode(victim);
  tb.Retire(ids);
  return result;
}

bool AuditSmallBank(Testbed& tb, std::string* detail) {
  auto& workload =
      static_cast<pandora::workloads::SmallBankWorkload&>(tb.workload());
  int64_t total = 0;
  const Status status = workload.TotalBalance(tb.AuditCoordinator(), &total);
  const int64_t expected =
      workload.ExpectedTotal() + workload.committed_delta();
  if (status.ok() && total == expected) return true;
  *detail = "smallbank total " + std::to_string(total) + " expected " +
            std::to_string(expected) + " (" + status.ToString() + ")";
  return false;
}

bool AuditWrittenKeys(Testbed& tb, const std::vector<uint64_t>& keys,
                      std::string* detail) {
  const pandora::store::TableId table =
      static_cast<pandora::workloads::MicroWorkload&>(tb.workload()).table();
  Coordinator* coord = tb.AuditCoordinator();
  constexpr size_t kPerTxn = 16;
  for (size_t first = 0; first < keys.size(); first += kPerTxn) {
    const size_t last = std::min(keys.size(), first + kPerTxn);
    Status status = coord->Begin();
    for (size_t i = first; status.ok() && i < last; ++i) {
      std::string value;
      status = coord->Read(table, keys[i], &value);
      if (status.ok() && pandora::DecodeFixed64(value.data() + 8) != keys[i]) {
        *detail = "micro key " + std::to_string(keys[i]) +
                  " does not encode itself";
        if (coord->in_txn()) coord->Abort();
        return false;
      }
    }
    if (status.ok()) status = coord->Commit();
    if (!status.ok()) {
      *detail = "micro read-back failed: " + status.ToString();
      if (coord->in_txn()) coord->Abort();
      return false;
    }
  }
  return true;
}

HostPassResult RunHostPass(const WorkloadSpec& spec, uint64_t seed) {
  pandora::cluster::ClusterConfig config = PaperTestbed();
  config.net.one_way_ns = 0;
  config.net.per_byte_ns = 0;
  Testbed tb(config, spec);
  ClientPool pool(tb, seed);
  HostPassResult result;
  const uint64_t start = NowNanos();
  for (uint32_t round = 0; round < kHostPassAttemptsPerClient; ++round) {
    for (Client& client : pool.clients()) {
      RunAttempt(tb, &client);
    }
  }
  result.wall_ns = NowNanos() - start;
  result.totals = pool.Totals();
  return result;
}

}  // namespace perfbench
