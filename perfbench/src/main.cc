// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every audit passed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench.h"
#include "rdma/network_model.h"
#include "workloads/micro.h"
#include "workloads/smallbank.h"

namespace perfbench {
namespace {

using pandora::workloads::MicroWorkload;
using pandora::workloads::SmallBankWorkload;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strtoul(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds >= 1 &&
         args->seconds <= 60;
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::max<size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Us(double ns) { return ns / 1000.0; }

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Counts failed operations and audits; any failure makes the run
// incorrect.
class Audit {
 public:
  void Check(bool ok, const std::string& what, uint64_t count = 1) {
    if (ok) return;
    failures_ += count;
    std::fprintf(stderr, "perfbench: AUDIT FAILED: %s\n", what.c_str());
  }
  uint64_t failures() const { return failures_; }

 private:
  uint64_t failures_ = 0;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  // Human-readable rows, then the JSON result line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lu, \"failed\": %lu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long>(attempted),
                static_cast<unsigned long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

bool SameRecoveryCounts(const CycleResult& a, const CycleResult& b) {
  return a.staged_aborted == b.staged_aborted &&
         a.in_flight == b.in_flight &&
         a.stats.logged_txns == b.stats.logged_txns &&
         a.stats.log_bytes_read == b.stats.log_bytes_read &&
         a.stats.rolled_forward == b.stats.rolled_forward &&
         a.stats.rolled_back == b.stats.rolled_back &&
         a.stats.locks_released == b.stats.locks_released &&
         a.stats.objects_restored == b.stats.objects_restored;
}

bool SameTxnCounts(const pandora::txn::TxnStats& a,
                   const pandora::txn::TxnStats& b) {
  return a.committed == b.committed && a.aborted == b.aborted &&
         a.lock_conflicts == b.lock_conflicts &&
         a.validation_failures == b.validation_failures &&
         a.execution_rtts == b.execution_rtts &&
         a.commit_rtts == b.commit_rtts && a.doorbells == b.doorbells &&
         a.placement_hits == b.placement_hits &&
         a.placement_misses == b.placement_misses &&
         a.log_records_written == b.log_records_written;
}

// Crash cycles; recovery-128 audits money and stray locks after each.
std::vector<CycleResult> RunCrashPhase(Testbed& tb, uint64_t seed,
                                       Audit* audit) {
  std::vector<CycleResult> results;
  for (uint32_t c = 0; c < tb.spec().crash_cycles; ++c) {
    CycleResult result = RunCrashCycle(tb, seed, c);
    if (tb.spec().per_cycle_checks) {
      const uint64_t stray_before = tb.stray_locks();
      tb.RecycleRetired();
      std::string detail;
      const bool money = AuditSmallBank(tb, &detail);
      if (!money) std::fprintf(stderr, "perfbench: %s\n", detail.c_str());
      result.ok = result.ok && money && tb.stray_locks() == stray_before;
    }
    audit->Check(result.ok, "crash cycle " + std::to_string(c));
    results.push_back(result);
  }
  return results;
}

// Recovery latencies and summed counts over the crash phase.
struct CrashSummary {
  uint64_t staged = 0;
  uint64_t staged_aborted = 0;
  uint64_t in_flight = 0;
  std::vector<double> recovery_us;
  std::vector<double> log_us;
  std::vector<double> fence_notify_us;
  pandora::recovery::RecoveryStats totals;
};

CrashSummary Summarize(const std::vector<CycleResult>& cycles) {
  CrashSummary s;
  for (const CycleResult& c : cycles) {
    s.staged += c.staged;
    s.staged_aborted += c.staged_aborted;
    s.in_flight += c.in_flight;
    const double recovery_ns = static_cast<double>(c.recovery_ns);
    const double log_ns = static_cast<double>(c.stats.log_recovery_ns);
    s.recovery_us.push_back(Us(recovery_ns));
    s.log_us.push_back(Us(log_ns));
    s.fence_notify_us.push_back(Us(recovery_ns - log_ns));
    s.totals.Add(c.stats);
  }
  return s;
}

void AddEndToEnd(const SteadyResult& steady, const CrashSummary& crash,
                 const std::vector<double>& setup_seconds,
                 uint64_t failures, Metrics* m) {
  m->Add("throughput_tps", steady.throughput_tps, "txn/s");
  m->Add("commit_p50_us", Us(steady.latency.PercentileNanos(50)), "us");
  m->Add("commit_p99_us", Us(steady.latency.PercentileNanos(99)), "us");
  // Failed attempts and failed audits (crash cycles among them) count
  // with the aborts.
  m->Add("abort_rate",
         Ratio(static_cast<double>(steady.aborted + failures),
               static_cast<double>(steady.attempts)),
         "ratio");
  m->Add("recovery_p50_us", Percentile(crash.recovery_us, 50), "us");
  m->Add("recovery_p90_us", Percentile(crash.recovery_us, 90), "us");
  m->Add("setup_s", Percentile(setup_seconds, 50), "s");
  m->Add("peak_rss_mb", PeakRssMiB(), "MiB");
}

// The traced run's extra passes and the per-layer metrics.
void AddPerLayer(const WorkloadSpec& spec, uint64_t seed, Testbed& tb,
                 const SteadyResult& steady, const SteadyResult& traced,
                 const std::vector<CycleResult>& cycles,
                 const CrashSummary& crash, Audit* audit, Metrics* m) {
  // Latency-off pass, twice: host CPU per commit, and a determinism check
  // of its counts.
  const HostPassResult host = RunHostPass(spec, seed);
  const HostPassResult again = RunHostPass(spec, seed);
  audit->Check(SameTxnCounts(host.totals, again.totals),
               "latency-off pass counts differ between two runs");
  if (spec.per_cycle_checks) {
    // The first cycles again, on a fresh deployment.
    WorkloadSpec prefix = spec;
    prefix.crash_cycles = std::min<uint32_t>(8, spec.crash_cycles);
    Testbed replay(PaperTestbed(), prefix);
    Audit replay_audit;
    const std::vector<CycleResult> again_cycles =
        RunCrashPhase(replay, seed, &replay_audit);
    bool same = replay_audit.failures() == 0;
    for (size_t c = 0; c < again_cycles.size(); ++c) {
      same = same && SameRecoveryCounts(cycles[c], again_cycles[c]);
    }
    audit->Check(same, "recovery counts differ between two runs");
  }
  const ProbeResult probe = RunProbes(spec);

  const pandora::txn::TxnStats& t = steady.totals;
  const double commits = static_cast<double>(t.committed);
  const double attempts = static_cast<double>(steady.attempts);
  auto per_commit = [commits](uint64_t n) {
    return Ratio(static_cast<double>(n), commits);
  };
  const double host_commits = static_cast<double>(host.totals.committed);
  auto per_host_commit = [host_commits](uint64_t n) {
    return Ratio(static_cast<double>(n), host_commits);
  };
  const double rtt_us = Us(static_cast<double>(
      pandora::rdma::NetworkModel(PaperTestbed().net).RttNanos(8, 8)));
  const double wire_us = per_commit(t.execution_rtts + t.commit_rtts) * rtt_us;
  const double host_us =
      Ratio(Us(static_cast<double>(std::min(host.wall_ns, again.wall_ns))),
            host_commits);
  const double loaded_us = Us(steady.latency.MeanNanos());

  const CallTimers& calls = traced.timers;
  m->Add("txn.read_us.p50", Us(calls.read.PercentileNanos(50)), "us");
  m->Add("txn.read_us.p99", Us(calls.read.PercentileNanos(99)), "us");
  m->Add("txn.write_us.p50", Us(calls.write.PercentileNanos(50)), "us");
  m->Add("txn.write_us.p99", Us(calls.write.PercentileNanos(99)), "us");
  m->Add("txn.commit_us.p50", Us(calls.commit.PercentileNanos(50)), "us");
  m->Add("txn.commit_us.p99", Us(calls.commit.PercentileNanos(99)), "us");
  m->Add("txn.execution_rtts_per_commit", per_commit(t.execution_rtts),
         "rtt/commit");
  m->Add("txn.commit_rtts_per_commit", per_commit(t.commit_rtts),
         "rtt/commit");
  m->Add("txn.doorbells_per_commit", per_commit(t.doorbells),
         "doorbell/commit");
  m->Add("txn.exact.execution_rtts_per_commit",
         per_host_commit(host.totals.execution_rtts), "rtt/commit");
  m->Add("txn.exact.commit_rtts_per_commit",
         per_host_commit(host.totals.commit_rtts), "rtt/commit");
  m->Add("txn.exact.doorbells_per_commit",
         per_host_commit(host.totals.doorbells), "doorbell/commit");
  m->Add("txn.wire_us_per_commit", wire_us, "us/commit");
  m->Add("txn.host_us_per_commit", host_us, "us/commit");
  m->Add("txn.wait_us_per_commit", loaded_us - wire_us - host_us,
         "us/commit");
  m->Add("txn.lock_conflicts_per_attempt",
         Ratio(static_cast<double>(t.lock_conflicts), attempts), "1/attempt");
  m->Add("txn.validation_failures_per_attempt",
         Ratio(static_cast<double>(t.validation_failures), attempts),
         "1/attempt");
  m->Add("cluster.placement_hit_rate",
         Ratio(static_cast<double>(t.placement_hits),
               static_cast<double>(t.placement_hits + t.placement_misses)),
         "ratio");
  m->Add("cluster.replica_set_ns", ProbeReplicaSetNs(tb, seed), "ns");
  m->Add("cluster.load_row_us",
         Ratio(tb.load_seconds() * 1e6, static_cast<double>(tb.rows_loaded())),
         "us");
  m->Add("store.log_writer_ns", probe.log_writer_ns, "ns");
  m->Add("store.log_parse_ns", probe.log_parse_ns, "ns");
  m->Add("rdma.read_host_ns", probe.rdma_read_ns, "ns");
  m->Add("rdma.write_host_ns", probe.rdma_write_ns, "ns");
  m->Add("rdma.cas_host_ns", probe.rdma_cas_ns, "ns");
  m->Add("rdma.chain_host_ns", probe.rdma_chain_ns, "ns");
  m->Add("common.spin_overshoot_ns.p50", probe.spin_overshoot_p50_ns, "ns");
  m->Add("common.spin_overshoot_ns.p99", probe.spin_overshoot_p99_ns, "ns");
  const pandora::FiberScheduler::Stats& f = steady.fiber;
  m->Add("fiber.idle_share",
         std::min(1.0, Ratio(static_cast<double>(f.idle_ns),
                             static_cast<double>(steady.worker_wall_ns))),
         "ratio");
  m->Add("fiber.max_resume_lag_us",
         Us(static_cast<double>(f.max_resume_lag_ns)), "us");
  m->Add("fiber.lag_overruns_per_commit", per_commit(f.lag_budget_overruns),
         "1/commit");
  m->Add("fiber.paced_per_commit", per_commit(f.paced_admissions),
         "1/commit");
  m->Add("fiber.yields_per_commit", per_commit(f.yields), "1/commit");
  const double log_p50 = Percentile(crash.log_us, 50);
  m->Add("recovery.log_us.p50", log_p50, "us");
  m->Add("recovery.fence_notify_us.p50", Percentile(crash.fence_notify_us, 50),
         "us");
  m->Add("recovery.per_coordinator_us", log_p50 / 128.0, "us");
  const pandora::recovery::RecoveryStats& r = crash.totals;
  m->Add("recovery.logged_txns", static_cast<double>(r.logged_txns), "count");
  m->Add("recovery.log_bytes_read", static_cast<double>(r.log_bytes_read),
         "bytes");
  m->Add("recovery.rolled_forward", static_cast<double>(r.rolled_forward),
         "count");
  m->Add("recovery.rolled_back", static_cast<double>(r.rolled_back), "count");
  m->Add("recovery.locks_released", static_cast<double>(r.locks_released),
         "count");
  m->Add("recovery.objects_restored",
         static_cast<double>(r.objects_restored), "count");
  m->Add("trace.overhead_pct",
         100.0 * Ratio(steady.throughput_tps - traced.throughput_tps,
                       steady.throughput_tps),
         "%");
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; choose one of:",
                 args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  Audit audit;

  // Set-up: untraced runs build the deployment three times and report the
  // median; the last one is kept.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_seconds;
  std::unique_ptr<Testbed> tb;
  for (int i = 0; i < setups; ++i) {
    tb.reset();
    tb = std::make_unique<Testbed>(PaperTestbed(), *spec);
    setup_seconds.push_back(tb->setup_seconds());
  }

  // Crash phase first, on the freshly loaded deployment, so its counts
  // depend only on the seed.
  const std::vector<CycleResult> cycles = RunCrashPhase(*tb, args.seed, &audit);
  tb->RecycleRetired();
  audit.Check(tb->stray_locks() == 0,
              std::to_string(tb->stray_locks()) +
                  " locks left owned by recovered coordinators");
  const CrashSummary crash = Summarize(cycles);

  const SteadyResult steady =
      RunSteadyPhase(*tb, args.seed, args.seconds, /*trace_calls=*/false);
  SteadyResult traced;
  if (args.trace) traced = RunSteadyPhase(*tb, args.seed, args.seconds, true);
  const uint64_t steady_failed = steady.failed + traced.failed;
  audit.Check(steady_failed == 0, "steady transactions failed",
              steady_failed);
  audit.Check(steady.totals.crashed + traced.totals.crashed == 0,
              "steady transactions crashed");
  std::string detail;
  if (dynamic_cast<SmallBankWorkload*>(&tb->workload()) != nullptr) {
    audit.Check(AuditSmallBank(*tb, &detail), detail);
  }
  if (dynamic_cast<MicroWorkload*>(&tb->workload()) != nullptr) {
    std::vector<uint64_t> keys = steady.written_sample;
    keys.insert(keys.end(), traced.written_sample.begin(),
                traced.written_sample.end());
    audit.Check(!keys.empty() && AuditWrittenKeys(*tb, keys, &detail),
                detail.empty() ? "no micro key written" : detail);
  }

  std::printf("workload %s seed %lu: %zu crash cycles, %lu staged txns "
              "(%lu aborted at staging, %lu in flight at the crash)\n",
              spec->name.c_str(), static_cast<unsigned long>(args.seed),
              cycles.size(), static_cast<unsigned long>(crash.staged),
              static_cast<unsigned long>(crash.staged_aborted),
              static_cast<unsigned long>(crash.in_flight));
  std::printf("steady: %lu attempts, %lu aborted, %lu commits timed in "
              "%.1f s; commits per 0.5 s window:",
              static_cast<unsigned long>(steady.attempts),
              static_cast<unsigned long>(steady.aborted),
              static_cast<unsigned long>(steady.latency.count()),
              steady.window_seconds);
  for (const uint64_t n : steady.window_commits) {
    std::printf(" %lu", static_cast<unsigned long>(n));
  }
  std::printf("\n");

  Metrics metrics;
  if (args.trace) {
    AddPerLayer(*spec, args.seed, *tb, steady, traced, cycles, crash, &audit,
                &metrics);
  } else {
    AddEndToEnd(steady, crash, setup_seconds, audit.failures(), &metrics);
  }
  const uint64_t attempted = steady.attempts + traced.attempts + crash.staged;
  const bool correct = audit.failures() == 0;
  metrics.Print(correct, attempted, audit.failures());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <1..60> --trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(args);
}
