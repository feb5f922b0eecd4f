#include "bench/bench_util.h"

#include <sys/resource.h>

#include "common/logging.h"

namespace pandora {
namespace bench {

bool FastMode() {
  const char* env = std::getenv("PANDORA_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

uint64_t Scaled(uint64_t normal) {
  return FastMode() ? std::max<uint64_t>(1, normal / 4) : normal;
}

cluster::ClusterConfig PaperTestbed() {
  cluster::ClusterConfig config;
  config.memory_nodes = 2;
  config.compute_nodes = 2;
  config.replication = 2;
  config.net.one_way_ns = 1500;   // Low-µs RDMA round trips.
  config.net.per_byte_ns = 0.08;  // 100 Gbps.
  // 64 x 2 KiB slots per coordinator: room for TPC-C's ~27-object
  // write-sets in every logging scheme (per-object records, lock intents,
  // and Pandora's fragmented coordinator records).
  config.log.slots_per_coordinator = 64;
  config.log.slot_bytes = 2048;
  config.log.max_coordinators = 1100;
  return config;
}

recovery::FdConfig PaperFd() {
  recovery::FdConfig fd;
  fd.timeout_us = 5000;  // The paper's 5 ms timeout.
  fd.heartbeat_period_us = 1000;
  fd.poll_period_us = 500;
  return fd;
}

recovery::FdConfig BenchFd() {
  recovery::FdConfig fd;
  fd.timeout_us = 100'000;
  fd.heartbeat_period_us = 10'000;
  fd.poll_period_us = 10'000;
  return fd;
}

Testbed::Testbed(const cluster::ClusterConfig& cluster_config,
                 const recovery::RecoveryManagerConfig& rm_config,
                 workloads::Workload* workload, bool start_fd)
    : workload_(workload) {
  cluster_ = std::make_unique<cluster::Cluster>(cluster_config);
  PANDORA_CHECK(workload_->Setup(cluster_.get()).ok());
  manager_ = std::make_unique<recovery::RecoveryManager>(cluster_.get(),
                                                         rm_config, &gate_);
  if (start_fd) manager_->Start();
}

Testbed::~Testbed() { manager_->Stop(); }

std::unique_ptr<workloads::Driver> Testbed::MakeDriver(
    const workloads::DriverConfig& config) {
  return std::make_unique<workloads::Driver>(
      cluster_.get(), manager_.get(), &gate_, workload_, config);
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==============================================="
              "=============================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================"
              "============================\n");
}

void PrintTimeline(const std::string& label,
                   const std::vector<double>& mtps, uint64_t bucket_ms) {
  std::printf("%-28s", (label + " (MTps):").c_str());
  for (size_t i = 0; i < mtps.size(); ++i) {
    std::printf(" %.4f", mtps[i]);
  }
  std::printf("   [bucket=%lums]\n",
              static_cast<unsigned long>(bucket_ms));
}

void PrintRow(const std::string& label, double value,
              const std::string& unit) {
  std::printf("%-44s %12.4f %s\n", label.c_str(), value, unit.c_str());
}

void BenchJson::Set(const std::string& key, double value) {
  for (auto& metric : metrics_) {
    if (metric.key == key) {
      metric.number = value;
      metric.is_text = false;
      return;
    }
  }
  metrics_.push_back({key, value, "", false});
}

void BenchJson::SetText(const std::string& key, const std::string& value) {
  for (auto& metric : metrics_) {
    if (metric.key == key) {
      metric.text = value;
      metric.is_text = true;
      return;
    }
  }
  metrics_.push_back({key, 0, value, true});
}

std::string GitSha() {
  const char* env = std::getenv("PANDORA_GIT_SHA");
  if (env != nullptr && env[0] != '\0') return env;
  std::FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[64] = {0};
    const bool read = std::fgets(buf, sizeof(buf), pipe) != nullptr;
    ::pclose(pipe);
    if (read) {
      std::string sha(buf);
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
      if (!sha.empty()) return sha;
    }
  }
  return "unknown";
}

namespace {

// The process's peak resident set size so far, in MiB.
double PeakRssMiB() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace

std::string BenchJson::Write() const {
  // Every artifact is traceable to a commit and states the memory it
  // took: emitters that did not set git_sha or peak_rss_mb themselves get
  // them stamped here.
  bool have_sha = false;
  bool have_rss = false;
  for (const auto& metric : metrics_) {
    if (metric.key == "git_sha") have_sha = true;
    if (metric.key == "peak_rss_mb") have_rss = true;
  }
  std::string path;
  const char* dir = std::getenv("PANDORA_BENCH_JSON_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    path = std::string(dir) + "/";
  }
  path += "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    PANDORA_LOG(kWarning) << "bench: cannot write " << path;
    return "";
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\"", name_.c_str());
  if (!have_sha) {
    std::fprintf(f, ",\n  \"git_sha\": \"%s\"", GitSha().c_str());
  }
  if (!have_rss) {
    std::fprintf(f, ",\n  \"peak_rss_mb\": %.1f", PeakRssMiB());
  }
  for (const auto& metric : metrics_) {
    if (metric.is_text) {
      std::fprintf(f, ",\n  \"%s\": \"%s\"", metric.key.c_str(),
                   metric.text.c_str());
    } else {
      std::fprintf(f, ",\n  \"%s\": %.10g", metric.key.c_str(),
                   metric.number);
    }
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("json: %s\n", path.c_str());
  return path;
}

void AddDriverMetrics(BenchJson* json, const std::string& prefix,
                      const workloads::DriverResult& result) {
  const std::string p = prefix.empty() ? "" : prefix + ".";
  const double committed =
      result.totals.committed > 0
          ? static_cast<double>(result.totals.committed)
          : 1.0;
  json->Set(p + "committed", static_cast<double>(result.committed));
  json->Set(p + "aborted", static_cast<double>(result.aborted));
  json->Set(p + "mtps", result.mtps);
  json->Set(p + "p50_us",
            static_cast<double>(result.latency_p50_ns) / 1000.0);
  json->Set(p + "p95_us",
            static_cast<double>(result.latency_p95_ns) / 1000.0);
  json->Set(p + "p99_us",
            static_cast<double>(result.latency_p99_ns) / 1000.0);
  json->Set(p + "mean_us", result.commit_latency.MeanNanos() / 1000.0);
  json->Set(p + "execution_rtts",
            static_cast<double>(result.totals.execution_rtts));
  json->Set(p + "commit_rtts",
            static_cast<double>(result.totals.commit_rtts));
  json->Set(p + "doorbells", static_cast<double>(result.totals.doorbells));
  json->Set(p + "execution_rtts_per_committed",
            static_cast<double>(result.totals.execution_rtts) / committed);
  json->Set(p + "commit_rtts_per_committed",
            static_cast<double>(result.totals.commit_rtts) / committed);
  json->Set(p + "doorbells_per_committed",
            static_cast<double>(result.totals.doorbells) / committed);
  json->Set(p + "fiber_yields",
            static_cast<double>(result.fiber_yields));
  json->Set(p + "overlap_factor", result.overlap_factor);
  // Tail-fairness metrics: the fibers8 latency gate is expressed as
  // p99/p50, and the scheduler's own starvation counters explain a miss.
  json->Set(p + "p99_over_p50",
            result.latency_p50_ns > 0
                ? static_cast<double>(result.latency_p99_ns) /
                      static_cast<double>(result.latency_p50_ns)
                : 0.0);
  json->Set(p + "max_resume_lag_us",
            static_cast<double>(result.fiber_max_resume_lag_ns) / 1000.0);
  json->Set(p + "paced_admissions",
            static_cast<double>(result.fiber_paced_admissions));
  // Placement fast path: fraction of placement lookups answered by the
  // per-coordinator cache instead of a ring walk.
  const double placement_lookups =
      static_cast<double>(result.totals.placement_hits) +
      static_cast<double>(result.totals.placement_misses);
  json->Set(p + "placement_hit_rate",
            placement_lookups > 0
                ? static_cast<double>(result.totals.placement_hits) /
                      placement_lookups
                : 0.0);
}

void PrintRttRows(const std::string& label,
                  const workloads::DriverResult& result) {
  const double committed =
      result.totals.committed > 0
          ? static_cast<double>(result.totals.committed)
          : 1.0;
  PrintRow(label + " execution RTTs/txn",
           static_cast<double>(result.totals.execution_rtts) / committed,
           "RTTs");
  PrintRow(label + " commit RTTs/txn",
           static_cast<double>(result.totals.commit_rtts) / committed,
           "RTTs");
  PrintRow(label + " doorbells/txn",
           static_cast<double>(result.totals.doorbells) / committed,
           "doorbells");
}

void PrintLatencyRows(const std::string& label,
                      const workloads::DriverResult& result) {
  PrintRow(label + " commit latency p50",
           static_cast<double>(result.latency_p50_ns) / 1000.0, "us");
  PrintRow(label + " commit latency p95",
           static_cast<double>(result.latency_p95_ns) / 1000.0, "us");
  PrintRow(label + " commit latency p99",
           static_cast<double>(result.latency_p99_ns) / 1000.0, "us");
}

}  // namespace bench
}  // namespace pandora
