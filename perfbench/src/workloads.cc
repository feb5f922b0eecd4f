// The four benchmark workloads and the per-client transaction generator.

#include <memory>

#include "common/coding.h"
#include "perfbench.h"
#include "workloads/micro.h"
#include "workloads/smallbank.h"
#include "workloads/tatp.h"

namespace perfbench {

namespace {

using pandora::workloads::MicroConfig;
using pandora::workloads::MicroWorkload;
using pandora::workloads::SmallBankConfig;
using pandora::workloads::SmallBankWorkload;
using pandora::workloads::TatpConfig;
using pandora::workloads::TatpWorkload;

constexpr uint64_t kMicroKeys = 1'000'000;
constexpr uint64_t kTatpSubscribers = 100'000;

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec micro;
  micro.name = "micro-rw";
  micro.make = [] {
    MicroConfig config;
    config.num_keys = kMicroKeys;
    config.write_percent = 50;
    config.ops_per_txn = 4;
    return std::make_unique<MicroWorkload>(config);
  };
  micro.log_entries = 2;
  micro.log_value_bytes = 40;
  micro.sample_key = [](Random* rng) { return rng->Uniform(kMicroKeys); };
  specs.push_back(micro);

  // SmallBank defaults: 10 k accounts, 90 % of picks on 100 hot accounts.
  WorkloadSpec smallbank;
  smallbank.name = "smallbank-hot";
  smallbank.make = [] {
    return std::make_unique<SmallBankWorkload>(SmallBankConfig());
  };
  smallbank.log_entries = 2;
  smallbank.log_value_bytes = 16;
  smallbank.sample_key = [](Random* rng) {
    const SmallBankConfig config;
    return rng->PercentTrue(config.hot_percent)
               ? rng->Uniform(config.hot_accounts)
               : rng->Uniform(config.num_accounts);
  };
  specs.push_back(smallbank);

  WorkloadSpec tatp;
  tatp.name = "tatp-read";
  tatp.make = [] {
    TatpConfig config;
    config.subscribers = kTatpSubscribers;
    return std::make_unique<TatpWorkload>(config);
  };
  tatp.log_entries = 1;
  tatp.log_value_bytes = 48;
  tatp.sample_key = [](Random* rng) {
    return rng->Uniform(kTatpSubscribers);
  };
  specs.push_back(tatp);

  // Conserving-only SmallBank over uniform accounts: the total balance is
  // invariant under any crash and recovery outcome, and 128 staged
  // transactions rarely collide.
  WorkloadSpec recovery;
  recovery.name = "recovery-128";
  recovery.make = [] {
    SmallBankConfig config;
    config.hot_accounts = 0;
    config.conserving_only = true;
    return std::make_unique<SmallBankWorkload>(config);
  };
  recovery.per_cycle_checks = true;
  recovery.crash_cycles = 300;
  recovery.log_entries = 3;
  recovery.log_value_bytes = 16;
  recovery.sample_key = [](Random* rng) {
    return rng->Uniform(SmallBankConfig().num_accounts);
  };
  specs.push_back(recovery);
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

// micro-rw's transaction: the same draws as MicroWorkload::RunTransaction,
// issued here so the staged write keys are known.
Status MicroTxn(MicroWorkload& workload, pandora::txn::Coordinator* coord,
                Random* rng, std::vector<uint64_t>* staged) {
  const MicroConfig& config = workload.config();
  PANDORA_RETURN_NOT_OK(coord->Begin());
  for (uint32_t op = 0; op < config.ops_per_txn; ++op) {
    const pandora::store::Key key = workload.SampleKey(rng);
    if (rng->PercentTrue(config.write_percent)) {
      char value[40] = {0};
      pandora::EncodeFixed64(value, rng->Next());
      pandora::EncodeFixed64(value + 8, key);
      PANDORA_RETURN_NOT_OK(
          coord->Write(workload.table(), key, pandora::Slice(value, 40)));
      staged->push_back(key);
    } else {
      std::string value;
      PANDORA_RETURN_NOT_OK(coord->Read(workload.table(), key, &value));
    }
  }
  return coord->Commit();
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  // splitmix64 finalizer over the combined words.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               index * 0x94d049bb133111ebULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void WrittenKeys::Add(uint64_t key) {
  if (keys.size() < kCapacity) {
    keys.push_back(key);
  } else {
    keys[next] = key;
    next = (next + 1) % kCapacity;
  }
}

Status RunClientTxn(Testbed& tb, pandora::txn::Coordinator* coord,
                    Random* rng, std::vector<uint64_t>* staged) {
  if (auto* micro = dynamic_cast<MicroWorkload*>(&tb.workload())) {
    return MicroTxn(*micro, coord, rng, staged);
  }
  return tb.workload().RunTransaction(coord, rng);
}

}  // namespace perfbench
