#include "litmus/harness.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "cluster/cluster.h"
#include "common/checksum.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/fiber.h"
#include "common/logging.h"
#include "recovery/recovery_manager.h"
#include "txn/coordinator.h"

namespace pandora {
namespace litmus {

namespace {

// Keys per iteration (upper bound on litmus variables).
constexpr uint64_t kVarStride = 16;

store::Key VarKey(int iteration, Var var) {
  return static_cast<store::Key>(iteration) * kVarStride + var;
}

// A lockstep turn: a zero-time wait, so every other fiber already due runs
// before this one resumes (equal deadlines dispatch FIFO).
void PassTurn() { SpinForNanos(0); }

// Executes one litmus program on a coordinator; fills the observation.
void ExecuteProgram(txn::Coordinator* coord, const LitmusTxn& program,
                    int iteration, store::TableId table,
                    TxnObservation* out) {
  // Outcome is keyed off the client acks (Cor3), not local return codes.
  int ack = -1;  // -1 none, 0 abort-ack, 1 commit-ack
  coord->set_ack_callback(
      [&ack](uint64_t, bool committed) { ack = committed ? 1 : 0; });

  out->reads.clear();
  Status status = coord->Begin();
  if (!status.ok()) {
    // Never started: no effects are possible.
    out->outcome = TxnObservation::Outcome::kAborted;
    return;
  }
  for (size_t i = 0; status.ok() && i < program.ops.size(); ++i) {
    const LitmusOp& op = program.ops[i];
    char buf[8];
    switch (op.kind) {
      case LitmusOp::Kind::kLoad: {
        std::string value;
        status = coord->Read(table, VarKey(iteration, op.src), &value);
        if (status.ok()) {
          out->reads.push_back(DecodeFixed64(value.data()));
        } else if (status.IsNotFound()) {
          out->reads.push_back(std::nullopt);
          status = Status::OK();
        }
        break;
      }
      case LitmusOp::Kind::kStoreConst:
        EncodeFixed64(buf, op.value);
        status = coord->Write(table, VarKey(iteration, op.dst),
                              Slice(buf, 8));
        break;
      case LitmusOp::Kind::kStoreRegPlus: {
        // Registers live in the reads vector via the preceding kLoad ops;
        // recompute from the recorded loads.
        uint64_t reg_value = 0;
        size_t seen = 0;
        for (size_t j = 0; j < i; ++j) {
          if (program.ops[j].kind != LitmusOp::Kind::kLoad) continue;
          if (program.ops[j].reg == op.reg) {
            reg_value = out->reads[seen].value_or(0);
          }
          ++seen;
        }
        EncodeFixed64(buf, reg_value + op.value);
        status = coord->Write(table, VarKey(iteration, op.dst),
                              Slice(buf, 8));
        break;
      }
      case LitmusOp::Kind::kInsertConst:
        EncodeFixed64(buf, op.value);
        status = coord->Insert(table, VarKey(iteration, op.dst),
                               Slice(buf, 8));
        break;
      case LitmusOp::Kind::kDelete:
        status = coord->Delete(table, VarKey(iteration, op.dst));
        if (status.IsNotFound()) status = Status::OK();
        break;
    }
  }
  if (status.ok()) {
    status = coord->Commit();
  } else if (coord->in_txn() && !status.IsUnavailable()) {
    coord->Abort();
  }

  switch (ack) {
    case 1:
      out->outcome = TxnObservation::Outcome::kCommitted;
      break;
    case 0:
      out->outcome = TxnObservation::Outcome::kAborted;
      break;
    default:
      // No ack: either a crash (unknown) or an abort that crashed before
      // notifying. Both are "unknown" to the client.
      out->outcome = TxnObservation::Outcome::kUnknown;
      break;
  }
}

// The slot `key` occupies in one replica's table region, found with the
// store's linear probe (a control-path scan: this is the checker, not the
// protocol); for an absent key, the first free slot, which an insert
// will claim.
uint64_t ProbeSlot(const store::TableLayout& layout,
                   const rdma::MemoryRegion& region, store::Key key) {
  uint64_t slot = layout.HomeSlot(HashKey(key));
  for (uint64_t scanned = 0; scanned < layout.capacity(); ++scanned) {
    const uint64_t slot_key =
        DecodeFixed64(region.base() + layout.KeyOffset(slot));
    if (slot_key == key || slot_key == store::kFreeKey) break;
    slot = layout.NextSlot(slot);
  }
  return slot;
}

// Memory-level audit run after each iteration has quiesced: every alive
// replica of every litmus variable must agree on visibility, version and
// value, and no lock may be held except stray locks of failed
// coordinators. Replica divergence is how double-lock-holder bugs (e.g.
// Complicit Aborts) manifest even when the final primary values look
// plausible.
bool AuditReplicas(cluster::Cluster* cluster, store::TableId table,
                   int iteration, size_t num_vars,
                   const FailedIdBitset& failed_ids, std::string* error) {
  const cluster::TableInfo& info = cluster->catalog().table(table);
  for (Var v = 0; v < num_vars; ++v) {
    const store::Key key = VarKey(iteration, v);
    bool have_reference = false;
    bool ref_visible = false;
    uint64_t ref_version = 0;
    uint64_t ref_value = 0;
    for (const rdma::NodeId node : cluster->ReplicaSetFor(table, key)) {
      if (!cluster->membership().IsMemoryAlive(node)) continue;
      rdma::ProtectionDomain* pd = cluster->fabric().GetMemoryNode(node);
      rdma::MemoryRegion* region = pd->GetRegion(info.region_rkeys[node]);
      const uint64_t slot = ProbeSlot(info.layout, *region, key);
      const bool found =
          DecodeFixed64(region->base() + info.layout.KeyOffset(slot)) == key;
      bool visible = false;
      uint64_t version = 0;
      uint64_t value = 0;
      if (found) {
        const store::LockWord lock =
            DecodeFixed64(region->base() + info.layout.LockOffset(slot));
        const store::VersionWord vw =
            DecodeFixed64(region->base() + info.layout.VersionOffset(slot));
        if (store::LockHeld(lock) &&
            !failed_ids.Test(store::LockOwner(lock))) {
          *error = "audit: var " + std::to_string(v) + " on node " +
                   std::to_string(node) + " locked by live coordinator " +
                   std::to_string(store::LockOwner(lock)) +
                   " after quiescence";
          return false;
        }
        visible = store::ObjectVisible(vw);
        version = store::VersionOf(vw);
        value =
            DecodeFixed64(region->base() + info.layout.ValueOffset(slot));
      }
      if (!visible) version = value = 0;  // Absent/invisible normalize.
      if (!have_reference) {
        have_reference = true;
        ref_visible = visible;
        ref_version = version;
        ref_value = value;
      } else if (visible != ref_visible || version != ref_version ||
                 value != ref_value) {
        *error = "audit: var " + std::to_string(v) +
                 " replicas diverge (visible " +
                 std::to_string(ref_visible) + "/" +
                 std::to_string(visible) + ", version " +
                 std::to_string(ref_version) + "/" +
                 std::to_string(version) + ", value " +
                 std::to_string(ref_value) + "/" + std::to_string(value) +
                 ")";
        return false;
      }
    }
  }
  return true;
}

// Schedule-armed migration fault injector: counts every consulted
// ReconfigCrashPoint (coverage), hands the turn to the slots there, so the
// migration's steps interleave with theirs at fixed points, optionally
// abandons the migration at one scheduled point, and optionally halts the
// join target at the first kMidRangeCopy visit (the bulk-copy window),
// forcing the rollback path.
class ScheduledReconfigInjector : public cluster::ReconfigFaultInjector {
 public:
  ScheduledReconfigInjector(int crash_point, bool kill_target,
                            cluster::Cluster* cluster,
                            rdma::NodeId target)
      : crash_point_(crash_point),
        kill_target_(kill_target),
        cluster_(cluster),
        target_(target) {}

  bool MaybeCrash(cluster::ReconfigCrashPoint point) override {
    const int p = static_cast<int>(point);
    visits_[p]++;
    PassTurn();
    if (kill_target_ && !killed_ &&
        point == cluster::ReconfigCrashPoint::kMidRangeCopy) {
      killed_ = true;
      cluster_->fabric().HaltNode(target_);
    }
    if (p == crash_point_ && !fired_) {
      fired_ = true;
      return true;
    }
    return false;
  }

  bool fired() const { return fired_; }
  bool killed() const { return killed_; }
  int visits(int point) const { return visits_[point]; }

 private:
  const int crash_point_;  // -1 = never crash the driver
  const bool kill_target_;
  cluster::Cluster* cluster_;
  const rdma::NodeId target_;
  int visits_[cluster::kNumReconfigCrashPoints] = {0};
  bool fired_ = false;
  bool killed_ = false;
};

// Outcome of executing one schedule (one litmus iteration).
struct IterationResult {
  int iteration = 0;
  bool violation = false;
  std::string explanation;  // set when violation
  // What actually happened, as a replayable schedule (crash directives
  // resolved to the precise point/run/occurrence that fired).
  CrashSchedule executed;
  // An armed crash directive never fired: the execution diverged from the
  // profiled path and the schedule proved nothing.
  bool noop = false;
  // Crash points visited, per [slot][run], from the recorder hooks.
  std::vector<std::vector<std::vector<txn::CrashPoint>>> visits;
  // Verb-controller harvest (iterations that installed one): the applied
  // mutating-token stream, which slot a verb-kill halted (-1 none),
  // whether an enforced order proved unrealizable, and how many injected
  // bugs the iteration's coordinators actually exercised.
  std::vector<VerbToken> applied_verbs;
  int verb_killed_slot = -1;
  bool verb_diverged = false;
  uint64_t bug_injections = 0;
};

// Per-spec deployment: one simulated DKVS shared by every iteration of
// every schedule (including minimizer replays, which consume fresh
// iteration indices so they never collide with recorded state).
struct SpecRun {
  const HarnessConfig& config;
  const LitmusSpec& spec;
  const uint32_t num_txns;
  const uint32_t compute_nodes;
  const int runs;
  const int max_iterations;
  cluster::Cluster cluster;
  store::TableId table = 0;
  txn::SystemGate gate;
  std::unique_ptr<recovery::RecoveryManager> manager;
  LitmusSpec expanded;
  std::unique_ptr<SerializabilityChecker> checker;
  int next_iteration = 0;
  /// Online-reconfiguration machinery (standby deployments only): the
  /// fenced migrator, a deliberately naive one (epoch fence off, no
  /// quiesce hooks) for the teeth schedules, and the standby's node id.
  std::unique_ptr<cluster::ReconfigManager> migrator;
  std::unique_ptr<cluster::ReconfigManager> migrator_unfenced;
  rdma::NodeId standby_node = rdma::kInvalidNodeId;

  static cluster::ClusterConfig MakeClusterConfig(
      const HarnessConfig& config, uint32_t compute_nodes,
      int max_iterations) {
    cluster::ClusterConfig cluster_config;
    cluster_config.memory_nodes = config.memory_nodes;
    // Reconfiguration runs need a standby memory server to join/drain
    // (also when only the replayed schedule carries the migration).
    cluster_config.standby_memory_nodes =
        (config.reconfig != ReconfigKind::kNone ||
         config.replay.reconfig != ReconfigKind::kNone)
            ? 1
            : 0;
    cluster_config.compute_nodes = compute_nodes;
    cluster_config.replication = config.replication;
    // Zero latency: a verb never waits, so only the schedule decides
    // which fiber runs next.
    cluster_config.net.one_way_ns = 0;
    cluster_config.net.per_byte_ns = 0;
    cluster_config.log.slot_bytes = 512;
    cluster_config.log.slots_per_coordinator = 8;
    cluster_config.log.max_coordinators = static_cast<uint32_t>(
        (max_iterations + 2) * compute_nodes + 16);
    return cluster_config;
  }

  // `runs_override` > 0 replaces config.runs_per_txn (kVerbExhaustive
  // explores both 1 and the configured count). `phase_budget_multiplier`
  // scales the iteration budget for policies that run several exploration
  // phases against the same deployment.
  SpecRun(const HarnessConfig& config_in, const LitmusSpec& spec_in,
          int runs_override = 0, int phase_budget_multiplier = 1)
      : config(config_in),
        spec(spec_in),
        num_txns(static_cast<uint32_t>(spec_in.txns.size())),
        compute_nodes(num_txns + 1),  // +1 observer node
        runs(runs_override > 0 ? runs_override
                               : std::max(1, config_in.runs_per_txn)),
        // Iteration budget plus minimizer replays (at most 10 reported
        // violations are shrunk) plus slack.
        max_iterations(phase_budget_multiplier * config_in.iterations +
                       10 * (std::max(0, config_in.minimize_budget) + 1) +
                       8),
        cluster(MakeClusterConfig(config_in, num_txns + 1,
                                  max_iterations)) {
    table = cluster.CreateTable(
        "litmus", /*value_size=*/8,
        static_cast<uint64_t>(max_iterations + 1) * kVarStride);

    // The detector is never started: the harness declares failures
    // itself (RunIteration), at a fixed point of every schedule.
    recovery::RecoveryManagerConfig rm_config;
    rm_config.mode = config.txn.mode;
    manager =
        std::make_unique<recovery::RecoveryManager>(&cluster, rm_config,
                                                    &gate);

    if (cluster.config().standby_memory_nodes > 0) {
      standby_node = cluster.memory_node_id(config.memory_nodes);
      // Few ranges keep the per-migration kMidRangeCopy visit count (and
      // thus the lockstep-profiled occurrence space) small; a short
      // verdict timeout keeps source-death rollbacks fast.
      cluster::ReconfigOptions fenced = manager->MakeReconfigOptions();
      fenced.ranges = 8;
      fenced.verdict_timeout_us = 20'000;
      migrator =
          std::make_unique<cluster::ReconfigManager>(&cluster, fenced);
      cluster::ReconfigOptions naive;
      naive.ranges = 8;
      naive.epoch_fence = false;
      naive.verdict_timeout_us = 20'000;
      migrator_unfenced =
          std::make_unique<cluster::ReconfigManager>(&cluster, naive);
    }

    // The checker sees one logical transaction per *run*: expand the
    // spec. Observation order is run-major (run r of txn t sits at index
    // r * num_txns + t).
    expanded = spec;
    expanded.txns.clear();
    for (int r = 0; r < runs; ++r) {
      for (const LitmusTxn& txn : spec.txns) {
        LitmusTxn copy = txn;
        copy.name = txn.name + "#" + std::to_string(r + 1);
        expanded.txns.push_back(std::move(copy));
      }
    }
    checker = std::make_unique<SerializabilityChecker>(expanded);
  }

  // A fresh coordinator id on compute node `index`, with the node's
  // failed-ids set seeded from the master copy. Ids come straight from the
  // detector's allocator: RecoveryManager::RegisterComputeNode would also
  // start a heartbeat thread per node, which nothing here reads.
  uint16_t NewCoordinatorId(uint32_t index) {
    recovery::FailureDetector& fd = manager->fd();
    std::vector<uint16_t> ids;
    PANDORA_CHECK(
        fd.RegisterComputeNode(cluster.compute_node_id(index), 1, &ids).ok());
    cluster.compute(index)->failed_ids().CopyFrom(fd.failed_ids());
    return ids[0];
  }

  // Executes `schedule` as one litmus iteration against fresh keys. With
  // `record` set, aggregate counters (iterations, outcomes, coverage,
  // bug_injections) accumulate into `report`; minimizer probes pass
  // record=false so they do not distort the run's statistics.
  void RunIteration(const CrashSchedule& schedule, LitmusReport* report,
                    bool record, IterationResult* out);
};

void SpecRun::RunIteration(const CrashSchedule& schedule,
                           LitmusReport* report, bool record,
                           IterationResult* out) {
  PANDORA_CHECK(next_iteration < max_iterations);
  // Key-space salt: the seed shifts every iteration's variable keys to a
  // different ring position, so repeated single-schedule runs (e.g. the
  // naive-cutover teeth hunt) can re-roll WHICH variables a join actually
  // moves by varying the seed. Within one deployment the salt is constant,
  // so iterations stay disjoint and replays stay deterministic.
  const int iteration =
      next_iteration++ +
      static_cast<int>(config.seed % 4096) * (max_iterations + 2);
  out->iteration = iteration;
  out->executed.sync = schedule.sync;
  out->executed.runs = runs;

  // Coordinator config for this iteration; fence-off (teeth) schedules
  // disable the coordinators' placement-epoch fence along with the
  // migrator's, running the deliberately naive cutover end to end.
  txn::TxnConfig txn_config = config.txn;
  if (schedule.reconfig_fence_off) txn_config.reconfig_fence = false;

  // Lazily preload this iteration's copy of the initialized variables.
  for (Var v = 0; v < spec.initial.size(); ++v) {
    if (!spec.initial[v].has_value()) continue;
    char buf[8];
    EncodeFixed64(buf, *spec.initial[v]);
    PANDORA_CHECK(
        cluster.LoadRow(table, VarKey(iteration, v), Slice(buf, 8)).ok());
  }

  // Fresh coordinators (fresh ids) per iteration; txn t runs on compute
  // node t, the observer on the last node. Every coordinator gets a
  // (never-firing unless armed) recorder hook; the hook changes no verb
  // the protocol posts, so the iteration runs the benches' commit path,
  // and the crash points between a doorbell group's verbs make every
  // partial group a reachable schedule.
  std::vector<std::unique_ptr<txn::Coordinator>> coords;
  std::vector<std::unique_ptr<txn::ScheduleRecorderHook>> hooks;
  for (uint32_t t = 0; t < num_txns; ++t) {
    coords.push_back(std::make_unique<txn::Coordinator>(
        &cluster, cluster.compute(t), NewCoordinatorId(t), txn_config,
        &gate));
    hooks.push_back(std::make_unique<txn::ScheduleRecorderHook>());
    if (schedule.sync == SyncMode::kLockstep) {
      hooks.back()->set_point_observer(
          [](txn::CrashPoint, int, int) { PassTurn(); });
    }
    coords.back()->set_crash_hook(hooks.back().get());
  }
  for (const CrashDirective& crash : schedule.crashes) {
    if (crash.slot < 0 || crash.slot >= static_cast<int>(num_txns)) {
      continue;
    }
    hooks[crash.slot]->ArmCrashAt(crash.run, crash.point, crash.occurrence);
  }

  // Verb-level scheduling: install a fabric hook that records the
  // iteration's mutating-verb stream and/or enforces a candidate verb
  // order (and verb-kill) from the schedule. Unit identity is the litmus
  // variable: its hash-table slot is predicted on every replica with the
  // same linear probe the store uses.
  const bool want_verbs = schedule.record_verbs ||
                          !schedule.verb_order.empty() ||
                          schedule.has_verb_kill;
  std::unique_ptr<VerbOrderController> verb_ctl;
  if (want_verbs) {
    VerbOrderController::Options opts;
    opts.fabric = &cluster.fabric();
    for (uint32_t t = 0; t < num_txns; ++t) {
      opts.slot_nodes.push_back(cluster.compute_node_id(t));
    }
    const cluster::TableInfo& info = cluster.catalog().table(table);
    for (Var v = 0; v < spec.initial.size(); ++v) {
      const store::Key key = VarKey(iteration, v);
      for (const rdma::NodeId node : cluster.ReplicaSetFor(table, key)) {
        const rdma::RKey rkey = info.region_rkeys[node];
        const uint64_t slot = ProbeSlot(
            info.layout,
            *cluster.fabric().GetMemoryNode(node)->GetRegion(rkey), key);
        VerbOrderController::Options::UnitRange range;
        range.unit = static_cast<int>(v);
        range.node = node;
        range.rkey = rkey;
        range.lo = info.layout.SlotOffset(slot);
        range.hi = range.lo + info.layout.slot_size();
        opts.unit_ranges.push_back(range);
      }
    }
    opts.order = schedule.verb_order;
    opts.has_kill = schedule.has_verb_kill;
    opts.kill = schedule.verb_kill;
    verb_ctl = std::make_unique<VerbOrderController>(std::move(opts));
    cluster.fabric().set_verb_hook(verb_ctl.get());
  }

  // Online reconfiguration racing this iteration's transactions: a join
  // (or, after a quiet pre-join, a drain) of the standby memory server,
  // driven from its own fiber, with a schedule-armed fault injector
  // counting migration-point coverage.
  const ReconfigKind reconfig_kind =
      migrator != nullptr ? schedule.reconfig : ReconfigKind::kNone;
  cluster::ReconfigManager* migration_mgr = nullptr;
  std::unique_ptr<ScheduledReconfigInjector> reconfig_injector;
  uint64_t rollbacks_before = 0;
  if (reconfig_kind != ReconfigKind::kNone) {
    migration_mgr = schedule.reconfig_fence_off ? migrator_unfenced.get()
                                                : migrator.get();
    if (reconfig_kind == ReconfigKind::kDrain) {
      // The drain race needs the standby in the ring first: join it
      // quietly (fenced, no faults) before the transactions start.
      const Status pre = migrator->JoinMemoryNode(standby_node);
      if (!pre.ok()) {
        PANDORA_LOG(kWarning)
            << "litmus: pre-join for drain schedule failed: "
            << pre.ToString();
      }
    }
    reconfig_injector = std::make_unique<ScheduledReconfigInjector>(
        schedule.reconfig_crash,
        schedule.reconfig_kill_target &&
            reconfig_kind == ReconfigKind::kJoin,
        &cluster, standby_node);
    rollbacks_before = migration_mgr->stats().rollbacks;
    migration_mgr->set_fault_injector(reconfig_injector.get());
  } else if (schedule.reconfig != ReconfigKind::kNone) {
    out->noop = true;  // No standby deployed: the schedule cannot run.
  }

  // Compound: a one-shot recovery-coordinator death; DeclareComputeFailure
  // restarts the RC and re-runs recovery (idempotent, §3.2.3).
  int rc_deaths = 0;
  if (schedule.rc_fault) {
    manager->rc().set_step_fault_hook(
        [&rc_deaths] { return rc_deaths++ == 0; });
  }

  // Run the spec's transactions as fibers of one logical-clock scheduler
  // on this thread, in slot order, with the migration spawned last; each
  // slot repeats its program `runs` times. A slot's fiber ends with its
  // program, which takes it out of the lockstep rotation.
  std::vector<TxnObservation> observations(
      static_cast<size_t>(runs) * num_txns);
  FiberScheduler::Options fiber_options;
  fiber_options.logical_clock = true;
  FiberScheduler scheduler(fiber_options);
  for (uint32_t t = 0; t < num_txns; ++t) {
    scheduler.Spawn([&, t] {
      for (int r = 0; r < runs; ++r) {
        hooks[t]->BeginRun(r);
        if (verb_ctl != nullptr) verb_ctl->BeginRun(static_cast<int>(t), r);
        ExecuteProgram(coords[t].get(), spec.txns[t], iteration, table,
                       &observations[static_cast<size_t>(r) * num_txns +
                                     t]);
      }
      if (verb_ctl != nullptr) verb_ctl->Retire(static_cast<int>(t));
    });
  }
  Status migration_status;
  if (migration_mgr != nullptr) {
    scheduler.Spawn([&] {
      migration_status =
          reconfig_kind == ReconfigKind::kJoin
              ? migration_mgr->JoinMemoryNode(standby_node)
              : migration_mgr->DrainMemoryNode(standby_node);
    });
  }
  scheduler.Run();

  // Migration harvest: record the executed reconfiguration (resolved
  // crash / kill), coverage counters, and injection no-ops.
  if (migration_mgr != nullptr) {
    migration_mgr->set_fault_injector(nullptr);
    out->executed.reconfig = reconfig_kind;
    out->executed.reconfig_fence_off = schedule.reconfig_fence_off;
    if (record) {
      report->reconfigs_run++;
      for (int p = 0;
           p < static_cast<int>(cluster::kNumReconfigCrashPoints); ++p) {
        report->reconfig_point_visits[p] += reconfig_injector->visits(p);
      }
      report->reconfig_rollbacks += static_cast<int>(
          migration_mgr->stats().rollbacks - rollbacks_before);
    }
    if (schedule.reconfig_crash >= 0) {
      if (reconfig_injector->fired()) {
        out->executed.reconfig_crash = schedule.reconfig_crash;
        if (record) {
          report->reconfig_crashes_injected++;
          report->reconfig_point_crashes[schedule.reconfig_crash]++;
        }
      } else {
        out->noop = true;  // Migration never reached the scheduled point.
      }
    }
    if (schedule.reconfig_kill_target) {
      if (reconfig_injector->killed()) {
        out->executed.reconfig_kill_target = true;
        if (record) report->reconfig_kills_injected++;
      } else {
        out->noop = true;  // The kill window was never reached.
      }
    }
    if (!migration_status.ok() && schedule.reconfig_crash < 0 &&
        !schedule.reconfig_kill_target) {
      PANDORA_LOG(kInfo) << "litmus: scheduled migration rolled back: "
                         << migration_status.ToString();
    }
  }

  // Verb-controller harvest: an order that has not fully landed now that
  // the slots stopped is unrealizable; uninstall the hook before recovery
  // traffic runs. The applied stream becomes the executed trace's verb
  // order, so a violating iteration replays with its full window
  // enforced.
  if (verb_ctl != nullptr) {
    verb_ctl->ReleaseAll();
    cluster.fabric().set_verb_hook(nullptr);
    out->applied_verbs = verb_ctl->applied();
    out->verb_killed_slot = verb_ctl->killed_slot();
    out->verb_diverged = verb_ctl->diverged();
    out->executed.verb_order = out->applied_verbs;
    if (schedule.has_verb_kill) {
      if (out->verb_killed_slot >= 0) {
        out->executed.has_verb_kill = true;
        out->executed.verb_kill = schedule.verb_kill;
        if (record) report->verb_kills_injected++;
      } else {
        out->noop = true;  // Planned kill verb was never issued.
      }
    }
    if (out->verb_diverged) {
      out->noop = true;  // Enforced order proved unrealizable.
      if (record) report->verb_schedules_diverged++;
    }
  }

  // Harvest the recorders: visited-point traces, resolved crashes,
  // injection no-ops.
  out->visits.resize(num_txns);
  bool any_fired = false;
  for (uint32_t t = 0; t < num_txns; ++t) {
    const txn::ScheduleRecorderHook& hook = *hooks[t];
    auto& slot_visits = out->visits[t];
    slot_visits.resize(static_cast<size_t>(hook.runs_recorded()));
    for (int r = 0; r < hook.runs_recorded(); ++r) {
      slot_visits[static_cast<size_t>(r)] = hook.visited(r);
      if (record) {
        for (const txn::CrashPoint point : hook.visited(r)) {
          report->point_visits[static_cast<int>(point)]++;
        }
      }
    }
    if (hook.armed()) {
      if (hook.fired()) {
        any_fired = true;
        CrashDirective resolved;
        resolved.slot = static_cast<int>(t);
        resolved.run = hook.fired_run();
        resolved.point = hook.fired_point();
        resolved.occurrence = hook.fired_occurrence();
        out->executed.crashes.push_back(resolved);
        if (record) {
          report->crashes_injected++;
          report->point_crashes[static_cast<int>(hook.fired_point())]++;
        }
      } else {
        out->noop = true;
      }
    }
  }

  // Compound: fail a memory node right after the coordinator crash, so
  // recovery must run against a degraded replica set (§3.2.5).
  rdma::NodeId killed_memory_node = rdma::kInvalidNodeId;
  if (schedule.kill_memory_node >= 0 && any_fired) {
    const uint32_t index = static_cast<uint32_t>(schedule.kill_memory_node) %
                           config.memory_nodes;
    killed_memory_node = cluster.memory_node_id(index);
    cluster.CrashMemoryNode(killed_memory_node);
    manager->RecoverMemoryFailure(killed_memory_node);
    out->executed.kill_memory_node = static_cast<int>(index);
    if (record) report->memory_kills_injected++;
  }

  // The failure decision: every crashed slot is declared failed and
  // recovered now that the slots and the migration have stopped (and
  // after any compound memory kill), so recovery starts at the same point
  // of every replay.
  for (uint32_t t = 0; t < num_txns && !out->violation; ++t) {
    const bool crashed = hooks[t]->fired() ||
                         out->verb_killed_slot == static_cast<int>(t);
    if (!crashed) continue;
    const Status status = manager->DeclareComputeFailure(
        cluster.compute_node_id(t), {coords[t]->coord_id()});
    if (!status.ok()) {
      out->violation = true;
      out->explanation = "recovery failed: " + status.ToString();
    }
  }
  if (schedule.rc_fault) {
    manager->rc().set_step_fault_hook(nullptr);
    if (rc_deaths > 0) {
      out->executed.rc_fault = true;
      if (record) report->rc_faults_injected++;
    }
  }

  if (!out->violation) {
    // Observe the final application state from the observer node. Nothing
    // else runs now and no live coordinator is ever declared failed, so
    // one attempt suffices: an unreadable state is a violation.
    txn::Coordinator reader(&cluster, cluster.compute(compute_nodes - 1),
                            NewCoordinatorId(compute_nodes - 1), txn_config,
                            &gate);
    VarState final_state(spec.initial.size());
    Status status = reader.Begin();
    for (Var v = 0; v < spec.initial.size() && status.ok(); ++v) {
      std::string value;
      status = reader.Read(table, VarKey(iteration, v), &value);
      if (status.ok()) {
        final_state[v] = DecodeFixed64(value.data());
      } else if (status.IsNotFound()) {
        final_state[v] = std::nullopt;
        status = Status::OK();
      }
    }
    if (status.ok()) status = reader.Commit();
    if (!status.ok()) {
      if (reader.in_txn()) reader.Abort();
      out->violation = true;
      out->explanation = "final state unreadable (" + status.ToString() + ")";
    } else {
      std::string explanation;
      if (!checker->Check(observations, final_state, &explanation)) {
        out->violation = true;
        out->explanation = explanation;
      }
    }

    if (record) {
      for (const TxnObservation& obs : observations) {
        switch (obs.outcome) {
          case TxnObservation::Outcome::kCommitted:
            report->committed++;
            break;
          case TxnObservation::Outcome::kAborted:
            report->aborted++;
            break;
          case TxnObservation::Outcome::kUnknown:
            report->unknown++;
            break;
        }
      }
    }
  }

  for (uint32_t t = 0; t < num_txns; ++t) {
    out->bug_injections += coords[t]->stats().bug_injections;
  }
  if (record) report->bug_injections += out->bug_injections;

  // End of iteration: restore every compute node's links and rebuild a
  // killed memory node, so the next iteration starts from a healthy
  // membership. Recovery has already completed, which preserves Cor1.
  for (uint32_t n = 0; n < compute_nodes; ++n) {
    cluster.RestartComputeNode(cluster.compute_node_id(n));
  }
  if (killed_memory_node != rdma::kInvalidNodeId) {
    const Status status = manager->ReplaceMemoryNode(killed_memory_node);
    if (!status.ok()) {
      PANDORA_LOG(kError) << "litmus: memory node re-replication failed: "
                          << status.ToString();
    }
  }
  // Reconfiguration baseline restore: resume a killed join target, then
  // take the standby back out of the ring (quiet fenced drain) so the
  // next iteration starts from the baseline placement. This runs after
  // the checker observed the migrated state, so it never masks a cutover
  // bug — it only re-establishes iteration independence.
  if (migration_mgr != nullptr) {
    if (reconfig_injector->killed()) {
      cluster.fabric().ResumeNode(standby_node);
      cluster.WipeMemoryNode(standby_node);
    }
    const std::vector<rdma::NodeId>& ring_nodes = cluster.ring().nodes();
    if (std::find(ring_nodes.begin(), ring_nodes.end(), standby_node) !=
        ring_nodes.end()) {
      const Status restore = migrator->DrainMemoryNode(standby_node);
      if (!restore.ok()) {
        PANDORA_LOG(kError) << "litmus: standby restore drain failed: "
                            << restore.ToString();
      }
    }
  }

  // Memory-level invariants: replicas must agree, locks must be free or
  // stray. Skipped once the iteration is a violation (a failed recovery
  // may legitimately leave stray locks behind).
  if (!out->violation) {
    std::string audit_error;
    if (!AuditReplicas(&cluster, table, iteration, spec.initial.size(),
                       manager->fd().failed_ids(), &audit_error)) {
      out->violation = true;
      out->explanation = audit_error;
    }
  }

  if (record) report->iterations++;
}

}  // namespace

std::string LitmusReport::CoverageSummary() const {
  std::string out;
  for (int p = 0; p < txn::kNumCrashPoints; ++p) {
    if (point_visits[p] == 0 && point_crashes[p] == 0) continue;
    if (!out.empty()) out += "\n";
    out += std::string(txn::CrashPointName(
               static_cast<txn::CrashPoint>(p))) +
           ": " + std::to_string(point_visits[p]) + " visits, " +
           std::to_string(point_crashes[p]) + " crashes";
  }
  for (int p = 0; p < static_cast<int>(cluster::kNumReconfigCrashPoints);
       ++p) {
    if (reconfig_point_visits[p] == 0 && reconfig_point_crashes[p] == 0) {
      continue;
    }
    if (!out.empty()) out += "\n";
    out += "reconfig " +
           std::string(cluster::ReconfigCrashPointName(
               static_cast<cluster::ReconfigCrashPoint>(p))) +
           ": " + std::to_string(reconfig_point_visits[p]) + " visits, " +
           std::to_string(reconfig_point_crashes[p]) + " crashes";
  }
  return out;
}

LitmusReport LitmusHarness::Run(const LitmusSpec& spec) {
  LitmusReport report;
  report.spec_name = spec.name;

  // Delta-debugging: greedily drop schedule components (memory kill, RC
  // fault, individual crash directives, the verb kill, the verb order —
  // cleared, then halved from the tail), keeping a candidate only when
  // the reduced schedule still reproduces a violation, then replay the
  // final schedule once to confirm determinism.
  auto minimize = [&](SpecRun& run,
                      const IterationResult& result) -> std::string {
    if (config_.minimize_budget <= 0) return "";
    CrashSchedule best = result.executed;
    int budget = config_.minimize_budget;
    auto reproduces = [&](const CrashSchedule& candidate) {
      if (budget <= 0) return false;
      --budget;
      IterationResult probe;
      run.RunIteration(candidate, &report, /*record=*/false, &probe);
      return probe.violation;
    };
    if (best.kill_memory_node >= 0) {
      CrashSchedule candidate = best;
      candidate.kill_memory_node = -1;
      if (reproduces(candidate)) best = candidate;
    }
    if (best.rc_fault) {
      CrashSchedule candidate = best;
      candidate.rc_fault = false;
      if (reproduces(candidate)) best = candidate;
    }
    for (size_t i = best.crashes.size(); i-- > 0;) {
      CrashSchedule candidate = best;
      candidate.crashes.erase(candidate.crashes.begin() +
                              static_cast<long>(i));
      if (reproduces(candidate)) best = candidate;
    }
    if (best.reconfig_kill_target) {
      CrashSchedule candidate = best;
      candidate.reconfig_kill_target = false;
      if (reproduces(candidate)) best = candidate;
    }
    if (best.reconfig_crash >= 0) {
      CrashSchedule candidate = best;
      candidate.reconfig_crash = -1;
      if (reproduces(candidate)) best = candidate;
    }
    if (best.reconfig != ReconfigKind::kNone) {
      CrashSchedule candidate = best;
      candidate.reconfig = ReconfigKind::kNone;
      candidate.reconfig_crash = -1;
      candidate.reconfig_fence_off = false;
      candidate.reconfig_kill_target = false;
      if (reproduces(candidate)) best = candidate;
    }
    if (best.has_verb_kill) {
      CrashSchedule candidate = best;
      candidate.has_verb_kill = false;
      if (reproduces(candidate)) best = candidate;
    }
    if (!best.verb_order.empty()) {
      CrashSchedule candidate = best;
      candidate.verb_order.clear();
      if (reproduces(candidate)) best = candidate;
    }
    while (best.verb_order.size() > 1) {
      CrashSchedule candidate = best;
      candidate.verb_order.resize(candidate.verb_order.size() / 2);
      if (!reproduces(candidate)) break;
      best = candidate;
    }
    const bool confirmed = reproduces(best);
    return " | minimal repro: spec=" + spec.name +
           " seed=" + std::to_string(config_.seed) + " schedule={" +
           best.ToString() + "}" +
           (confirmed ? " (replay-confirmed)" : " (not re-confirmed)");
  };

  auto execute = [&](SpecRun& run, const CrashSchedule& schedule) {
    IterationResult result;
    run.RunIteration(schedule, &report, /*record=*/true, &result);
    if (result.noop) report.schedule_noops++;
    if (result.violation) {
      report.violations++;
      report.violation_traces.push_back(result.executed.ToString());
      report.violation_explanations.push_back(result.explanation);
      if (report.failures.size() < 10) {
        report.failures.push_back(
            "iteration " + std::to_string(result.iteration) + ": " +
            result.explanation + minimize(run, result));
      }
    }
    return result;
  };
  auto should_stop = [&] {
    return config_.stop_after_violations > 0 &&
           report.violations >= config_.stop_after_violations;
  };

  // Bounded crash-point model checking (the kExhaustive body, shared by
  // kVerbExhaustive as its first phase).
  auto crash_point_exhaustive = [&](SpecRun& run) {
    // Profiling iteration: lockstep, no crash. Records the reachable
    // (slot, run, point, occurrence) tuples that bound the enumeration
    // — and doubles as the no-crash litmus check (lockstep alone
    // surfaces ordering bugs like covert/relaxed locks).
    CrashSchedule profile_schedule;
    profile_schedule.sync = SyncMode::kLockstep;
    // With reconfiguration enabled every enumerated schedule (profile
    // included) races the migration, so the profiled tuples reflect the
    // fenced-abort/retry paths the migration provokes.
    const ReconfigKind reconfig_kind = config_.reconfig;
    profile_schedule.reconfig = reconfig_kind;
    report.schedules_planned++;
    const IterationResult profile = execute(run, profile_schedule);

    std::vector<CrashDirective> tuples;
    for (uint32_t t = 0; t < run.num_txns; ++t) {
      if (t >= profile.visits.size()) break;
      for (size_t r = 0; r < profile.visits[t].size(); ++r) {
        std::vector<int> counts(txn::kNumCrashPoints, 0);
        for (const txn::CrashPoint point : profile.visits[t][r]) {
          counts[static_cast<int>(point)]++;
        }
        for (int p = 0; p < txn::kNumCrashPoints; ++p) {
          for (int occ = 1; occ <= counts[p]; ++occ) {
            CrashDirective crash;
            crash.slot = static_cast<int>(t);
            crash.run = static_cast<int>(r);
            crash.point = static_cast<txn::CrashPoint>(p);
            crash.occurrence = occ;
            tuples.push_back(crash);
          }
        }
      }
    }

    std::vector<CrashSchedule> worklist;
    // Migration-driver crashes first: one schedule per ReconfigCrashPoint
    // (plus a join-target kill mid-copy), proving the rollback /
    // roll-forward rule at every point of the migration. The crash-free
    // migration itself is covered by the profiling iteration.
    if (reconfig_kind != ReconfigKind::kNone) {
      for (int p = 0;
           p < static_cast<int>(cluster::kNumReconfigCrashPoints); ++p) {
        CrashSchedule schedule;
        schedule.sync = SyncMode::kLockstep;
        schedule.reconfig = reconfig_kind;
        schedule.reconfig_crash = p;
        worklist.push_back(schedule);
      }
      if (reconfig_kind == ReconfigKind::kJoin) {
        CrashSchedule schedule;
        schedule.sync = SyncMode::kLockstep;
        schedule.reconfig = reconfig_kind;
        schedule.reconfig_kill_target = true;
        worklist.push_back(schedule);
      }
    }
    for (const CrashDirective& crash : tuples) {
      CrashSchedule schedule;
      schedule.sync = SyncMode::kLockstep;
      schedule.reconfig = reconfig_kind;  // kNone when reconfig is off
      schedule.crashes.push_back(crash);
      worklist.push_back(schedule);
      if (config_.compound_rc_fault) {
        CrashSchedule compound = schedule;
        compound.rc_fault = true;
        worklist.push_back(compound);
      }
      if (config_.compound_memory_kill) {
        CrashSchedule compound = schedule;
        compound.kill_memory_node =
            static_cast<int>(worklist.size() % config_.memory_nodes);
        worklist.push_back(compound);
      }
    }
    // Coordinator crash *pairs*: two slots dying at different points of
    // the same iteration. Bounded to the contested window — both crashes
    // at points where locks can be held, first occurrences, first run —
    // which is where stray-lock interactions between two simultaneous
    // recoveries actually live.
    if (config_.crash_pairs) {
      const auto contested = [](txn::CrashPoint p) {
        switch (p) {
          case txn::CrashPoint::kAfterLock:
          case txn::CrashPoint::kAfterLockFetch:
          case txn::CrashPoint::kBeforeLogWrite:
          case txn::CrashPoint::kAfterLogWrite:
          case txn::CrashPoint::kAfterValidation:
          case txn::CrashPoint::kBeforeCommitApply:
          case txn::CrashPoint::kMidCommitApply:
          case txn::CrashPoint::kAfterCommitApply:
          case txn::CrashPoint::kAfterClientAck:
          case txn::CrashPoint::kBeforeUnlock:
          case txn::CrashPoint::kMidUnlock:
            return true;
          default:
            return false;
        }
      };
      const auto in_window = [&](const CrashDirective& d) {
        return d.run == 0 && d.occurrence == 1 && contested(d.point);
      };
      for (size_t a = 0; a < tuples.size(); ++a) {
        if (!in_window(tuples[a])) continue;
        for (size_t b = a + 1; b < tuples.size(); ++b) {
          if (tuples[b].slot == tuples[a].slot) continue;
          if (!in_window(tuples[b])) continue;
          CrashSchedule schedule;
          schedule.sync = SyncMode::kLockstep;
          schedule.reconfig = reconfig_kind;
          schedule.crashes.push_back(tuples[a]);
          schedule.crashes.push_back(tuples[b]);
          worklist.push_back(schedule);
        }
      }
    }
    report.schedules_planned += static_cast<int>(worklist.size());

    int budget = config_.iterations - 1;  // profiling consumed one
    for (size_t i = 0; i < worklist.size() && !should_stop(); ++i) {
      if (budget-- <= 0) {
        report.schedules_skipped += static_cast<int>(worklist.size() - i);
        PANDORA_LOG(kWarning)
            << "litmus: schedule enumeration truncated, "
            << (worklist.size() - i) << " of " << worklist.size()
            << " schedules skipped (raise HarnessConfig::iterations)";
        break;
      }
      execute(run, worklist[i]);
    }
  };

  // kVerbExhaustive phase two: bounded-DPOR exploration of the contested
  // verb window.
  auto verb_explore = [&](SpecRun& run) {
    constexpr size_t kWindowCap = 12;
    constexpr size_t kKillCap = 8;

    // Seed: a lockstep recording iteration captures the applied
    // mutating-verb stream. Lockstep maximizes contention, so the window
    // it records is the richest one; enforced iterations then run free:
    // a slot runs until a hold parks it.
    CrashSchedule seed_schedule;
    seed_schedule.sync = SyncMode::kLockstep;
    seed_schedule.record_verbs = true;
    report.schedules_planned++;
    const IterationResult seed = execute(run, seed_schedule);

    // Restrict a stream to contested units (touched by >= 2 slots).
    auto contested_window = [&](const std::vector<VerbToken>& stream) {
      std::map<int, std::set<int>> unit_slots;
      for (const VerbToken& verb : stream) {
        unit_slots[verb.unit].insert(verb.slot);
      }
      std::vector<VerbToken> window;
      for (const VerbToken& verb : stream) {
        if (unit_slots[verb.unit].size() < 2) continue;
        window.push_back(verb);
        if (window.size() >= kWindowCap) break;
      }
      return window;
    };
    const std::vector<VerbToken> window =
        contested_window(seed.applied_verbs);
    report.verb_window =
        std::max(report.verb_window, static_cast<int>(window.size()));
    if (window.empty()) return;

    std::set<std::string> seen;
    std::deque<CrashSchedule> queue;
    auto enqueue = [&](CrashSchedule candidate, bool front) {
      if (!seen.insert(candidate.ToString()).second) {
        report.verb_orders_pruned++;  // Equivalent order already tried.
        return;
      }
      if (front) {
        queue.push_front(std::move(candidate));
      } else {
        queue.push_back(std::move(candidate));
      }
    };

    // DPOR reversals: for each conflicting pair (i, j) — same unit,
    // different slots — schedule w[j] to land before w[i] under the
    // prefix that actually preceded them. Valid only when no verb
    // between them belongs to w[j]'s slot (w[j] cannot be issued until
    // those land, so the reversal would be unrealizable).
    auto reversals = [&](const std::vector<VerbToken>& stream,
                         bool front) {
      const std::vector<VerbToken> w = contested_window(stream);
      for (size_t i = 0; i < w.size(); ++i) {
        for (size_t j = i + 1; j < w.size(); ++j) {
          if (w[i].unit != w[j].unit || w[i].slot == w[j].slot) continue;
          bool realizable = true;
          for (size_t k = i + 1; k < j && realizable; ++k) {
            if (w[k].slot == w[j].slot) realizable = false;
          }
          if (!realizable) continue;
          CrashSchedule candidate;
          candidate.verb_order.assign(w.begin(),
                                      w.begin() + static_cast<long>(i));
          candidate.verb_order.push_back(w[j]);
          candidate.verb_order.push_back(w[i]);
          enqueue(std::move(candidate), front);
        }
      }
    };

    // Who-wins-the-word permutations: every order of the slots' first
    // accesses to the hottest unit (<= 3! with three slots).
    {
      std::map<int, int> heat;
      for (const VerbToken& verb : window) heat[verb.unit]++;
      int hottest = window[0].unit;
      for (const auto& [unit, count] : heat) {
        if (count > heat[hottest]) hottest = unit;
      }
      std::vector<VerbToken> firsts;
      std::set<int> seen_slots;
      for (const VerbToken& verb : window) {
        if (verb.unit != hottest) continue;
        if (seen_slots.insert(verb.slot).second) firsts.push_back(verb);
      }
      auto token_less = [](const VerbToken& a, const VerbToken& b) {
        return std::tie(a.slot, a.run, a.unit, a.access) <
               std::tie(b.slot, b.run, b.unit, b.access);
      };
      std::sort(firsts.begin(), firsts.end(), token_less);
      if (firsts.size() >= 2 && firsts.size() <= 3) {
        std::vector<VerbToken> perm = firsts;
        do {
          CrashSchedule candidate;
          candidate.verb_order = perm;
          enqueue(std::move(candidate), false);
        } while (
            std::next_permutation(perm.begin(), perm.end(), token_less));
      }
    }
    reversals(seed.applied_verbs, /*front=*/false);
    // Verb-level kills: die after posting the a-th window verb, with the
    // preceding window enforced as recorded.
    for (size_t a = 0; a < window.size() && a < kKillCap; ++a) {
      CrashSchedule candidate;
      candidate.verb_order.assign(window.begin(),
                                  window.begin() + static_cast<long>(a));
      candidate.has_verb_kill = true;
      candidate.verb_kill = window[a];
      enqueue(std::move(candidate), false);
    }

    int budget = config_.iterations - 1;  // the recording seed used one
    while (!queue.empty() && !should_stop()) {
      if (budget-- <= 0) {
        report.schedules_skipped += static_cast<int>(queue.size());
        break;
      }
      CrashSchedule candidate = queue.front();
      queue.pop_front();
      report.schedules_planned++;
      const IterationResult result = execute(run, candidate);
      report.verb_orders_explored++;
      // Iterations that exercised an injected bug (or violated outright)
      // are where the races hide: their realized streams seed the next
      // DPOR generation, explored depth-first.
      if (result.violation || result.bug_injections > 0) {
        reversals(result.applied_verbs, /*front=*/true);
      }
    }
  };

  switch (config_.schedule) {
    case SchedulePolicy::kExhaustive: {
      SpecRun run(config_, spec);
      crash_point_exhaustive(run);
      break;
    }
    case SchedulePolicy::kVerbExhaustive: {
      // Try run count 1 first (single-shot races need no repeats and
      // explore fastest), then the configured repeat count, each against
      // a fresh deployment: crash-point enumeration, then verb-order
      // exploration.
      std::vector<int> run_counts{1};
      const int configured = std::max(1, config_.runs_per_txn);
      if (configured != 1) run_counts.push_back(configured);
      for (const int count : run_counts) {
        if (should_stop()) break;
        SpecRun run(config_, spec, count, /*phase_budget_multiplier=*/2);
        crash_point_exhaustive(run);
        if (!should_stop()) verb_explore(run);
      }
      break;
    }
    case SchedulePolicy::kReplay: {
      // Honor the trace's recorded run count (0 = config default).
      SpecRun run(config_, spec, config_.replay.runs);
      report.schedules_planned++;
      execute(run, config_.replay);
      break;
    }
  }

  // A clean run with enabled-but-unexercised bug flags proves nothing:
  // fail loudly instead of reporting a false pass.
  if (config_.txn.bugs.AnySet() && report.bug_injections == 0) {
    report.harness_error =
        "bug flags enabled but never exercised (injection no-op)";
  }

  return report;
}

std::vector<LitmusReport> LitmusHarness::RunAll() {
  std::vector<LitmusReport> reports;
  for (const LitmusSpec& spec : AllLitmusSpecs()) {
    reports.push_back(Run(spec));
  }
  return reports;
}

}  // namespace litmus
}  // namespace pandora
