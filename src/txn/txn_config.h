#ifndef PANDORA_TXN_TXN_CONFIG_H_
#define PANDORA_TXN_TXN_CONFIG_H_

#include <cstdint>

namespace pandora {
namespace txn {

/// Which transactional protocol a coordinator runs.
enum class ProtocolMode {
  /// Pandora (§3): PILL lock words, one coordinator-log record per
  /// transaction, lock stealing. Every commit runs the merged doorbell
  /// (Coordinator::CommitMergedInternal): validation, then the record's
  /// fragments, the replica applies and the unlocks in one group of
  /// per-server ordered chains — with or without a crash hook, injected
  /// bugs or NVM flushes. An abort is decided before anything is logged,
  /// so it only releases locks.
  kPandora,
  /// The paper's Baseline (§4.1): FORD's online protocol — per-object undo
  /// logs written eagerly to the object's replicas during execution — with
  /// Pandora's recovery algorithm integrated. No PILL: stray locks require
  /// a blocking full-KVS scan.
  kFordBaseline,
  /// §6.1/§6.2.1 "Traditional Logging Scheme": Baseline plus a lock-intent
  /// log write *before* every lock CAS (one extra round trip per lock),
  /// which lets recovery release stray locks from the logs without
  /// scanning, at a steady-state throughput cost.
  kTraditionalLogging,
};

/// Bug switches reproducing the six FORD defects of Table 1 (§5.1). All
/// default to off (= the fixed protocols). The litmus framework flips them
/// one at a time to demonstrate that each bug is caught.
struct BugFlags {
  /// C1 "Complicit Aborts": the abort path releases every write-set lock,
  /// including locks the transaction never acquired — possibly releasing a
  /// lock held by a *different* transaction.
  bool complicit_abort = false;
  /// C2 "Missing Actions": inserts are omitted from the undo log, so a
  /// crashed transaction's inserts cannot be rolled back.
  bool missing_insert_logging = false;
  /// C1 "Covert Locks": validation checks only the version of read-set
  /// objects, not whether they are locked.
  bool covert_locks = false;
  /// C1 "Relaxed Locks": write-set locks are deferred and issued in the
  /// same doorbell as (after) the validation reads, so validation can
  /// overlap lock acquisition.
  bool relaxed_locks = false;
  /// C2 "Lost Decision": logs of aborted transactions are not invalidated,
  /// so recovery cannot tell an aborted logged transaction from a committed
  /// one.
  bool lost_decision = false;
  /// C2 "Logging without locking": the per-object undo record is written
  /// *before* the lock is acquired (with a pre-lock value image).
  bool logging_without_locking = false;

  bool AnySet() const {
    return complicit_abort || missing_insert_logging || covert_locks ||
           relaxed_locks || lost_decision || logging_without_locking;
  }
};

/// Per-coordinator protocol configuration.
struct TxnConfig {
  ProtocolMode mode = ProtocolMode::kPandora;
  BugFlags bugs;

  /// Conflict policy (§6.4 "Sensitivity to stalls"): false = abort the
  /// transaction on a lock conflict (the default, as in FORD); true = stall
  /// and retry the lock until it is released, stolen, or the timeout
  /// expires.
  bool stall_on_conflict = false;
  uint64_t stall_timeout_us = 1'000'000;

  /// Execution-phase doorbell pipelining (§3.1.1): post the lock CAS and a
  /// speculative undo-image read on the same QP in one doorbell (RC
  /// in-order delivery makes the read observe the post-CAS state), so a
  /// write op's lock+fetch costs 1 round trip instead of 2; range reads
  /// batch their per-key verbs into max-RTT rounds likewise. The ablation
  /// knob for the paper's round-trip accounting. (Doorbell batching
  /// itself is ablated in the fabric: rdma::NetworkConfig::sequential_verbs.)
  bool pipeline_execution = true;

  /// Disables the online-recovery component (C2) entirely: no undo
  /// logging, no truncation. Models the *non-recoverable* FORD that
  /// Figure 6 compares against — fast, but a compute crash leaves memory
  /// unrecoverable. Benchmarking only.
  bool disable_recovery_logging = false;

  /// Placement-epoch fence for online reconfiguration: snapshot the ring
  /// epoch at Begin and re-check it before every lock acquisition and at
  /// validation time. A transaction that raced a ring cutover aborts
  /// cheaply (TxnStats::reconfig_aborts) instead of committing against a
  /// superseded placement, then retries under bounded exponential backoff.
  /// Off = the deliberately naive mode the crash-during-migration litmus
  /// spec exists to catch.
  bool reconfig_fence = true;

  /// PILL is a Pandora feature; the baselines cannot steal.
  bool pill_enabled() const { return mode == ProtocolMode::kPandora; }
};

/// Per-coordinator counters (single-threaded; aggregated by the drivers).
struct TxnStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t lock_conflicts = 0;
  uint64_t validation_failures = 0;
  uint64_t locks_stolen = 0;
  uint64_t stray_reads_ignored = 0;
  uint64_t stall_retries = 0;
  uint64_t log_records_written = 0;
  uint64_t nvm_flushes = 0;
  uint64_t crashed = 0;
  /// Round trips waited out during the execution phase (Read / Write /
  /// Insert / Delete / ReadRange): slot-resolution probes, lock CASes,
  /// undo-image fetches, per-object log writes. A pipelined lock+fetch
  /// counts 1; unpipelined counts 2.
  uint64_t execution_rtts = 0;
  /// Round trips waited out during Commit (log+validation, apply, flush,
  /// unlock) and the abort path.
  uint64_t commit_rtts = 0;
  /// Doorbells rung: one per verb group issued together (a batch of N
  /// verbs is 1 doorbell; N sequential verbs are N).
  uint64_t doorbells = 0;
  /// Fiber suspensions taken on the coordinator's behalf while its worker
  /// thread overlapped this wait with other in-flight transactions (zero
  /// when the driver runs without a fiber scheduler). Aggregated from the
  /// per-thread schedulers, not counted by the coordinator itself.
  uint64_t fiber_yields = 0;
  /// Worst fiber resume lag observed by the drivers' schedulers: wall
  /// nanoseconds between a fiber becoming runnable and being dispatched.
  /// The starvation metric behind the fibers8 tail gate (max across
  /// workers, not a sum; zero without a fiber scheduler).
  uint64_t max_resume_lag_ns = 0;
  /// Times a fiber deferred admitting a new transaction because the
  /// scheduler was overdue past its lag budget on already-admitted work
  /// (aggregated from the per-thread schedulers, like fiber_yields).
  uint64_t paced_admissions = 0;
  /// Times an enabled BugFlags deviation actually altered protocol
  /// behavior (a check skipped, a log omitted, an ordering relaxed). The
  /// litmus harness uses this to flag bug flags that were never exercised
  /// — an injection no-op proves nothing.
  uint64_t bug_injections = 0;
  /// Locator hits: object lookups answered by the coordinator's
  /// cluster::Locator entry (replica set and remembered slots) without
  /// walking the ring.
  uint64_t placement_hits = 0;
  /// Locator misses: lookups that walked the ring and started the entry
  /// over with no slots known (cold entry, index collision, or a
  /// placement-epoch advance after a failover, wipe or ring swap).
  uint64_t placement_misses = 0;
  /// Transactions aborted by the reconfiguration epoch fence: the ring
  /// was swapped (live join/drain) after this transaction took locks or
  /// validated against the old placement.
  uint64_t reconfig_aborts = 0;
  /// Cheap pre-lock retries against a fresh placement: the fence caught
  /// the epoch change before any lock was taken (plus the backoff sleeps
  /// armed by a prior reconfig abort).
  uint64_t reconfig_retries = 0;
};

}  // namespace txn
}  // namespace pandora

#endif  // PANDORA_TXN_TXN_CONFIG_H_
