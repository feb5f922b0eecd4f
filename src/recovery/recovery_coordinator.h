#ifndef PANDORA_RECOVERY_RECOVERY_COORDINATOR_H_
#define PANDORA_RECOVERY_RECOVERY_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "rdma/doorbell_group.h"
#include "rdma/queue_pair.h"
#include "store/log_layout.h"
#include "store/remote_object.h"

namespace pandora {
namespace recovery {

/// Counters describing one recovery run (reported by the benches).
struct RecoveryStats {
  uint64_t log_bytes_read = 0;
  uint64_t logged_txns = 0;
  uint64_t lock_intents = 0;
  uint64_t rolled_forward = 0;
  uint64_t rolled_back = 0;
  uint64_t torn_records = 0;
  uint64_t locks_released = 0;
  uint64_t objects_restored = 0;
  uint64_t slots_scanned = 0;
  /// Doorbells log recovery rang: the non-empty rounds of every window
  /// plus one per batched probe step on address-cache misses.
  uint64_t doorbells = 0;
  uint64_t log_recovery_ns = 0;
  uint64_t scan_ns = 0;

  void Add(const RecoveryStats& other);
};

/// The Recovery Coordinator (RC) of §3.2.2 step 3: a thread on a compute-
/// capable node that reads the failed coordinators' logs with one-sided
/// RDMA reads, decides roll-forward vs roll-back per logged transaction by
/// comparing replica versions against the undo images, repairs memory, and
/// truncates the logs.
///
/// Log recovery works over all of a failed node's coordinator ids at once,
/// in windows sized so that probing every slot of their areas would fit a
/// fixed read buffer. Each window costs kRoundsPerWindow doorbells however
/// many coordinators it holds: read the first kLogProbeBytes of slot 0 of
/// every coordinator's area on every live server, read every replica
/// version, restore roll-back images, release locks, truncate. The logs
/// are dense (store::LogConfig): a transaction starts at slot 0 and its
/// records say how many slots it spans, so further log reads ring extra
/// doorbells right after the slot-0 probes only when some area needs them:
/// the tails of records longer than the probe and the slots of a known
/// span (one doorbell), and for an unknown span or a torn slot 0 the
/// probes of the rest of the area (one more for their records' tails; a
/// long slot 0 shows itself torn only once its tail is in, one later).
/// Address-cache misses add one batched probe doorbell per probe step.
///
/// Every mutation is a *conditional* CAS against "locked by the failed
/// coordinator" (or a value write under such a lock), so re-executing any
/// step is harmless — the idempotency §3.2.3 requires for surviving RC
/// failures.
class RecoveryCoordinator {
 public:
  /// Doorbell rounds per log-recovery window whose slot-0 probes hold
  /// every record whole and every span is one slot.
  static constexpr uint32_t kRoundsPerWindow = 5;
  /// Upper bound on one window's log probes were every slot probed (the
  /// unknown-span worst case); record bytes beyond the probes come on top.
  static constexpr uint64_t kLogReadBufferBytes = 4ull << 20;
  /// Bytes read from the start of a log slot (at most slot_bytes): the
  /// 40-byte record header and, for the benches' SmallBank and TATP write
  /// sets and micro write sets of up to three writes, the whole record.
  static constexpr uint32_t kLogProbeBytes = 256;

  explicit RecoveryCoordinator(cluster::Cluster* cluster);

  RecoveryCoordinator(const RecoveryCoordinator&) = delete;
  RecoveryCoordinator& operator=(const RecoveryCoordinator&) = delete;

  /// Models the scan-bandwidth constraint of a production-sized KVS
  /// (§3.1.1: 100 GiB over a 100 Gbps link needs >= 8 s): the in-simulator
  /// dataset is tiny, so the Baseline's scan finishes unrealistically
  /// fast unless each scanned slot is charged the per-byte time a real
  /// deployment would pay. 0 disables the model.
  void set_scan_throttle_ns_per_slot(uint64_t ns) {
    scan_throttle_ns_per_slot_ = ns;
  }

  /// Fault injection for §3.2.3 idempotence validation: called after every
  /// doorbell round of log recovery; returning true makes the RC die there
  /// (RecoverLogs returns Unavailable with memory in whatever
  /// partially-repaired state the rounds so far produced). The next RC
  /// re-executes the whole procedure.
  void set_step_fault_hook(std::function<bool()> hook) {
    step_fault_hook_ = std::move(hook);
  }

  /// Coordinators per log-recovery window: as many as fit a probe of every
  /// slot of their areas, on every attached memory server, into
  /// kLogReadBufferBytes (at least one).
  uint32_t CoordinatorsPerWindow() const;

  /// Log recovery for a failed node's coordinator ids, in windows of
  /// CoordinatorsPerWindow() ids. Slot 0 of every memory server's log
  /// area is probed: Pandora's merged commit doorbell places records on the
  /// transaction's touched data servers and the baselines scatter
  /// per-object records, so one path covers every protocol mode. Safe to
  /// call repeatedly (idempotent); must run *before* the stray-lock
  /// notification (Cor4).
  Status RecoverLogs(const std::vector<uint16_t>& coord_ids,
                     RecoveryStats* stats);

  /// The Baseline's stop-the-world stray-lock recovery (§3.1.1): scans
  /// every table region on every alive memory server with one-sided reads
  /// and releases locks owned by any of `failed_ids`. The caller must have
  /// quiesced the system (SystemGate::BlockAndQuiesce) so live locks cannot
  /// be confused with stray ones mid-scan.
  Status ScanAndReleaseStrayLocks(const std::vector<uint16_t>& failed_ids,
                                  RecoveryStats* stats);

 private:
  // One slot image the log reads left: slot `slot` of area `area`
  // (coordinator-major, then server), its first ProbeBytes() unless
  // `whole`.
  struct SlotImage {
    size_t area = 0;
    uint32_t slot = 0;
    const char* image = nullptr;
    bool whole = false;
  };

  // A read of `count` slots of an area from `slot` on: one probe each, or
  // one read of the whole slots.
  struct AreaRead {
    size_t area = 0;
    uint32_t slot = 0;
    uint32_t count = 0;
    bool whole = false;
  };

  // The rest of a record whose probe images_[image] holds: `bytes` in all.
  struct TailRead {
    size_t image = 0;
    size_t bytes = 0;
  };

  // One coordinator's parsed log: each logged transaction's write set by
  // transaction id, the traditional scheme's lock intents, and the
  // non-empty slots as (server index, slot) for truncation.
  struct CoordinatorLog {
    uint16_t coord_id = 0;
    std::map<uint64_t, std::vector<store::LogEntry>> txns;
    std::vector<store::LogEntry> intents;
    std::vector<std::pair<size_t, uint32_t>> used_slots;
  };

  // One alive replica of an object under repair.
  struct ReplicaView {
    rdma::NodeId node = 0;
    bool found = false;  // False: an insert's claim never reached it.
    uint64_t slot = 0;
    uint64_t version_word = 0;
    uint64_t observed_lock = 0;
  };

  // One object a coordinator's log names: a logged transaction's entry
  // (`txn` indexes the window's roll decisions) or a lock intent.
  struct Target {
    static constexpr size_t kIntent = ~size_t{0};
    uint16_t coord_id = 0;
    const store::LogEntry* entry = nullptr;
    size_t txn = kIntent;
    size_t first_replica = 0;
    size_t num_replicas = 0;
  };

  rdma::QueuePair* qp(rdma::NodeId node) { return qps_[node].get(); }

  std::span<ReplicaView> ReplicasOf(const Target& target) {
    return std::span<ReplicaView>(replicas_).subspan(target.first_replica,
                                                     target.num_replicas);
  }

  // Bytes probed of a slot: kLogProbeBytes clamped to the slot size.
  uint32_t ProbeBytes() const;

  // Recovers one window of coordinator ids in kRoundsPerWindow doorbells
  // (plus the log reads some slot 0 calls for beyond its probe).
  Status RecoverWindow(std::span<const uint16_t> coord_ids,
                       RecoveryStats* stats);

  // Probes slot 0 of `coord_ids`' areas on `servers`, then reads whatever
  // else each area's slot 0 says its transaction holds, leaving the slot
  // images in images_.
  Status ReadLogs(std::span<const uint16_t> coord_ids,
                  const std::vector<rdma::NodeId>& servers,
                  RecoveryStats* stats);

  // Plans the reads images_[image] calls for: its record's tail if the
  // probe cut it short and, for slot 0, the rest of its area's span.
  void PlanReads(size_t image, std::vector<AreaRead>* reads,
                 std::vector<TailRead>* tails);

  // Plans reads of `area`'s slots from next_slot_ up to `span` (the whole
  // area for span 0): whole slots for a known span, probes otherwise.
  void PlanSpan(size_t area, uint16_t span, std::vector<AreaRead>* reads);

  // Parses one slot image into `log`.
  void ParseSlot(const char* image, size_t server, uint32_t slot,
                 CoordinatorLog* log, RecoveryStats* stats);

  // Appends `entry`'s alive replicas to replicas_ as a new target.
  void AddTarget(uint16_t coord_id, const store::LogEntry* entry, size_t txn);

  // Fills every target replica's slot from the shared address cache,
  // resolving misses with batched probes (one doorbell per probe step).
  Status ResolveSlots(RecoveryStats* stats);

  // Rings group_ (a doorbell when it holds verbs) and then passes a round
  // boundary, where the RC may die (step fault hook).
  Status FinishRound(RecoveryStats* stats);

  Status MaybeFault() {
    if (step_fault_hook_ && step_fault_hook_()) {
      return Status::Unavailable("recovery coordinator crashed");
    }
    return Status::OK();
  }

  cluster::Cluster* cluster_;
  std::vector<std::unique_ptr<rdma::QueuePair>> qps_;
  // Per-window working state, reused across windows and recoveries.
  std::vector<std::vector<char>> log_bufs_;  // One per log-read round.
  std::vector<SlotImage> images_;
  std::vector<uint32_t> next_slot_;  // Per area: first slot not yet read.
  std::vector<Target> targets_;
  std::vector<ReplicaView> replicas_;
  // Every round's verbs; each round posts into it and rings it before the
  // next one posts.
  rdma::DoorbellGroup group_;
  store::BatchedProbeScratch probe_scratch_;  // ResolveSlots' probes.
  std::function<bool()> step_fault_hook_;
  uint64_t scan_throttle_ns_per_slot_ = 0;
};

}  // namespace recovery
}  // namespace pandora

#endif  // PANDORA_RECOVERY_RECOVERY_COORDINATOR_H_
