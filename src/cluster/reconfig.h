#ifndef PANDORA_CLUSTER_RECONFIG_H_
#define PANDORA_CLUSTER_RECONFIG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "rdma/queue_pair.h"

namespace pandora {
namespace cluster {

/// Crash points inside the online-migration driver, mirroring the
/// transaction-side txn::CrashPoint idiom: a fault injector is consulted
/// at each point and may abandon the migration there, exercising the
/// rollback (before cutover publish) / roll-forward (at or after publish)
/// rule deterministically.
enum class ReconfigCrashPoint : uint32_t {
  kBeforeCopy = 0,     // after planning, before any object moved
  kMidRangeCopy,       // between two ranges of the bulk copy
  kAfterCopy,          // bulk copy done, cutover not started
  kBeforeCutover,      // quiesced + delta-copied, ring not yet published
  kAfterCutover,       // new ring published, cleanup not yet run
};
constexpr uint32_t kNumReconfigCrashPoints = 5;

const char* ReconfigCrashPointName(ReconfigCrashPoint point);
/// Returns true and fills `point` if `name` names a reconfig crash point.
bool ReconfigCrashPointFromName(const char* name, ReconfigCrashPoint* point);

/// Consulted by the migration driver at every ReconfigCrashPoint.
/// Returning true abandons the migration at that point: strictly before
/// the cutover publish this rolls back to the old ring; at or after the
/// publish it rolls forward (the new ring stays). Implementations also use
/// the callback to observe progress (coverage counters) or to inject
/// node deaths at a precise migration phase.
class ReconfigFaultInjector {
 public:
  virtual ~ReconfigFaultInjector() = default;
  virtual bool MaybeCrash(ReconfigCrashPoint point) = 0;
};

/// Migration state of one hash-space range.
enum class RangeState : uint8_t { kOld = 0, kMigrating = 1, kNew = 2 };

struct ReconfigOptions {
  /// Hash-space partitions the bulk copy is chunked into (crash points
  /// fire between them; the checker window of a mid-migration crash is
  /// one range, not the whole key space).
  uint32_t ranges = 64;
  /// The correctness switch this module exists for: with the fence on,
  /// the cutover stalls new transactions (membership barrier + quiesce
  /// hooks), re-copies objects mutated since the bulk pass, and only then
  /// publishes the new ring — so every coordinator either committed
  /// against the old placement or observes the epoch bump. With it off
  /// the ring is published right after the bulk copy (a deliberately
  /// naive cutover): updates committed during the copy are silently lost
  /// on the new replicas, which the crash-during-migration litmus spec
  /// must catch.
  bool epoch_fence = true;
  /// Bounded re-plans when a source memory server dies mid-copy.
  uint32_t max_replans = 4;
  /// Microseconds to wait for the membership verdict after a source verb
  /// failure before giving up on the re-plan.
  uint64_t verdict_timeout_us = 100'000;
  /// Stop-the-world hooks for the cutover window, supplied by the
  /// recovery layer (which owns the SystemGate): block must return with
  /// no transaction in flight; unblock releases them. Optional — without
  /// them the fence still stalls *new* transactions via the membership
  /// barrier, but in-flight ones are only caught by the validation fence.
  std::function<void()> quiesce_block;
  std::function<void()> quiesce_unblock;
};

struct ReconfigStats {
  uint64_t joins = 0;
  uint64_t drains = 0;
  uint64_t replication_changes = 0;
  uint64_t objects_copied = 0;
  /// Objects re-copied by the quiesced delta pass (mutated or locked
  /// during the bulk copy).
  uint64_t objects_recopied = 0;
  uint64_t ranges_migrated = 0;
  uint64_t replans = 0;
  uint64_t rollbacks = 0;
  /// One-sided round trips spent copying (reads + claims + writes).
  uint64_t copy_rtts = 0;
  /// Wall time of the last completed migration / its cutover stall.
  uint64_t last_migration_ns = 0;
  uint64_t last_cutover_ns = 0;
};

/// Online reconfiguration: live memory-server join, planned drain, and
/// replication-factor change under traffic.
///
/// The design is epoch-fenced range migration (ROADMAP item 3 /
/// "Reconfigurable Atomic Transaction Commit"): plan a target HashRing,
/// bulk-copy the moved objects range-by-range from their current primaries
/// with ordinary one-sided verbs while traffic keeps committing against
/// the old ring, then cut over under a short stop-the-world window — stall
/// new transactions, re-copy the delta (objects whose version moved since
/// the bulk pass), publish the target ring. The publish bumps the
/// placement epoch, so every coordinator's cached placement
/// self-invalidates and transactions that started before the cutover
/// observe the mismatch at lock or validation time, abort cheaply, and
/// retry against the new placement (txn::TxnConfig::reconfig_fence knobs).
///
/// Fault model: a source server dying mid-copy re-plans against the new
/// primaries (bounded by max_replans); the joining server dying rolls the
/// join back to the old ring (its partial regions are wiped); an injected
/// crash of the migration driver itself rolls back strictly before the
/// cutover publish and rolls forward at or after it. One migration runs
/// at a time.
class ReconfigManager {
 public:
  ReconfigManager(Cluster* cluster, ReconfigOptions options = {});

  ReconfigManager(const ReconfigManager&) = delete;
  ReconfigManager& operator=(const ReconfigManager&) = delete;

  /// Live join: migrates ranges onto a standby memory server and admits
  /// it to the ring + membership. The node must be attached, outside the
  /// current ring, and not halted.
  Status JoinMemoryNode(rdma::NodeId node);

  /// Planned drain: migrates this server's ranges onto the survivors,
  /// removes it from the ring, marks it dead (back to the standby pool),
  /// and wipes it. At least `replication` servers must remain.
  Status DrainMemoryNode(rdma::NodeId node);

  /// Replication-factor change on the current node set.
  Status SetReplication(uint32_t replication);

  void set_fault_injector(ReconfigFaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

  ReconfigStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

  bool in_progress() const {
    return in_progress_.load(std::memory_order_acquire);
  }

  uint32_t num_ranges() const { return options_.ranges; }
  RangeState range_state(uint32_t range) const {
    return static_cast<RangeState>(
        range_states_[range].load(std::memory_order_acquire));
  }

 private:
  enum class Kind { kJoin, kDrain, kReplication };

  /// One moved object discovered by the enumeration scan.
  struct MoveItem {
    store::TableId table = 0;
    store::Key key = 0;
    uint64_t hash = 0;
    rdma::NodeId source = rdma::kInvalidNodeId;
    uint64_t source_slot = 0;
  };

  uint32_t RangeOf(uint64_t hash) const {
    return static_cast<uint32_t>(
        (static_cast<unsigned __int128>(hash) * options_.ranges) >> 64);
  }

  Status Migrate(Kind kind, rdma::NodeId subject,
                 std::vector<rdma::NodeId> new_nodes,
                 uint32_t new_replication);

  /// Scans the old ring's primaries and collects every object whose
  /// replica set changes under `target`, grouped by hash range.
  Status EnumerateMoves(const HashRing& old_ring, const HashRing& target,
                        std::vector<std::vector<MoveItem>>* by_range);

  /// Copies one object's slot image from its source to every node that
  /// newly replicates it, with one-sided verbs (read + claim + write).
  /// `delta` skips objects whose source version is unchanged since the
  /// bulk pass.
  Status CopyObject(const HashRing& old_ring, const HashRing& target,
                    Kind kind, rdma::NodeId subject, const MoveItem& item,
                    bool delta);

  bool InjectorMaybeCrash(ReconfigCrashPoint point);

  Cluster* cluster_;
  ReconfigOptions options_;
  /// One migration at a time. Held across the migration's waits (and, in
  /// the litmus harness, its turns at the fault injector), so a second
  /// migration must never start from a fiber on the same thread.
  std::mutex mu_;
  std::atomic<bool> in_progress_{false};
  std::atomic<ReconfigFaultInjector*> injector_{nullptr};
  std::vector<std::atomic<uint8_t>> range_states_;

  /// Control-plane queue pairs from the service node to every memory
  /// server (connection setup is a permitted RPC, §1.1).
  std::vector<std::unique_ptr<rdma::QueuePair>> qps_;

  /// Source version recorded per copied object during the bulk pass; the
  /// delta pass re-copies exactly the objects whose version moved.
  /// Indexed by table, then key. kDeferred marks objects found locked
  /// during the bulk pass (always re-copied at delta time).
  static constexpr uint64_t kDeferredVersion = ~0ULL;
  std::vector<std::unordered_map<store::Key, uint64_t>> copied_versions_;

  std::vector<char> slot_buf_;

  mutable std::mutex stats_mu_;
  ReconfigStats stats_;
};

}  // namespace cluster
}  // namespace pandora

#endif  // PANDORA_CLUSTER_RECONFIG_H_
