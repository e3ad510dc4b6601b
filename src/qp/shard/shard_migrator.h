#ifndef QP_SHARD_SHARD_MIGRATOR_H_
#define QP_SHARD_SHARD_MIGRATOR_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "qp/obs/metrics.h"
#include "qp/obs/trace.h"
#include "qp/shard/routing_table.h"
#include "qp/util/clock.h"
#include "qp/util/status.h"

namespace qp {
namespace shard {

class ShardedPersonalizationService;

/// Retry/backoff tuning for every migration step. Steps are the unit of
/// failure: a faulted copy batch, tail read, journal write or cutover
/// commit is retried with exponential backoff up to `max_attempts`;
/// exhaustion aborts the partition's migration cleanly (the source
/// keeps serving, routing is untouched).
struct MigrationOptions {
  int max_attempts = 5;
  std::chrono::milliseconds backoff{1};
  std::chrono::milliseconds backoff_max{100};
  /// Time source for backoff sleeps; nullptr = Clock::Real().
  Clock* clock = nullptr;
};

/// Migration accounting, surfaced through ShardedStats and \migrations.
struct MigrationStats {
  uint64_t partitions_migrated = 0;  // Cutovers committed.
  uint64_t partitions_aborted = 0;   // Migrations rolled back cleanly.
  uint64_t users_copied = 0;         // Profiles moved by copy phases.
  uint64_t tail_records = 0;         // WAL records replayed onto targets.
  uint64_t retries = 0;              // Step retries across all phases.
  uint64_t copy_restarts = 0;        // Copy phases restarted (WAL rotated).
  uint64_t active = 0;               // Partitions migrating right now.
  bool resharding = false;           // A Reshard() call is in flight.
};

/// Drives the per-partition live-migration state machine:
///
///   copy      drop whatever the target already holds for the partition
///             (a stale copy is never acknowledged state), then snapshot
///             the partition's users source -> target, with a WAL
///             watermark taken first under the partition's mutex
///             ("migrate.copy" fault site);
///   tail      replay the source's WAL records past the watermark onto
///             the target until caught up ("migrate.tail");
///   drain     block the partition's mutators and apply the final tail —
///             target now equals source exactly;
///   cutover   still under that one barrier, persist the routing table
///             with the partition's owner flipped and the version bumped
///             — the atomic commit point ("migrate.cutover") — and
///             install it, then release the mutators to the new owner;
///   cleanup   delete the partition's users from the source and drop
///             their cached selections.
///
/// The intent is journaled to <dir>/MIGRATION before anything moves
/// ("migrate.journal"), so a crash at any point resolves on reopen:
/// routing says the target owns the partition -> finish cleanup;
/// otherwise -> drop the partial copy. Every step retries with
/// exponential backoff; exhaustion aborts the partition cleanly — the
/// source shard keeps serving reads and acknowledged writes throughout,
/// so degradation is bounded latency (the drain-and-cutover barrier),
/// never unavailability.
///
/// Owned by (and operating on) one ShardedPersonalizationService; all
/// methods are called with the service alive. Thread-safe: concurrent
/// MigratePartition calls on distinct partitions are fine, and Reshard
/// serializes itself on the service's reshard mutex.
class ShardMigrator {
 public:
  ShardMigrator(ShardedPersonalizationService* cluster,
                MigrationOptions options, obs::MetricsRegistry* metrics);

  /// Migrates every partition whose owner differs between the current
  /// routing table and `plan`, in partition order. Partitions that
  /// abort are skipped (the rest still migrate); the first failure is
  /// returned, naming its partition. Ok = the cluster now routes by
  /// `plan`'s ownership. `parent` links every per-partition migration
  /// trace to the owning operation (the Reshard op trace); an invalid
  /// context leaves each migration a standalone trace.
  Status MigrateTo(const RoutingTable& plan,
                   const obs::TraceContext& parent = obs::TraceContext{});

  /// One partition end to end; no-op when `target` already owns it.
  Status MigratePartition(uint32_t partition, uint32_t target,
                          const obs::TraceContext& parent =
                              obs::TraceContext{});

  MigrationStats stats() const;

  /// The most recent partition migration's per-step trace (copy, tail,
  /// drain, cutover, cleanup spans with their counters); nullptr before
  /// the first migration.
  std::shared_ptr<const obs::RequestTrace> last_trace() const;

 private:
  /// Runs `step` with retry + exponential backoff; `what` names the
  /// step in the exhaustion error.
  Status WithRetries(const char* what, const std::function<Status()>& step);

  /// Drops the target's partition users, then copies every partition
  /// user source -> target, watermark first. On success *watermark holds
  /// the WAL seqno the tail starts after.
  Status CopyPhase(uint32_t partition, uint32_t source, uint32_t target,
                   uint64_t* watermark, obs::RequestTrace* trace);

  /// One tail round: read records past *applied, replay the partition's
  /// onto the target ("migrate.apply" fault site per record), advance
  /// *applied past each applied record. *caught_up when nothing is new
  /// or the round reached the head seqno observed before the read (the
  /// shared WAL never drains while co-located partitions keep writing).
  Status TailRound(uint32_t partition, uint32_t source, uint32_t target,
                   uint64_t* applied, bool* caught_up);

  /// Copies one user's current source state onto the target (Remove
  /// when the source no longer has the user). Reads through Peek, so the
  /// source's hot set is left as it was.
  Status CopyUser(const std::string& user_id, uint32_t source,
                  uint32_t target);

  /// Rolls a failed migration back: partial copy dropped from the
  /// target, journal entry cleared (left for reopen resolution if the
  /// target is unreachable). Returns `cause`.
  Status Abort(uint32_t partition, uint32_t source, uint32_t target,
               Status cause);

  ShardedPersonalizationService* cluster_;
  MigrationOptions options_;
  Clock* clock_;

  mutable std::mutex last_trace_mutex_;
  std::shared_ptr<const obs::RequestTrace> last_trace_;

  obs::Counter* metric_migrated_ = nullptr;
  obs::Counter* metric_aborted_ = nullptr;
  obs::Counter* metric_users_copied_ = nullptr;
  obs::Counter* metric_tail_records_ = nullptr;
  obs::Counter* metric_retries_ = nullptr;
  obs::Counter* metric_copy_restarts_ = nullptr;
  obs::Gauge* gauge_active_ = nullptr;
  obs::Gauge* gauge_resharding_ = nullptr;
  obs::Histogram* metric_partition_seconds_ = nullptr;

  friend class ShardedPersonalizationService;
};

}  // namespace shard
}  // namespace qp

#endif  // QP_SHARD_SHARD_MIGRATOR_H_
