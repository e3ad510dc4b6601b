#ifndef QP_SHARD_SHARDED_SERVICE_H_
#define QP_SHARD_SHARDED_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "qp/obs/metrics.h"
#include "qp/obs/trace.h"
#include "qp/relational/database.h"
#include "qp/service/service.h"
#include "qp/shard/routing_table.h"
#include "qp/shard/shard_migrator.h"
#include "qp/util/status.h"

namespace qp {
namespace shard {

/// How a ShardedPersonalizationService is laid out.
struct ShardedOptions {
  /// Number of shards a *fresh* cluster starts with. Users hash (FNV-1a)
  /// onto fixed partitions, partitions map to shards through the
  /// versioned routing table persisted as <dir>/ROUTING — and once that
  /// file exists it is the truth: reopening an existing cluster ignores
  /// this field (the shard count changes only through Reshard()).
  size_t num_shards = 4;
  /// Hash-space partitions of a fresh cluster — the granularity of live
  /// resharding, fixed for the cluster's lifetime. With the default 64
  /// and a power-of-two shard count, routing matches the PR 7 fixed
  /// hash%N router exactly.
  size_t num_partitions = RoutingTable::kDefaultPartitions;
  /// Root storage directory; shard i owns `dir`/shard-<i> with its own
  /// MANIFEST, snapshot and WAL. Must be non-empty: a sharded deployment
  /// exists to bound per-shard state, which requires durability.
  std::string dir;
  /// Retry/backoff tuning for live migration steps (see ShardMigrator).
  MigrationOptions migration;
  /// Per-shard service tuning, applied to every shard. `storage.dir` is
  /// overridden with the shard subdirectory, `shard_id` with the shard's
  /// index, and `metrics` with the cluster-wide registry. Each shard
  /// labels every series it registers — service, cache, profile store,
  /// storage, WAL, tier — {shard="<id>"}, so one registry carries
  /// genuinely per-shard series (no collisions) and per-shard stats read
  /// back exact; a recovered shard continues its series.
  /// `service.sampling` is the cluster's head/tail trace-sampling policy
  /// — the router makes the head decision and the shards honour it. Set
  /// `service.storage.hot_capacity` to bound each shard's resident
  /// profiles.
  ServiceOptions service;
};

/// Router accounting: every routed request/mutation is counted here, on
/// top of whatever the target shard counts for itself.
struct RouterStats {
  uint64_t requests = 0;   // Personalization requests routed.
  uint64_t mutations = 0;  // Profile mutations routed.
  /// Requests/mutations refused by the router itself: target shard down,
  /// or an injected "shard.route" fault.
  uint64_t shed = 0;
  uint64_t shard_kills = 0;
  uint64_t shard_recoveries = 0;
};

/// One row of ShardedStats: a shard's liveness plus its full service
/// stats (storage, cache, tier residency, breaker, scrubber).
struct ShardRow {
  size_t shard_id = 0;
  bool alive = false;
  ServiceStats stats;  // Zero-valued while the shard is down.
};

struct ShardedStats {
  RouterStats router;
  /// Routing-table version serving right now (monotonic; bumps on every
  /// cutover and shard-count change).
  uint64_t routing_version = 0;
  size_t num_partitions = 0;
  MigrationStats migration;
  std::vector<ShardRow> shards;
};

/// The scale-out front end: N independent PersonalizationServices, each
/// owning its own durable profile store under its own subdirectory,
/// behind a hash router. A user's profile and its
/// queries live on exactly one shard, so shards share nothing but the
/// read-only Database and the metrics registry.
///
/// Fault containment is the point: KillShard drops one shard's service
/// and fences its store (closing its WAL cleanly) while the other
/// shards keep serving at full fidelity; requests routed to the dead
/// shard are shed with Status::Unavailable. RecoverShard reopens the
/// shard from its own directory — snapshot + WAL replay — and because
/// every mutation is acknowledged only after its WAL append, a
/// kill/recover cycle loses nothing that was ever acknowledged.
///
/// Thread-safe. Routing takes a shared lock only long enough to copy
/// the target shard's shared_ptr, so a concurrent kill never races a
/// request mid-pipeline: the killed service stays alive until the last
/// in-flight request releases its reference.
class ShardedPersonalizationService {
 public:
  /// Opens (or initializes) every shard under `options.dir`. Fails with
  /// the first shard's recovery error on corruption.
  static Result<std::unique_ptr<ShardedPersonalizationService>> Open(
      const Database* db, ShardedOptions options);

  ~ShardedPersonalizationService();

  ShardedPersonalizationService(const ShardedPersonalizationService&) = delete;
  ShardedPersonalizationService& operator=(
      const ShardedPersonalizationService&) = delete;

  /// The user's owner shard under the *current* routing-table version
  /// (FNV-1a hash -> partition -> owner). Stable between reshards.
  size_t ShardFor(const std::string& user_id) const;

  /// The user's hash partition — the unit of live migration.
  size_t PartitionFor(const std::string& user_id) const;

  /// A copy of the routing table serving right now.
  RoutingTable routing() const;
  uint64_t routing_version() const;

  /// Routes one request to its owner shard ("shard.route" fault site).
  /// A dead target shard sheds the request with Status::Unavailable.
  PersonalizationResponse Personalize(const PersonalizationRequest& request);

  /// Routes a batch: requests group by owner shard and fan out across
  /// each shard's worker pool concurrently; response order = request
  /// order. Requests owned by a dead shard resolve shed.
  std::vector<PersonalizationResponse> PersonalizeBatchAndWait(
      std::vector<PersonalizationRequest> requests);

  /// Profile mutations, routed like requests. On success the owner
  /// shard's selection cache drops exactly this user's entries.
  Status PutProfile(const std::string& user_id, UserProfile profile);
  Status UpsertProfile(const std::string& user_id,
                       const std::vector<AtomicPreference>& preferences);
  Status RemoveProfile(const std::string& user_id);
  Result<ProfileSnapshot> GetProfile(const std::string& user_id);

  /// Drops shard `index`'s service and closes its store before
  /// returning: in-flight requests finish (they hold a reference) and
  /// keep reading, new ones shed, and a mutation still holding the old
  /// instance either completed before the close or fails Unavailable —
  /// so nothing it acknowledges can land behind a later RecoverShard's
  /// replay. Idempotent — killing a dead shard is a no-op.
  Status KillShard(size_t index);

  /// Reopens shard `index` from its directory (snapshot + WAL replay),
  /// only after the previous writer's Close has returned — even under a
  /// concurrent kill. Every mutation acknowledged before the kill is
  /// recovered — the zero-loss guarantee the chaos suite asserts. No-op
  /// if alive.
  Status RecoverShard(size_t index);

  /// Live resharding: grows (opening fresh shard directories) or
  /// shrinks (retiring emptied ones) the cluster to `new_num_shards`,
  /// migrating every partition that changes owner through the
  /// ShardMigrator's copy -> tail -> drain-and-cutover machine. The
  /// cluster serves throughout: reads never pause, and a partition's
  /// mutations pause only for its one drain-and-cutover barrier. A
  /// shrink resolves every journaled migration before it retires a
  /// shard, so no journal entry outlives the shard it names. Safe to
  /// re-run after a partial failure — already-moved partitions are
  /// no-ops. Returns the first partition's error when some partitions
  /// could not move (their users stay on their source shards; routing
  /// stays consistent). Serializes concurrent Reshard calls.
  Status Reshard(size_t new_num_shards);

  MigrationStats migration_stats() const;

  /// The trace of the last migration driven by this cluster's migrator
  /// (per-step spans, linked by trace_id to the owning Reshard
  /// operation); nullptr before the first migration. The \migrations
  /// span-tree source.
  std::shared_ptr<const obs::RequestTrace> last_migration_trace() const;

  bool IsShardAlive(size_t index) const;
  /// Shards currently addressable (routing-table truth, not the fresh-
  /// cluster seed in ShardedOptions).
  size_t num_shards() const;
  size_t alive_shards() const;

  /// Direct access to one shard's service (nullptr while down) — the
  /// escape hatch tests and qpshell use for per-shard inspection.
  std::shared_ptr<PersonalizationService> Shard(size_t index) const;

  ShardedStats stats() const;
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Attaches `sink` to every shard (and to shards recovered later).
  /// Same contract as PersonalizationService::set_trace_sink.
  void set_trace_sink(obs::TraceSink* sink);

 private:
  /// Per-partition coordination between the mutation path and the
  /// migrator. Mutators hold `mutex` across route + apply, so holding it
  /// waits out every mutation of the partition in flight: the migrator
  /// takes it briefly to read a copy watermark, and for its one
  /// drain-and-cutover barrier across the final tail and the owner flip
  /// — bounded added latency, never unavailability.
  struct PartitionState {
    std::mutex mutex;
  };

  ShardedPersonalizationService(const Database* db, ShardedOptions options);

  /// Builds shard `index`'s service from its subdirectory.
  Result<std::shared_ptr<PersonalizationService>> OpenShard(size_t index);

  /// The router's side of one request, from Enter to Leave: the trace
  /// context the owner shard receives, and the router's own trace
  /// fragment when the request is head-sampled.
  struct RouterHop {
    obs::TraceContext context;
    std::optional<obs::RequestTrace> fragment;
    size_t span = 0;
  };

  /// The router's half of every routed request, single or batched:
  /// counts it, runs the "shard.route" fault site and sheds it when that
  /// fires or its owner (shard `index`, `alive` or not) is down — the
  /// shed response is returned. Otherwise, with a sink attached, resolves
  /// the trace edge (honours a valid incoming context, else mints the
  /// cluster trace id and flips the head coin) into `hop->context` and,
  /// for a head-sampled request, opens the "router" span in
  /// `hop->fragment`. Without a sink `hop->context` is the incoming one.
  std::optional<PersonalizationResponse> Enter(
      const PersonalizationRequest& request, size_t index, bool alive,
      obs::TraceSink* sink, RouterHop* hop);

  /// Closes and delivers `hop`'s router fragment, if it has one, with
  /// the response's disposition.
  static void Leave(RouterHop* hop, const PersonalizationResponse& response,
                    obs::TraceSink* sink);

  /// The routing read: copies the target's shared_ptr under the shared
  /// lock (nullptr = shard down).
  std::shared_ptr<PersonalizationService> Route(const std::string& user_id,
                                                size_t* shard_index) const;

  /// The current table, one shared-lock hold.
  std::shared_ptr<const RoutingTable> RoutingSnapshot() const;

  /// Persists `table` as <dir>/ROUTING (the cutover commit point).
  Status PersistRouting(const RoutingTable& table);
  /// Swaps the in-memory table (after a successful persist).
  void InstallRouting(RoutingTable table);
  /// The serialized read-edit-persist-install cycle every routing
  /// change goes through: `edit` mutates a copy of the current table,
  /// the version bumps, the file commits, the pointer swaps. Concurrent
  /// cutovers of different partitions cannot lose each other's flips.
  Status CommitRoutingChange(const std::function<void(RoutingTable&)>& edit);

  /// Journal maintenance ("migrate.journal" fault site): the on-disk
  /// MIGRATION file always mirrors the in-memory entry list.
  Status JournalAdd(const MigrationJournalEntry& entry);
  Status JournalRemove(uint32_t partition);

  /// Resolves every journaled migration: cutover committed -> finish the
  /// source cleanup, else -> drop the partial target copy. Never a
  /// half-moved user. Runs at Open (crash recovery) and in a shrink
  /// before it retires a shard, while no migration is in flight.
  Status ResolveJournal();

  /// Deletes every partition-`partition` user from shard `shard` and
  /// drops their cached selections (cutover cleanup / abort rollback).
  Status RemovePartitionUsers(uint32_t partition, uint32_t shard);

  /// The mutation path: routes `user_id` under its partition's mutex and
  /// applies `apply` to the owner (the acknowledgement). The owner is
  /// read under the mutex, so a cutover cannot slip between route and
  /// apply.
  Status RouteMutation(
      const std::string& user_id,
      const std::function<Status(PersonalizationService&)>& apply);

  PersonalizationResponse ShedResponse(const std::string& reason) const;

  const Database* db_;
  ShardedOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  std::atomic<obs::TraceSink*> trace_sink_{nullptr};

  /// Guards the slot table and the routing pointer; slots_[i] == nullptr
  /// while shard i is down.
  mutable std::shared_mutex mutex_;
  std::vector<std::shared_ptr<PersonalizationService>> slots_;
  std::shared_ptr<const RoutingTable> routing_;

  /// Fixed-size (one per partition, never resized after Open), so
  /// references stay valid without holding mutex_.
  std::vector<std::unique_ptr<PartitionState>> partitions_;

  /// Serializes Reshard() calls and journal file rewrites.
  std::mutex reshard_mutex_;
  /// Serializes every slot open and teardown — KillShard's fence,
  /// RecoverShard, and Reshard's grow/retire — so a shard directory is
  /// reopened only after its previous store's Close has returned.
  /// Ordered after reshard_mutex_ and before mutex_.
  std::mutex lifecycle_mutex_;
  std::mutex routing_write_mutex_;
  mutable std::mutex journal_mutex_;
  std::vector<MigrationJournalEntry> journal_;

  std::unique_ptr<ShardMigrator> migrator_;

  /// Router instruments (cluster registry, qp_router_*).
  obs::Counter* metric_requests_ = nullptr;
  obs::Counter* metric_mutations_ = nullptr;
  obs::Counter* metric_shed_ = nullptr;
  obs::Counter* metric_kills_ = nullptr;
  obs::Counter* metric_recoveries_ = nullptr;
  obs::Gauge* gauge_routing_version_ = nullptr;

  friend class ShardMigrator;
};

}  // namespace shard
}  // namespace qp

#endif  // QP_SHARD_SHARDED_SERVICE_H_
