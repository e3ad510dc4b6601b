#ifndef QP_SERVICE_SERVICE_H_
#define QP_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qp/core/context.h"
#include "qp/core/personalizer.h"
#include "qp/exec/executor.h"
#include "qp/obs/metrics.h"
#include "qp/obs/slo.h"
#include "qp/obs/trace.h"
#include "qp/relational/database.h"
#include "qp/service/selection_cache.h"
#include "qp/service/thread_pool.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/util/status.h"

namespace qp {

/// Tuning knobs of a PersonalizationService.
struct ServiceOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  size_t num_workers = 0;
  /// Selection-cache capacity in entries; 0 disables the cache.
  size_t cache_capacity = 4096;
  /// Admission control: maximum requests waiting for a worker (0 =
  /// unbounded). A batch request arriving with the queue at the bound is
  /// shed immediately — its future resolves to Status::Unavailable with
  /// disposition kShed — instead of growing the queue. The bound is
  /// enforced with compare-and-swap, so the queue never exceeds it even
  /// under concurrent submission. With a fixed worker count it also
  /// bounds the requests admitted at once (queued + running).
  size_t max_queue_depth = 0;
  /// Graceful degradation: when a worker picks up a request and the
  /// queue behind it is at least this deep (0 = disabled), the request
  /// runs with its top-count K stepped down (halved, minimum 1 — the
  /// DeriveOptions tight-budget rule) so the backlog drains faster.
  /// Degradation kicks in before shedding: it needs a lower watermark
  /// than max_queue_depth to be useful.
  size_t degrade_queue_depth = 0;
  /// Profile durability (WAL + snapshots). Leave `storage.dir` empty for
  /// a purely in-memory store; set it (via OpenDurable) to recover
  /// profiles across restarts.
  storage::StorageOptions storage{};
  /// External metrics registry. When null (default) the service creates
  /// and owns one; either way every layer underneath — profile store,
  /// WAL, tier — counts into the same registry, exposed via metrics() /
  /// DumpMetrics(). Not owned; must outlive the service.
  obs::MetricsRegistry* metrics = nullptr;
  /// Set by the sharded front end: this service is shard `shard_id` of a
  /// ShardedPersonalizationService. >= 0 stamps a "shard" span (with the
  /// id) on every request trace and labels every series this shard
  /// registers — service, cache, profile store, storage, WAL and tier —
  /// with {shard="<id>"}; -1 (default) = standalone service, flat names.
  int shard_id = -1;
  /// Trace sampling: the head rate (see obs::SamplingPolicy). The
  /// default traces every request, matching the single-node plane;
  /// clusters dial head_rate down and rely on the tail rule to keep the
  /// interesting traces.
  obs::SamplingPolicy sampling{};
  /// Rolling-window availability/latency objectives; evaluated into
  /// qp_slo_* gauges at DumpMetrics time and via SloStatus().
  obs::SloOptions slo{};
};

/// One unit of batch work: personalize (and optionally execute) `query`
/// for `user_id` under `options`.
struct PersonalizationRequest {
  std::string user_id;
  SelectQuery query;
  PersonalizationOptions options;
  /// When false, stop after rewriting (outcome only, no result set) —
  /// the mode a system pushing personalized SQL to an external DBMS uses.
  bool execute = true;
  /// Per-request latency budget in milliseconds; <= 0 means none. The
  /// clock starts at submission, so the budget covers queue wait. A
  /// request whose budget expires before a worker picks it up resolves to
  /// Status::DeadlineExceeded without running; one that expires mid-run
  /// stops cooperatively and returns what it has (disposition kDegraded).
  double deadline_ms = 0.0;
  /// Optional query context. When set, the effective options are
  /// DeriveOptions(*context, options), and — unless deadline_ms is set —
  /// the context's max_latency_ms doubles as the request budget.
  std::optional<QueryContext> context;
  /// Distributed-trace propagation: set by the router so the shard's
  /// trace fragment shares the router's trace_id and hangs under its
  /// router span. Invalid (default) = this service is the trace edge and
  /// makes its own head-sampling decision.
  obs::TraceContext trace_context;
};

/// How the service resolved a request, for overload accounting: every
/// response is exactly one of these.
enum class RequestDisposition {
  /// Ran to completion with the requested parameters.
  kFull,
  /// Ran, but reduced: K stepped down under queue pressure, selection cut
  /// to a top-K prefix by the deadline, and/or execution truncated. The
  /// response is still a valid (partial) answer with Status::Ok.
  kDegraded,
  /// Rejected at admission (queue bound) or by a stopped pool;
  /// Status::Unavailable, nothing ran.
  kShed,
  /// Budget expired before a worker started it; Status::DeadlineExceeded,
  /// nothing ran.
  kDeadlineExceeded,
};

/// "full" | "degraded" | "shed" | "deadline_exceeded".
const char* ToString(RequestDisposition disposition);

/// What a request resolves to. `status` gates the rest; on success
/// `outcome` always holds the rewrite and `results` the rows when the
/// request asked for execution.
struct PersonalizationResponse {
  Status status = Status::Ok();
  RequestDisposition disposition = RequestDisposition::kFull;
  bool cache_hit = false;
  PersonalizationOutcome outcome;
  ResultSet results;
  double execution_millis = 0.0;
};

/// Aggregate service counters, mirroring SelectionStats/ExecutorStats one
/// level up: phase latencies are summed across requests, queue depth is
/// sampled at submit time. Snapshot via PersonalizationService::stats().
///
/// This struct is a *view*: the live values are registry instruments
/// (qp_service_*, qp_selection_cache_*, and the storage and tier series
/// StorageStats and TierStats read), and stats() materializes them. The
/// dispositions are the qp_service_requests_by_disposition_total series.
/// The accounting identity `requests == full + degraded + shed +
/// deadline_exceeded + errors` holds exactly at quiescence; a concurrent
/// reader may observe the disposition sum *behind* requests (requests
/// are counted at admission, dispositions at resolution) but never ahead
/// of it — stats() reads dispositions first, and the counters' seq_cst
/// ordering guarantees a disposition increment is never visible without
/// the requests increment that preceded it.
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t errors = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Requests that bypassed the cache (semantic filter attached, or the
  /// cache is disabled).
  uint64_t cache_bypasses = 0;
  /// Selections cached, entries the LRU bound evicted, and entries
  /// dropped by per-user invalidation (InvalidateUserSelections).
  uint64_t cache_insertions = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_user_invalidations = 0;
  /// Overload accounting (see RequestDisposition): requests rejected at
  /// admission, expired before starting, and completed degraded. Requests
  /// that completed full are requests - errors - shed - deadline_exceeded
  /// - degraded.
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t degraded = 0;
  /// Requests that completed with Status::Ok and no reduction.
  uint64_t full = 0;
  size_t max_queue_depth = 0;
  double selection_millis = 0.0;
  double integration_millis = 0.0;
  double execution_millis = 0.0;
  /// Durability counters: WAL records/bytes/fsyncs, checkpoints and the
  /// recovery cost of the Open that produced this service. All zero for
  /// an in-memory service.
  storage::StorageStats storage;
  /// Hot/cold residency counters; enabled for every durable store.
  storage::TierStats tier;
};

/// The scale-out front door: a thread-pool-backed personalization service
/// over a shared read-only Database and a striped profile store, with a
/// per-user top-K selection cache. Independent (user, query) pairs of a
/// batch fan out across workers; per-request results are identical to a
/// serial Personalizer run (the executor canonicalizes row order, the
/// selector is deterministic, and profile snapshots are immutable).
class PersonalizationService {
 public:
  /// `db` is retained and must outlive the service; its indexes are
  /// warmed eagerly so concurrent execution never mutates shared state.
  /// The profile store is in-memory; `options.storage` is ignored here
  /// (a constructor cannot surface recovery failures) — use OpenDurable
  /// for a durable service.
  PersonalizationService(const Database* db, ServiceOptions options = {});

  /// Builds a service whose profile store is durable: opens (or
  /// initializes) `options.storage.dir`, recovering every profile that
  /// was stored there — snapshot load + WAL replay. Fails with the
  /// recovery error on corruption rather than serving partial state.
  static Result<std::unique_ptr<PersonalizationService>> OpenDurable(
      const Database* db, ServiceOptions options);

  /// Profile management (thread-safe, usable while batches are in
  /// flight; see ProfileSnapshot for the snapshot semantics). Mutations on
  /// a durable service are write-ahead logged.
  storage::DurableProfileStore& profiles() { return *store_; }
  const storage::DurableProfileStore& profiles() const { return *store_; }

  /// Drops user_id's selection-cache entries (and only theirs) — the
  /// targeted invalidation a routed mutation issues. Epoch keying already
  /// prevents stale hits; this frees the capacity they occupied. Returns
  /// the number of entries dropped.
  size_t InvalidateUserSelections(const std::string& user_id);

  /// Fans the requests across the worker pool; future i resolves to
  /// request i's response. Errors (unknown user, invalid query) surface
  /// per-response, never as exceptions.
  std::vector<std::future<PersonalizationResponse>> PersonalizeBatch(
      std::vector<PersonalizationRequest> requests);

  /// Convenience: PersonalizeBatch + wait. Response order = request
  /// order, independent of completion order.
  std::vector<PersonalizationResponse> PersonalizeBatchAndWait(
      std::vector<PersonalizationRequest> requests);

  /// The serial path every worker runs; public so callers can compare
  /// threaded results against an in-thread baseline.
  PersonalizationResponse PersonalizeOne(const PersonalizationRequest& request);

  size_t num_workers() const { return pool_.num_threads(); }
  ServiceStats stats() const;

  /// The live metrics registry every layer of this service publishes
  /// into (owned unless ServiceOptions::metrics supplied an external
  /// one). Stable for the service's lifetime.
  obs::MetricsRegistry* metrics() const { return scope_.registry(); }

  /// Exports the full registry in the given format, first refreshing
  /// sampled gauges (queue depth, inflight, cache size, live WAL segment
  /// bytes, tier residency, SLO burn rates) so the dump is a coherent
  /// point-in-time view.
  std::string DumpMetrics(obs::ExportFormat format) const;

  /// The rolling-window SLO evaluation (availability + latency burn
  /// rates). Also published as qp_slo_* gauges by DumpMetrics.
  obs::SloSnapshot SloStatus() const { return slo_.Evaluate(); }

  const ServiceOptions& options() const { return options_; }

  /// Per-request pipeline tracing: while a sink is attached, every
  /// request carries an obs::RequestTrace through the pipeline — spans
  /// for profile lookup, cache lookup, selection, integration and
  /// execution (with per-disjunct children) — and delivers it to the
  /// sink on resolution. Shed and queue-expired requests deliver a
  /// minimal trace recording the disposition and the phase they stopped
  /// in. nullptr detaches. The sink must be thread-safe and outlive the
  /// service (or be detached first); toggling mid-flight is safe, but
  /// requests already past the check keep their previous decision.
  void set_trace_sink(obs::TraceSink* sink) {
    trace_sink_.store(sink, std::memory_order_release);
  }

 private:
  /// The service counting into `scope` (ServiceOptions::metrics, or a
  /// registry the scope owns, under this service's labels) over `store`:
  /// the one OpenDurable recovered, or a fresh in-memory store when null.
  PersonalizationService(const Database* db, ServiceOptions options,
                         obs::MetricScope scope,
                         std::unique_ptr<storage::DurableProfileStore> store);

  /// Reserves a queue slot, or returns false when the queue is at
  /// max_queue_depth — the caller sheds the request. CAS bounded, so the
  /// queue never exceeds the bound.
  bool TryAdmit();

  /// The full pipeline under a cancel token. `degrade` steps the
  /// criterion's K down before running (queue-pressure response). This
  /// wrapper owns the per-request observability: the requests counter,
  /// the trace (created when a sink is attached, delivered on every
  /// path), the request-latency histogram and the disposition counter.
  PersonalizationResponse PersonalizeInternal(
      const PersonalizationRequest& request, const CancelToken* cancel,
      bool degrade);

  /// The pipeline itself: profile lookup, cache/selection, integration,
  /// execution. Pure with respect to accounting except for the cache
  /// hit/miss/bypass counters and per-phase latency histograms. A
  /// quarantined profile skips selection and integration: its raw query
  /// runs through the same execution step, degraded.
  PersonalizationResponse RunPipeline(const PersonalizationRequest& request,
                                      const CancelToken* cancel, bool degrade,
                                      obs::RequestTrace* trace);

  /// The pipeline's rewrite: preference selection (through the cache
  /// unless bypassed), then integration into `response->outcome`.
  Status Rewrite(const PersonalizationRequest& request,
                 const ProfileSnapshot& snapshot,
                 const PersonalizationOptions& options,
                 const CancelToken* cancel, obs::RequestTrace* trace,
                 PersonalizationResponse* response);

  /// The tail sampling rule, for a request the head coin did not trace:
  /// keep its trace when the disposition is not full, when it ran slower
  /// than the rolling p99 of qp_service_request_seconds (refreshed every
  /// 1024 completions), or when a fault fire overlapped it.
  bool KeepTail(std::string_view disposition, double elapsed_millis,
                bool fault_fired) const;

  /// The one refusal path, for a request that never runs: expired before
  /// start or in the queue (`status` DeadlineExceeded), or shed at
  /// admission or by a stopped pool (`status` Unavailable). Counts the
  /// request and its disposition, records the SLO miss and, with a sink
  /// attached, delivers a minimal trace naming the disposition and the
  /// `phase` it stopped in, under the caller's `context`. Such a request
  /// is never full, so the tail rule keeps its trace whether or not it
  /// was head-sampled.
  PersonalizationResponse Refuse(Status status, const char* phase,
                                 const obs::TraceContext& context);

  const Database* db_;
  ServiceOptions options_;
  /// Declaration order matters: the registry must be live before the
  /// instruments below resolve into it. `scope_` is the registry under
  /// this service's labels ({shard="<id>"} on a shard, none standalone);
  /// it owns the registry when ServiceOptions::metrics named none.
  const obs::MetricScope scope_;
  std::unique_ptr<storage::DurableProfileStore> store_;
  SelectionCache cache_;
  bool cache_enabled_;
  ThreadPool pool_;

  /// Requests waiting for a worker (the admission bound's count), and
  /// requests admitted but not yet resolved (queued + running; the
  /// qp_service_inflight gauge).
  std::atomic<size_t> queued_{0};
  std::atomic<size_t> inflight_{0};

  std::atomic<obs::TraceSink*> trace_sink_{nullptr};

  /// SLO objectives over the request stream (lock-free ring; see
  /// obs::SloTracker). Shed/expired requests count as unserved.
  obs::SloTracker slo_;
  /// Tail-sampling support: completions since start (drives the p99
  /// refresh cadence) and the cached p99 in millis.
  std::atomic<uint64_t> completed_{0};
  std::atomic<double> slow_p99_millis_{0.0};

  /// Hot-path registry instruments, resolved once at construction (the
  /// registry hands out stable pointers). Phase latencies live in
  /// histograms; ServiceStats' *_millis sums are the histogram sums.
  struct Instruments {
    explicit Instruments(const obs::MetricScope& scope);
    obs::Counter* requests;
    obs::Counter* batches;
    obs::Counter* cache_hits;
    obs::Counter* cache_misses;
    obs::Counter* cache_bypasses;
    obs::Counter* cache_insertions;
    obs::Counter* cache_evictions;
    obs::Counter* cache_user_invalidations;
    /// One qp_service_requests_by_disposition_total{disposition=...}
    /// series per disposition.
    obs::Counter* full;
    obs::Counter* degraded;
    obs::Counter* shed;
    obs::Counter* deadline_exceeded;
    obs::Counter* error;
    obs::Gauge* max_queue_depth;
    obs::Histogram* request_seconds;
    obs::Histogram* selection_seconds;
    obs::Histogram* integration_seconds;
    obs::Histogram* execution_seconds;
    /// The executor's work (ExecutorStats) per executed request.
    obs::Counter* exec_disjuncts;
    obs::Counter* exec_bindings;
    obs::Counter* exec_raw_rows;
    void CountExecution(const ExecutorStats& stats) const;
  };
  const Instruments inst_;
};

}  // namespace qp

#endif  // QP_SERVICE_SERVICE_H_
