#include "qp/service/service.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "qp/core/query_signature.h"
#include "qp/core/selection.h"
#include "qp/obs/flight_recorder.h"
#include "qp/util/fault_hub.h"
#include "qp/util/timer.h"

namespace qp {
namespace {

/// The request's latency budget: an explicit deadline_ms wins, else the
/// context's desired response time, else unbounded.
Deadline EffectiveDeadline(const PersonalizationRequest& request) {
  if (request.deadline_ms > 0.0) {
    return Deadline::AfterMillis(request.deadline_ms);
  }
  if (request.context.has_value() &&
      request.context->max_latency_ms.has_value()) {
    return Deadline::AfterMillis(*request.context->max_latency_ms);
  }
  return Deadline::Infinite();
}

/// Where a service and everything under it count: the caller's registry
/// or an owned one. A shard labels every series it registers
/// {shard="<id>"}, so every shard of a cluster shares one registry
/// without colliding; a standalone service keeps the flat names.
obs::MetricScope ServiceScope(const ServiceOptions& options) {
  obs::MetricLabels labels;
  if (options.shard_id >= 0) {
    labels.emplace_back("shard", std::to_string(options.shard_id));
  }
  return obs::MetricScope(options.metrics, std::move(labels)).OrOwn();
}

}  // namespace

const char* ToString(RequestDisposition disposition) {
  switch (disposition) {
    case RequestDisposition::kFull:
      return "full";
    case RequestDisposition::kDegraded:
      return "degraded";
    case RequestDisposition::kShed:
      return "shed";
    case RequestDisposition::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "unknown";
}

PersonalizationService::Instruments::Instruments(const obs::MetricScope& scope)
    : requests(scope.counter("qp_service_requests_total")),
      batches(scope.counter("qp_service_batches_total")),
      cache_hits(scope.counter("qp_service_cache_hits_total")),
      cache_misses(scope.counter("qp_service_cache_misses_total")),
      cache_bypasses(scope.counter("qp_service_cache_bypasses_total")),
      cache_insertions(scope.counter("qp_selection_cache_insertions_total")),
      cache_evictions(scope.counter("qp_selection_cache_evictions_total")),
      cache_user_invalidations(
          scope.counter("qp_selection_cache_user_invalidations_total")),
      max_queue_depth(scope.gauge("qp_service_max_queue_depth")),
      request_seconds(scope.histogram("qp_service_request_seconds")),
      selection_seconds(scope.histogram("qp_service_selection_seconds")),
      integration_seconds(scope.histogram("qp_service_integration_seconds")),
      execution_seconds(scope.histogram("qp_service_execution_seconds")),
      exec_disjuncts(scope.counter("qp_exec_disjuncts_total")),
      exec_bindings(scope.counter("qp_exec_bindings_total")),
      exec_raw_rows(scope.counter("qp_exec_raw_rows_total")) {
  auto disposition = [&](const char* name) {
    obs::MetricLabels labels = scope.labels();
    labels.emplace_back("disposition", name);
    return scope.registry()->counter(
        "qp_service_requests_by_disposition_total", labels);
  };
  full = disposition("full");
  degraded = disposition("degraded");
  shed = disposition("shed");
  deadline_exceeded = disposition("deadline_exceeded");
  error = disposition("error");
}

void PersonalizationService::Instruments::CountExecution(
    const ExecutorStats& stats) const {
  exec_disjuncts->Add(stats.disjuncts);
  exec_bindings->Add(stats.bindings);
  exec_raw_rows->Add(stats.raw_rows);
}

PersonalizationService::PersonalizationService(const Database* db,
                                               ServiceOptions options)
    : PersonalizationService(db, options, ServiceScope(options),
                             /*store=*/nullptr) {}

PersonalizationService::PersonalizationService(
    const Database* db, ServiceOptions options, obs::MetricScope scope,
    std::unique_ptr<storage::DurableProfileStore> store)
    : db_(db),
      options_(options),
      scope_(std::move(scope)),
      store_(store != nullptr ? std::move(store)
                              : std::make_unique<storage::DurableProfileStore>(
                                    &db->schema(), scope_)),
      cache_(options.cache_capacity == 0 ? 1 : options.cache_capacity),
      cache_enabled_(options.cache_capacity > 0),
      pool_(options.num_workers > 0 ? options.num_workers
                                    : std::thread::hardware_concurrency()),
      slo_(options.slo),
      inst_(scope_) {
  // Concurrent workers share the database read-only; build every lazy
  // column index up front so Lookup never mutates under them.
  db_->WarmIndexes();
  obs::MetricsRegistry* registry = scope_.registry();
  registry->SetHelp("qp_service_requests_total",
                    "Requests admitted (counted at admission; dispositions "
                    "resolve later).");
  registry->SetHelp("qp_service_requests_by_disposition_total",
                    "Requests by final disposition: full | degraded | shed | "
                    "deadline_exceeded | error.");
  registry->SetHelp("qp_service_request_seconds",
                    "End-to-end request latency (seconds), queue wait "
                    "included.");
  // The flight recorder wants fault fires even when the storage layer
  // (whose static registrar usually installs the hook) is not linked in.
  FaultHub::SetFireListener(&obs::RecordFaultFire);
}

Result<std::unique_ptr<PersonalizationService>>
PersonalizationService::OpenDurable(const Database* db,
                                    ServiceOptions options) {
  if (options.storage.dir.empty()) {
    return Status::InvalidArgument(
        "OpenDurable requires options.storage.dir");
  }
  // The scope must exist before the store opens: recovery gauges and the
  // WAL's instruments are resolved against it during Open. The service
  // shares it, owned registry included.
  obs::MetricScope scope = ServiceScope(options);
  options.storage.metrics = scope;
  QP_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::DurableProfileStore> store,
      storage::DurableProfileStore::Open(&db->schema(), options.storage));
  return std::unique_ptr<PersonalizationService>(new PersonalizationService(
      db, std::move(options), std::move(scope), std::move(store)));
}

bool PersonalizationService::TryAdmit() {
  // Chaos site: an injected admission refusal takes the existing shed
  // path — the future still resolves, the accounting identity still
  // holds. Delay mode models a slow admission check instead.
  if (!QP_FAULT_POINT("service.admit").ok()) return false;
  // The CAS keeps the queue within the bound whatever the concurrent
  // admitters do.
  const size_t bound = options_.max_queue_depth;
  size_t current = queued_.load(std::memory_order_relaxed);
  do {
    if (bound != 0 && current >= bound) return false;
  } while (!queued_.compare_exchange_weak(current, current + 1,
                                          std::memory_order_relaxed));
  inflight_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PersonalizationService::KeepTail(std::string_view disposition,
                                      double elapsed_millis,
                                      bool fault_fired) const {
  if (disposition != ToString(RequestDisposition::kFull)) return true;
  const double slow = slow_p99_millis_.load(std::memory_order_relaxed);
  return (slow > 0.0 && elapsed_millis >= slow) || fault_fired;
}

PersonalizationResponse PersonalizationService::Refuse(
    Status status, const char* phase, const obs::TraceContext& context) {
  PersonalizationResponse response;
  const bool shed = status.code() == StatusCode::kUnavailable;
  response.status = std::move(status);
  response.disposition = shed ? RequestDisposition::kShed
                              : RequestDisposition::kDeadlineExceeded;
  inst_.requests->Add(1);
  (shed ? inst_.shed : inst_.deadline_exceeded)->Add(1);
  // An unserved request attains neither objective.
  slo_.Record(/*served=*/false, std::numeric_limits<double>::infinity());
  if (obs::TraceSink* sink = trace_sink_.load(std::memory_order_acquire)) {
    // Never full, so the tail rule keeps it even when not head-sampled —
    // these are exactly the traces an overload post-mortem needs.
    obs::RequestTrace trace(context);
    trace.SetDisposition(ToString(response.disposition), phase);
    obs::RecordTraceSummary(trace);
    sink->Consume(std::move(trace));
  }
  return response;
}

PersonalizationResponse PersonalizationService::PersonalizeOne(
    const PersonalizationRequest& request) {
  CancelToken cancel(EffectiveDeadline(request));
  if (cancel.ShouldStop()) {
    return Refuse(Status::DeadlineExceeded("budget exhausted before start"),
                  "admission", request.trace_context);
  }
  return PersonalizeInternal(request, &cancel, /*degrade=*/false);
}

PersonalizationResponse PersonalizationService::PersonalizeInternal(
    const PersonalizationRequest& request, const CancelToken* cancel,
    bool degrade) {
  inst_.requests->Add(1);
  obs::TraceSink* sink = trace_sink_.load(std::memory_order_acquire);
  std::optional<obs::RequestTrace> trace;
  // Where the trace context comes from decides who sampled: a valid
  // context means an upstream edge (the shard router) already made the
  // head decision and this service only honors it; an empty one makes
  // this service the edge — it mints the trace id and flips the head
  // coin itself. Either way the id exists before the pipeline runs, so
  // a tail-kept trace can still join its distributed family.
  obs::TraceContext context = request.trace_context;
  bool tail_candidate = false;
  // Fault-fire watermark for the tail rule; the sentinel means "not
  // watching" (hub disarmed) so the common path never takes the hub's
  // shared lock.
  constexpr uint64_t kNotWatching = ~uint64_t{0};
  uint64_t fires_before = kNotWatching;
  if (sink != nullptr) {
    if (!context.valid()) {
      context.trace_id = obs::NewTraceId();
      context.parent_span_id = 0;
      context.sampled =
          obs::HeadSampled(context.trace_id, options_.sampling.head_rate);
    }
    if (context.sampled) {
      trace.emplace(context);
    } else {
      tail_candidate = true;
      if (FaultHub::Global()->armed()) {
        fires_before = FaultHub::Global()->total_fires();
      }
    }
  }

  WallTimer timer;
  PersonalizationResponse response = RunPipeline(
      request, cancel, degrade, trace.has_value() ? &*trace : nullptr);
  const double elapsed_millis = timer.ElapsedMillis();
  inst_.request_seconds->RecordMillis(elapsed_millis);

  // Exactly one disposition counter per request; the admission paths
  // (shed, expired-in-queue) count theirs at their own sites. `requests`
  // was incremented above, *before* any disposition — stats() relies on
  // that order for its accounting identity.
  if (!response.status.ok()) {
    inst_.error->Add(1);
  } else if (response.disposition == RequestDisposition::kDegraded) {
    inst_.degraded->Add(1);
  } else {
    inst_.full->Add(1);
  }

  slo_.Record(response.status.ok(), elapsed_millis);
  // The slow-trace threshold tracks the live p99; refresh the cached copy
  // every 1024 completions so the tail rule costs one relaxed load per
  // request, not a histogram merge.
  const uint64_t done = completed_.fetch_add(1, std::memory_order_relaxed);
  if ((done & 1023u) == 1023u) {
    slow_p99_millis_.store(inst_.request_seconds->Snapshot().p99() * 1e3,
                           std::memory_order_relaxed);
  }

  if (sink != nullptr && (trace.has_value() || tail_candidate)) {
    std::string phase;
    if (!response.status.ok()) {
      // The last span opened is where the pipeline stopped. A tail-kept
      // trace ran without spans, so its stop phase is unknown.
      phase = !trace.has_value()            ? ""
              : trace->spans().empty()      ? "admission"
                                            : trace->spans().back().name;
    } else if (response.disposition == RequestDisposition::kDegraded) {
      if (response.outcome.selection_stats.degraded) {
        phase = "preference_selection";
      } else if (response.results.truncated()) {
        phase = "execution";
      } else {
        phase = "admission";  // K stepped down under queue pressure.
      }
    }
    const char* disposition =
        response.status.ok() ? ToString(response.disposition) : "error";
    if (trace.has_value()) {
      trace->SetDisposition(disposition, std::move(phase));
      obs::RecordTraceSummary(*trace);
      sink->Consume(std::move(*trace));
    } else {
      // The tail rule resurrects a minimal (span-less) trace for outcomes
      // the head coin must never lose — errors, degradations, slow
      // requests, and anything a chaos fault touched.
      const bool fault_fired =
          fires_before != kNotWatching &&
          FaultHub::Global()->total_fires() > fires_before;
      if (KeepTail(disposition, elapsed_millis, fault_fired)) {
        obs::RequestTrace tail(context);
        tail.SetDisposition(disposition, std::move(phase));
        obs::RecordTraceSummary(tail);
        sink->Consume(std::move(tail));
      }
    }
  }
  return response;
}

PersonalizationResponse PersonalizationService::RunPipeline(
    const PersonalizationRequest& request, const CancelToken* cancel,
    bool degrade, obs::RequestTrace* trace) {
  PersonalizationResponse response;

  // A sharded deployment stamps which shard served the request on its
  // trace, and holds the span open across the whole pipeline so the
  // phase spans nest under it — the distributed tree then reads
  // router → shard → profile_lookup/cache/selection/execution. A
  // standalone service (shard_id < 0) keeps its phase spans as roots,
  // exactly the shape the single-node tooling expects.
  obs::ScopedSpan shard_span(options_.shard_id >= 0 ? trace : nullptr,
                             "shard");
  if (options_.shard_id >= 0) {
    shard_span.Counter("id", static_cast<uint64_t>(options_.shard_id));
  }

  // Resolve the effective options: the query context (device, budget,
  // bandwidth) derives criterion/top_n, then queue pressure steps the
  // top-count K down one rung (halve, minimum 1 — the same rule
  // DeriveOptions applies to sub-50ms budgets).
  PersonalizationOptions options =
      request.context.has_value()
          ? DeriveOptions(*request.context, request.options)
          : request.options;
  bool stepped_down = false;
  if (degrade &&
      options.criterion.kind() == InterestCriterion::Kind::kTopCount) {
    auto k = static_cast<size_t>(options.criterion.threshold());
    size_t reduced = std::max<size_t>(1, k / 2);
    if (reduced < k) {
      options.criterion = InterestCriterion::TopCount(reduced);
      stepped_down = true;
    }
  }

  obs::ScopedSpan profile_span(trace, "profile_lookup");
  auto snapshot = store_->Get(request.user_id);
  profile_span.Counter("found", snapshot.ok() ? 1 : 0);
  profile_span.End();
  if (!snapshot.ok()) {
    response.status = snapshot.status();
    return response;
  }
  // A profile the integrity scrubber quarantined is served degraded: the
  // raw query runs unpersonalized (an exact, if unranked, answer) rather
  // than personalizing from state known to violate its invariants. The
  // scrubber's repair path lifts the quarantine once the profile is
  // rebuilt from the last good snapshot + WAL replay.
  const bool quarantined = store_->IsQuarantined(request.user_id);
  obs::ScopedSpan quarantine_span(quarantined ? trace : nullptr,
                                  "quarantined_bypass");
  if (quarantined) {
    response.outcome.sq = request.query;
  } else {
    response.status =
        Rewrite(request, *snapshot, options, cancel, trace, &response);
    if (!response.status.ok()) return response;
  }

  // Phase 3: execution (ranked for MQ), unless the caller only wants the
  // rewritten query.
  if (request.execute) {
    WallTimer timer;
    Executor executor(db_);
    executor.set_cancel_token(cancel);
    executor.set_trace(trace);
    ExecutorStats exec_stats;
    auto result = response.outcome.sq.has_value()
                      ? executor.Execute(*response.outcome.sq, &exec_stats)
                      : executor.Execute(*response.outcome.mq, &exec_stats);
    inst_.CountExecution(exec_stats);
    if (!result.ok()) {
      response.status = result.status();
      return response;
    }
    response.results = std::move(result).value();
    if (options.top_n > 0) {
      response.results.Truncate(options.top_n);
    }
    response.execution_millis = timer.ElapsedMillis();
    inst_.execution_seconds->RecordMillis(response.execution_millis);
  }

  // Disposition: any reduction — the personalization bypassed, K stepped
  // down, selection cut to a prefix, execution truncated — makes the
  // (still valid) answer degraded rather than full.
  if (quarantined || stepped_down ||
      response.outcome.selection_stats.degraded ||
      response.results.truncated()) {
    response.disposition = RequestDisposition::kDegraded;
  }
  return response;
}

Status PersonalizationService::Rewrite(const PersonalizationRequest& request,
                                       const ProfileSnapshot& snapshot,
                                       const PersonalizationOptions& options,
                                       const CancelToken* cancel,
                                       obs::RequestTrace* trace,
                                       PersonalizationResponse* response) {
  PreferenceSelector selector(snapshot.graph.get());
  SelectionStats& selection_stats = response->outcome.selection_stats;

  // Phase 1: preference selection, served from the cache when possible.
  // A semantic filter changes what Select returns but is not part of the
  // key (its association base is the caller's, and can grow between
  // requests), so such requests bypass the cache.
  WallTimer timer;
  bool cacheable = cache_enabled_ && options.semantic_filter == nullptr;
  // Chaos site: a faulted cache lookup degrades to a bypass — the
  // request recomputes its selection (correct, just slower) rather than
  // failing or serving a stale entry.
  if (cacheable) {
    FaultAction cache_fault = QP_FAULT_ACTION("cache.lookup");
    cache_fault.Sleep();
    if (cache_fault.fire && cache_fault.mode != FaultMode::kDelay) {
      cacheable = false;
    }
  }
  std::string key;
  SelectionCache::Paths cached;
  if (cacheable) {
    key = SelectionCache::MakeKey(request.user_id, snapshot.epoch,
                                  CanonicalQueryKey(request.query),
                                  options.criterion);
    obs::ScopedSpan cache_span(trace, "cache_lookup");
    cached = cache_.Lookup(key);
    cache_span.Counter("hit", cached != nullptr ? 1 : 0);
  }
  std::vector<PreferencePath> selected;
  if (cached != nullptr) {
    response->cache_hit = true;
    inst_.cache_hits->Add(1);
    selected = *cached;
  } else {
    (cacheable ? inst_.cache_misses : inst_.cache_bypasses)->Add(1);
    QP_ASSIGN_OR_RETURN(
        selected, selector.Select(request.query, options.criterion,
                                  &selection_stats, options.semantic_filter,
                                  cancel, trace));
    // A deadline-truncated selection is a valid prefix for *this*
    // request but must not poison the cache for unconstrained ones.
    if (cacheable && !selection_stats.degraded) {
      inst_.cache_insertions->Add(1);
      inst_.cache_evictions->Add(cache_.Insert(
          request.user_id, key,
          std::make_shared<const std::vector<PreferencePath>>(selected)));
    }
  }

  std::vector<PreferencePath> negatives;
  if (options.max_negative > 0) {
    obs::ScopedSpan negative_span(trace, "negative_selection");
    QP_ASSIGN_OR_RETURN(negatives,
                        selector.SelectNegative(request.query,
                                                options.max_negative,
                                                options.negative_min_doi));
    negative_span.Counter("selected", negatives.size());
  }
  const double selection_millis = timer.ElapsedMillis();
  inst_.selection_seconds->RecordMillis(selection_millis);

  // Phase 2: integration (identical to the serial Personalizer).
  QP_ASSIGN_OR_RETURN(PersonalizationOutcome outcome,
                      Personalizer::IntegrateSelected(
                          request.query, std::move(selected),
                          std::move(negatives), options, trace));
  outcome.selection_stats = selection_stats;
  outcome.selection_millis = selection_millis;
  response->outcome = std::move(outcome);
  inst_.integration_seconds->RecordMillis(
      response->outcome.integration_millis);
  return Status::Ok();
}

std::vector<std::future<PersonalizationResponse>>
PersonalizationService::PersonalizeBatch(
    std::vector<PersonalizationRequest> requests) {
  inst_.batches->Add(1);
  std::vector<std::future<PersonalizationResponse>> futures;
  futures.reserve(requests.size());
  for (PersonalizationRequest& request : requests) {
    auto promise =
        std::make_shared<std::promise<PersonalizationResponse>>();
    futures.push_back(promise->get_future());
    // Admission control: reserve a queue slot before touching the pool. A
    // request that does not fit is shed right here — its future resolves
    // immediately and no worker time is spent on it.
    if (!TryAdmit()) {
      promise->set_value(
          Refuse(Status::Unavailable("admission control: queue full"),
                 "admission", request.trace_context));
      continue;
    }
    // The request moves into the task; a refused task takes it along.
    const obs::TraceContext context = request.trace_context;
    // The budget clock starts now, so it covers time spent in the queue.
    auto cancel = std::make_shared<CancelToken>(EffectiveDeadline(request));
    bool submitted =
        pool_.Submit([this, request = std::move(request), cancel, promise]() {
          // This request is now running, not queued; the depth left
          // behind decides whether it runs degraded.
          const size_t depth =
              queued_.fetch_sub(1, std::memory_order_relaxed) - 1;
          const bool degrade = options_.degrade_queue_depth > 0 &&
                               depth >= options_.degrade_queue_depth;
          // A budget that died in the queue never starts selection or
          // execution.
          PersonalizationResponse response =
              cancel->ShouldStop()
                  ? Refuse(Status::DeadlineExceeded(
                               "budget exhausted in queue"),
                           "queue", request.trace_context)
                  : PersonalizeInternal(request, cancel.get(), degrade);
          inflight_.fetch_sub(1, std::memory_order_relaxed);
          promise->set_value(std::move(response));
        });
    if (!submitted) {
      // The pool refused the task (shutting down): release the admission
      // slot and resolve the future as shed so no caller hangs.
      queued_.fetch_sub(1, std::memory_order_relaxed);
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      promise->set_value(Refuse(Status::Unavailable("service shutting down"),
                                "admission", context));
      continue;
    }
    inst_.max_queue_depth->SetMax(
        static_cast<double>(pool_.ApproxQueueDepth()));
  }
  return futures;
}

std::vector<PersonalizationResponse>
PersonalizationService::PersonalizeBatchAndWait(
    std::vector<PersonalizationRequest> requests) {
  std::vector<std::future<PersonalizationResponse>> futures =
      PersonalizeBatch(std::move(requests));
  std::vector<PersonalizationResponse> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) {
    responses.push_back(future.get());
  }
  return responses;
}

size_t PersonalizationService::InvalidateUserSelections(
    const std::string& user_id) {
  const size_t erased = cache_.EraseUser(user_id);
  inst_.cache_user_invalidations->Add(erased);
  return erased;
}

ServiceStats PersonalizationService::stats() const {
  ServiceStats stats;
  // Read the disposition counters *before* `requests`: requests are
  // counted at admission and dispositions at resolution (in that program
  // order, seq_cst), so in this read order the disposition sum can trail
  // requests — in-flight work — but never exceed it.
  stats.errors = inst_.error->Value();
  stats.shed = inst_.shed->Value();
  stats.deadline_exceeded = inst_.deadline_exceeded->Value();
  stats.degraded = inst_.degraded->Value();
  stats.full = inst_.full->Value();
  stats.requests = inst_.requests->Value();
  stats.batches = inst_.batches->Value();
  stats.cache_hits = inst_.cache_hits->Value();
  stats.cache_misses = inst_.cache_misses->Value();
  stats.cache_bypasses = inst_.cache_bypasses->Value();
  stats.cache_insertions = inst_.cache_insertions->Value();
  stats.cache_evictions = inst_.cache_evictions->Value();
  stats.cache_user_invalidations = inst_.cache_user_invalidations->Value();
  stats.max_queue_depth =
      static_cast<size_t>(inst_.max_queue_depth->Value());
  stats.selection_millis = inst_.selection_seconds->Snapshot().sum * 1e3;
  stats.integration_millis =
      inst_.integration_seconds->Snapshot().sum * 1e3;
  stats.execution_millis = inst_.execution_seconds->Snapshot().sum * 1e3;
  stats.storage = store_->storage_stats();
  stats.tier = store_->tier_stats();
  return stats;
}

std::string PersonalizationService::DumpMetrics(
    obs::ExportFormat format) const {
  // Sampled gauges: refreshed at dump time rather than maintained on the
  // hot path, so the export is a coherent point-in-time view for free.
  scope_.gauge("qp_service_queue_depth")
      ->Set(static_cast<double>(queued_.load(std::memory_order_relaxed)));
  scope_.gauge("qp_service_inflight")
      ->Set(static_cast<double>(inflight_.load(std::memory_order_relaxed)));
  scope_.gauge("qp_selection_cache_entries")
      ->Set(static_cast<double>(cache_.size()));
  if (store_->durable()) {
    scope_.gauge("qp_storage_wal_segment_bytes")
        ->Set(static_cast<double>(store_->storage_stats().wal_segment_bytes));
  }
  storage::TierStats tier = store_->tier_stats();
  if (tier.enabled) {
    obs::MetricLabels tier_labels = scope_.labels();
    tier_labels.emplace_back("tier", "hot");
    scope_.registry()->gauge("qp_tier_resident_users", tier_labels)
        ->Set(static_cast<double>(tier.hot_resident));
    tier_labels.back().second = "cold";
    scope_.registry()->gauge("qp_tier_resident_users", tier_labels)
        ->Set(static_cast<double>(tier.cold_users));
  }
  const obs::SloSnapshot slo = slo_.Evaluate();
  scope_.gauge("qp_slo_availability")->Set(slo.availability);
  scope_.gauge("qp_slo_availability_burn_rate")
      ->Set(slo.availability_burn_rate);
  scope_.gauge("qp_slo_latency_attainment")->Set(slo.latency_attainment);
  scope_.gauge("qp_slo_latency_burn_rate")->Set(slo.latency_burn_rate);
  scope_.gauge("qp_slo_window_requests")
      ->Set(static_cast<double>(slo.window_requests));
  scope_.registry()->SetHelp(
      "qp_slo_availability_burn_rate",
      "Error-budget burn multiple over the rolling window (1.0 = burning "
      "exactly the budget).");
  return scope_.registry()->Export(format);
}

}  // namespace qp
