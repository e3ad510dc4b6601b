#ifndef QP_OBS_TRACE_H_
#define QP_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qp {
namespace obs {

/// Process-unique non-zero 64-bit id (SplitMix64 over an atomic
/// counter). Used for both trace ids and span ids, so span ids are
/// unique across every trace in the process: the router and the shard
/// each build their own RequestTrace fragment sharing one trace_id, and
/// consumers stitch the fragments into a single tree by (trace_id,
/// parent_span_id) without any id coordination between processes' parts.
uint64_t NewTraceId();

/// The propagation envelope that crosses component boundaries: stamped
/// on a request by the router, adopted by the shard service, carried
/// into migration step traces by the owning reshard operation.
struct TraceContext {
  uint64_t trace_id = 0;
  /// The span on the caller's side that the callee's root spans become
  /// children of (0 = the callee's roots stay roots).
  uint64_t parent_span_id = 0;
  /// Head-sampling decision, made once at the edge and honoured
  /// downstream so a trace is never half-collected.
  bool sampled = false;

  bool valid() const { return trace_id != 0; }
};

/// Head sampling policy. The head decision is made before any span is
/// allocated (a deterministic hash of the trace id against `head_rate`),
/// so an unsampled request pays nothing. A fixed tail rule then
/// resurrects a minimal disposition-only trace for requests that turn
/// out interesting after the fact: any disposition but full, slower than
/// the service's rolling p99, or overlapping an injected fault fire.
struct SamplingPolicy {
  /// Fraction of requests traced up front. 1.0 (default) preserves the
  /// trace-everything behaviour of the single-node plane.
  double head_rate = 1.0;
};

/// The head decision for a trace id under `rate`: deterministic (the
/// same id always lands the same way) and uniform across ids.
bool HeadSampled(uint64_t trace_id, double rate);

/// One timed step of a request, with its domain counters (paths pruned,
/// rows produced, cache hit, ...). Spans form a tree via `depth` within
/// one fragment and via span ids across fragments: a span started while
/// another is open is its child.
struct TraceSpan {
  std::string name;
  int depth = 0;
  /// Process-unique id of this span, and of its parent (0 = root of the
  /// whole trace). The parent may live in another fragment.
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  /// Offset from the trace's start, and the span's own wall time.
  double start_millis = 0.0;
  double duration_millis = 0.0;
  std::vector<std::pair<std::string, uint64_t>> counters;

  uint64_t counter(std::string_view name) const;
  bool has_counter(std::string_view name) const;
};

/// The ordered span record of one request through the personalization
/// pipeline: parse, preference selection (with prune counters),
/// integration, execution (with per-disjunct children), cache and
/// profile-store lookups, WAL sync. Built by exactly one worker thread —
/// not thread-safe, by design: tracing must not add synchronization to
/// the hot path. Hand the finished trace to a TraceSink.
class RequestTrace {
 public:
  RequestTrace() : start_(Clock::now()), trace_id_(NewTraceId()) {}

  /// A fragment continuing a propagated context: shares the caller's
  /// trace_id and parents this fragment's root spans under the caller's
  /// span. An invalid context behaves like the default constructor.
  explicit RequestTrace(const TraceContext& context) : RequestTrace() {
    if (context.valid()) {
      trace_id_ = context.trace_id;
      root_parent_span_id_ = context.parent_span_id;
    }
  }

  /// Opens a span; its depth is the number of currently open spans.
  /// Returns the span's index for EndSpan/AddCounter.
  size_t StartSpan(std::string name);

  /// Closes the span (records its duration, pops it from the open
  /// stack). Closing out of order closes every span opened after it too.
  void EndSpan(size_t index);

  void AddCounter(size_t index, std::string name, uint64_t value);

  /// How the request resolved ("full", "degraded", "shed",
  /// "deadline_exceeded", "error") and — when it did not run to
  /// completion — the pipeline phase it stopped in.
  void SetDisposition(std::string disposition, std::string stopped_phase);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const TraceSpan* FindSpan(std::string_view name) const;
  const std::string& disposition() const { return disposition_; }
  const std::string& stopped_phase() const { return stopped_phase_; }
  /// Wall time from construction to the last EndSpan (running total).
  double total_millis() const { return total_millis_; }

  uint64_t trace_id() const { return trace_id_; }
  /// The parent every root span of this fragment hangs under (0 = the
  /// fragment is the top of the trace).
  uint64_t root_parent_span_id() const { return root_parent_span_id_; }

  /// The context to hand a callee so its fragment nests under the span
  /// at `span_index`. Out-of-range indices parent at the fragment root.
  TraceContext ContextForSpan(size_t span_index) const {
    TraceContext context;
    context.trace_id = trace_id_;
    context.parent_span_id = span_index < spans_.size()
                                 ? spans_[span_index].span_id
                                 : root_parent_span_id_;
    context.sampled = true;
    return context;
  }

  /// Human-readable tree: one line per span, indented by depth, with
  /// duration and counters. The qpshell \explain rendering.
  std::string ToString() const;
  /// Single-line JSON {"trace_id":..,"disposition":..,"stopped_phase":..,
  /// "total_ms":..,"spans":[{"name":..,"depth":..,"span_id":..,
  /// "parent_span_id":..,"start_ms":..,"duration_ms":..,
  /// "counters":{..}},..]}. Ids render as hex strings (uint64 exceeds
  /// the exactly-representable double range).
  std::string ToJson() const;

 private:
  using Clock = std::chrono::steady_clock;

  double SinceStartMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  Clock::time_point start_;
  uint64_t trace_id_ = 0;
  uint64_t root_parent_span_id_ = 0;
  std::vector<TraceSpan> spans_;
  std::vector<size_t> open_;
  std::string disposition_ = "full";
  std::string stopped_phase_;
  double total_millis_ = 0.0;
};

/// RAII span: opens on construction, closes on destruction (or explicit
/// End). A null trace makes every method a no-op costing one branch, so
/// instrumented code needs no `if (trace)` litter.
class ScopedSpan {
 public:
  ScopedSpan(RequestTrace* trace, const char* name) : trace_(trace) {
    if (trace_ != nullptr) index_ = trace_->StartSpan(name);
  }
  ~ScopedSpan() { End(); }

  void Counter(const char* name, uint64_t value) {
    if (trace_ != nullptr) trace_->AddCounter(index_, name, value);
  }

  void End() {
    if (trace_ != nullptr) {
      trace_->EndSpan(index_);
      trace_ = nullptr;
    }
  }

  /// The span's index in its trace (for ContextForSpan); valid even
  /// after End.
  size_t index() const { return index_; }

 private:
  RequestTrace* trace_ = nullptr;
  size_t index_ = 0;
};

/// Where finished traces go. Implementations must be thread-safe: every
/// worker delivers its own requests' traces.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Consume(RequestTrace trace) = 0;
};

/// Discards everything; measures tracing's own overhead in benchmarks.
class NullTraceSink : public TraceSink {
 public:
  void Consume(RequestTrace) override {}
};

/// Keeps the most recent trace (the qpshell \explain source).
class LastTraceSink : public TraceSink {
 public:
  void Consume(RequestTrace trace) override;

  /// The last consumed trace; nullptr before the first. The shared_ptr
  /// stays valid while newer traces replace it.
  std::shared_ptr<const RequestTrace> last() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const RequestTrace> last_;
};

/// Collects the fragments of distributed traces (router fragment, shard
/// fragment, migration steps) keyed by trace_id, bounded to the most
/// recent `capacity` distinct traces. The cross-shard test harness and
/// qpshell stitch span trees out of this.
class FragmentTraceSink : public TraceSink {
 public:
  explicit FragmentTraceSink(size_t capacity = 64) : capacity_(capacity) {}

  void Consume(RequestTrace trace) override;

  /// Every fragment consumed for `trace_id`, in arrival order.
  std::vector<std::shared_ptr<const RequestTrace>> Fragments(
      uint64_t trace_id) const;
  /// trace_ids still retained, oldest first.
  std::vector<uint64_t> TraceIds() const;
  /// Fragments of the most recently started trace (nullptr-free; empty
  /// before the first Consume).
  std::vector<std::shared_ptr<const RequestTrace>> Last() const;

 private:
  mutable std::mutex mutex_;
  size_t capacity_;
  /// trace_id -> fragments, plus FIFO eviction order.
  std::vector<std::pair<uint64_t,
                        std::vector<std::shared_ptr<const RequestTrace>>>>
      traces_;
};

}  // namespace obs
}  // namespace qp

#endif  // QP_OBS_TRACE_H_
