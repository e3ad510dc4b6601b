#ifndef QP_OBS_METRICS_H_
#define QP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qp {
namespace obs {

/// A monotonically increasing counter, sharded across cache lines so
/// concurrent workers never contend on one atomic. All operations are
/// seq_cst: on x86 that costs the same as relaxed, and the total order
/// is what lets readers establish cross-counter invariants (a reader
/// that observes a disposition increment is guaranteed to also observe
/// the `requests` increment that program-order preceded it — the
/// ServiceStats accounting identity relies on this).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta = 1) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_seq_cst);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_seq_cst);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 8;

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  static size_t ShardIndex();

  std::array<Shard, kShards> shards_;
};

/// A settable instantaneous value. Set / SetMax are lock-free; SetMax is
/// the monotone high-watermark update (peak queue depth).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_seq_cst); }

  void SetMax(double value) {
    double current = value_.load(std::memory_order_seq_cst);
    while (value > current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_seq_cst)) {
    }
  }

  void Add(double delta) {
    double current = value_.load(std::memory_order_seq_cst);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_seq_cst)) {
    }
  }

  double Value() const { return value_.load(std::memory_order_seq_cst); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time view of one histogram, with percentile extraction.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  /// (inclusive upper bound, observations <= bound in this bucket), only
  /// buckets with a non-zero count, bounds increasing.
  std::vector<std::pair<double, uint64_t>> buckets;

  /// Interpolated percentile (p in [0, 100]); 0 when empty. Linear
  /// interpolation between the bucket's bounds, so the error is bounded
  /// by the log-scale bucket width (~2x at worst, far less in practice
  /// since neighbouring observations cluster).
  double Percentile(double p) const;
  double p50() const { return Percentile(50); }
  double p95() const { return Percentile(95); }
  double p99() const { return Percentile(99); }
};

/// A fixed-bucket log-scale (base-2) histogram of non-negative values.
/// Bucket i holds observations in (2^(kMinExponent+i-1), 2^(kMinExponent+i)],
/// covering ~1e-9 .. ~5e8 — recording latencies in seconds, this spans
/// sub-nanosecond to ~16 years. Record is two wait-free atomic updates;
/// there is no lock anywhere.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value);

  /// Convenience for callers holding a millisecond duration when the
  /// histogram's unit is seconds.
  void RecordMillis(double millis) { Record(millis / 1e3); }

  HistogramSnapshot Snapshot() const;

  static constexpr int kNumBuckets = 60;
  static constexpr int kMinExponent = -30;  // First bound 2^-30 ~ 0.93e-9.

  /// Inclusive upper bound of bucket `index`.
  static double BucketBound(int index);
  /// The bucket `value` falls into.
  static int BucketFor(double value);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> counts_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Export encodings understood by the ecosystem tooling: a single-line
/// JSON object (log-friendly), and the Prometheus text exposition format.
enum class ExportFormat {
  kJson,
  kPrometheus,
};

/// A dimension attached to a metric series. The key set is closed —
/// `shard`, `partition`, `disposition`, `tier` — which is what keeps the
/// cardinality budget bounded by construction: shards and partitions are
/// deployment-sized, dispositions and tiers are enums. Unknown keys are
/// dropped at registration rather than minted into new series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// The closed label-key set, sorted.
bool IsAllowedLabelKey(std::string_view key);

/// One labeled series in a snapshot.
template <typename V>
struct LabeledSample {
  std::string name;
  MetricLabels labels;  // Canonical: sorted by key, allowed keys only.
  V value;
};

/// A full registry snapshot, ordered by name (deterministic exports).
/// Unlabeled series keep the flat vectors (and their emission format)
/// from the single-node plane; labeled series ride in their own
/// sections.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<LabeledSample<uint64_t>> labeled_counters;
  std::vector<LabeledSample<double>> labeled_gauges;
  std::vector<LabeledSample<HistogramSnapshot>> labeled_histograms;
  /// name -> HELP text (emitted escaped).
  std::vector<std::pair<std::string, std::string>> help;

  /// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
  /// "sum":..,"p50":..,"p95":..,"p99":..,"buckets":[[le,count],..]}}} on
  /// one line; when labeled series exist a trailing "labeled" section
  /// holds them as sub-objects: {"labeled":{"counters":{"name":[
  /// {"labels":{"shard":"0"},"value":3},..]},..}}.
  std::string ToJson() const;
  /// `# HELP`/`# TYPE` headers plus one sample per line; histograms emit
  /// cumulative `_bucket{le="..."}` samples, `_sum` and `_count`. Label
  /// values and help text are escaped per the exposition format.
  std::string ToPrometheusText() const;
  std::string Export(ExportFormat format) const;
};

/// The process's named instruments. Registration (first lookup of a
/// name) takes a mutex; the returned pointers are stable for the
/// registry's lifetime, so hot paths look up once and then touch only
/// the lock-free instruments. Names should follow Prometheus
/// conventions: `qp_<component>_<what>_<unit>` with `_total` counters.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Labeled series: the same name with different label values is a
  /// distinct instrument. Keys outside the allowed set are dropped;
  /// an empty (post-filter) label set is the unlabeled instrument.
  Counter* counter(std::string_view name, const MetricLabels& labels);
  Gauge* gauge(std::string_view name, const MetricLabels& labels);
  Histogram* histogram(std::string_view name, const MetricLabels& labels);

  /// HELP text for a metric family, emitted (escaped) ahead of its
  /// `# TYPE` line in the Prometheus export.
  void SetHelp(std::string_view name, std::string_view help);

  MetricsSnapshot Snapshot() const;
  std::string Export(ExportFormat format) const {
    return Snapshot().Export(format);
  }

 private:
  template <typename T>
  struct Labeled {
    MetricLabels labels;
    std::unique_ptr<T> instrument;
  };
  /// Key: name + canonical label encoding (deterministic iteration).
  template <typename T>
  using LabeledMap = std::map<std::string, Labeled<T>, std::less<>>;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  LabeledMap<Counter> labeled_counters_;
  LabeledMap<Gauge> labeled_gauges_;
  LabeledMap<Histogram> labeled_histograms_;
  std::map<std::string, std::string, std::less<>> help_;
};

/// Where a component registers its instruments: a registry plus the
/// labels every series it registers carries — `{shard="<id>"}` for one
/// shard of a cluster, none (the flat names) for a standalone component.
/// Converts implicitly from a bare registry pointer.
class MetricScope {
 public:
  MetricScope() = default;
  MetricScope(MetricsRegistry* registry, MetricLabels labels = {})
      : registry_(registry), labels_(std::move(labels)) {}

  /// This scope when it names a registry; otherwise the same labels over
  /// a fresh registry the result owns (its copies share it). A component
  /// resolves its scope once at construction, so every instrument it
  /// touches exists.
  MetricScope OrOwn() const;

  MetricsRegistry* registry() const { return registry_; }
  const MetricLabels& labels() const { return labels_; }

  Counter* counter(std::string_view name) const {
    return registry_->counter(name, labels_);
  }
  Gauge* gauge(std::string_view name) const {
    return registry_->gauge(name, labels_);
  }
  Histogram* histogram(std::string_view name) const {
    return registry_->histogram(name, labels_);
  }

 private:
  std::shared_ptr<MetricsRegistry> owned_;
  MetricsRegistry* registry_ = nullptr;
  MetricLabels labels_;
};

}  // namespace obs
}  // namespace qp

#endif  // QP_OBS_METRICS_H_
