#include "qp/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace qp {
namespace obs {
namespace {

/// Formats a double the way both exports want it: shortest form that
/// round-trips typical metric values, never locale-dependent.
std::string FormatDouble(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
void AppendPromLabelValue(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

/// Prometheus HELP-text escaping: backslash and newline (quotes are
/// legal in help text).
void AppendPromHelp(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

/// `{k="v",k2="v2"}` with escaped values; `extra` appends one more pair
/// (the histogram `le` bound) after the series labels.
std::string PromLabelBlock(const MetricLabels& labels,
                           const std::pair<std::string, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += key + "=\"";
    AppendPromLabelValue(value, &out);
    out.push_back('"');
  }
  if (extra != nullptr) {
    if (!first) out.push_back(',');
    out += extra->first + "=\"";
    AppendPromLabelValue(extra->second, &out);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

/// Canonicalizes a label set: drop unknown keys, sort by key, last
/// write wins on duplicate keys.
MetricLabels CanonicalLabels(const MetricLabels& labels) {
  MetricLabels canonical;
  for (const auto& [key, value] : labels) {
    if (!IsAllowedLabelKey(key)) continue;
    bool replaced = false;
    for (auto& existing : canonical) {
      if (existing.first == key) {
        existing.second = value;
        replaced = true;
        break;
      }
    }
    if (!replaced) canonical.emplace_back(key, value);
  }
  std::sort(canonical.begin(), canonical.end());
  return canonical;
}

/// The registry-internal series key: name plus the canonical label
/// block. Deterministic, so map iteration yields a stable export order.
std::string SeriesKey(std::string_view name, const MetricLabels& canonical) {
  std::string key(name);
  key.push_back('{');
  for (const auto& [k, v] : canonical) {
    key += k;
    key.push_back('\x1f');
    key += v;
    key.push_back('\x1f');
  }
  key.push_back('}');
  return key;
}

template <typename V, typename RenderValue>
void AppendLabeledFamilies(const std::vector<LabeledSample<V>>& samples,
                           RenderValue render, std::string* out) {
  bool first_family = true;
  for (size_t i = 0; i < samples.size();) {
    size_t j = i;
    while (j < samples.size() && samples[j].name == samples[i].name) ++j;
    if (!first_family) out->push_back(',');
    first_family = false;
    AppendJsonString(samples[i].name, out);
    out->append(":[");
    for (size_t k = i; k < j; ++k) {
      if (k > i) out->push_back(',');
      out->append("{\"labels\":{");
      for (size_t l = 0; l < samples[k].labels.size(); ++l) {
        if (l > 0) out->push_back(',');
        AppendJsonString(samples[k].labels[l].first, out);
        out->push_back(':');
        AppendJsonString(samples[k].labels[l].second, out);
      }
      out->append("},\"value\":");
      render(samples[k].value, out);
      out->append("}");
    }
    out->append("]");
    i = j;
  }
}

void RenderHistogramJson(const HistogramSnapshot& histogram,
                         std::string* out) {
  *out += "{\"count\":" + std::to_string(histogram.count);
  *out += ",\"sum\":" + FormatDouble(histogram.sum);
  *out += ",\"p50\":" + FormatDouble(histogram.p50());
  *out += ",\"p95\":" + FormatDouble(histogram.p95());
  *out += ",\"p99\":" + FormatDouble(histogram.p99());
  *out += ",\"buckets\":[";
  for (size_t i = 0; i < histogram.buckets.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += "[" + FormatDouble(histogram.buckets[i].first) + "," +
            std::to_string(histogram.buckets[i].second) + "]";
  }
  *out += "]}";
}

}  // namespace

bool IsAllowedLabelKey(std::string_view key) {
  return key == "disposition" || key == "partition" || key == "shard" ||
         key == "tier";
}

size_t Counter::ShardIndex() {
  // A thread keeps hitting the same shard (good locality) while distinct
  // threads spread out; no TLS registration cost.
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
}

double Histogram::BucketBound(int index) {
  return std::ldexp(1.0, kMinExponent + index);
}

int Histogram::BucketFor(double value) {
  if (!(value > 0.0)) return 0;  // Zero, negatives and NaN -> first bucket.
  int exponent = 0;
  double mantissa = std::frexp(value, &exponent);  // value = m * 2^e, m in [0.5, 1).
  // Inclusive upper bounds: 2^(e-1) holds exactly-power-of-two values.
  int ceil_log2 = (mantissa == 0.5) ? exponent - 1 : exponent;
  int index = ceil_log2 - kMinExponent;
  if (index < 0) return 0;
  if (index >= kNumBuckets) return kNumBuckets - 1;
  return index;
}

void Histogram::Record(double value) {
  counts_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumBuckets; ++i) {
    uint64_t count = counts_[i].load(std::memory_order_relaxed);
    if (count > 0) snapshot.buckets.emplace_back(BucketBound(i), count);
  }
  return snapshot;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0 || buckets.empty()) return 0.0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  double rank = p / 100.0 * static_cast<double>(count);
  if (rank < 1.0) rank = 1.0;
  uint64_t cumulative = 0;
  double lower = 0.0;
  for (const auto& [bound, bucket_count] : buckets) {
    double next = static_cast<double>(cumulative + bucket_count);
    if (rank <= next) {
      double fraction =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(bucket_count);
      return lower + fraction * (bound - lower);
    }
    cumulative += bucket_count;
    lower = bound;
  }
  return buckets.back().first;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

Counter* MetricsRegistry::counter(std::string_view name,
                                  const MetricLabels& labels) {
  MetricLabels canonical = CanonicalLabels(labels);
  if (canonical.empty()) return counter(name);
  std::string key = SeriesKey(name, canonical);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = labeled_counters_.find(key);
  if (it == labeled_counters_.end()) {
    it = labeled_counters_
             .emplace(std::move(key),
                      Labeled<Counter>{std::move(canonical),
                                       std::make_unique<Counter>()})
             .first;
  }
  return it->second.instrument.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name,
                              const MetricLabels& labels) {
  MetricLabels canonical = CanonicalLabels(labels);
  if (canonical.empty()) return gauge(name);
  std::string key = SeriesKey(name, canonical);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = labeled_gauges_.find(key);
  if (it == labeled_gauges_.end()) {
    it = labeled_gauges_
             .emplace(std::move(key),
                      Labeled<Gauge>{std::move(canonical),
                                     std::make_unique<Gauge>()})
             .first;
  }
  return it->second.instrument.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      const MetricLabels& labels) {
  MetricLabels canonical = CanonicalLabels(labels);
  if (canonical.empty()) return histogram(name);
  std::string key = SeriesKey(name, canonical);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = labeled_histograms_.find(key);
  if (it == labeled_histograms_.end()) {
    it = labeled_histograms_
             .emplace(std::move(key),
                      Labeled<Histogram>{std::move(canonical),
                                         std::make_unique<Histogram>()})
             .first;
  }
  return it->second.instrument.get();
}

MetricScope MetricScope::OrOwn() const {
  if (registry_ != nullptr) return *this;
  MetricScope owning(nullptr, labels_);
  owning.owned_ = std::make_shared<MetricsRegistry>();
  owning.registry_ = owning.owned_.get();
  return owning;
}

void MetricsRegistry::SetHelp(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  help_[std::string(name)] = std::string(help);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  }
  for (const auto& [key, entry] : labeled_counters_) {
    std::string name = key.substr(0, key.find('{'));
    snapshot.labeled_counters.push_back(
        {std::move(name), entry.labels, entry.instrument->Value()});
  }
  for (const auto& [key, entry] : labeled_gauges_) {
    std::string name = key.substr(0, key.find('{'));
    snapshot.labeled_gauges.push_back(
        {std::move(name), entry.labels, entry.instrument->Value()});
  }
  for (const auto& [key, entry] : labeled_histograms_) {
    std::string name = key.substr(0, key.find('{'));
    snapshot.labeled_histograms.push_back(
        {std::move(name), entry.labels, entry.instrument->Snapshot()});
  }
  for (const auto& [name, text] : help_) {
    snapshot.help.emplace_back(name, text);
  }
  return snapshot;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.push_back(':');
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.push_back(':');
    out += FormatDouble(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.push_back(':');
    RenderHistogramJson(histogram, &out);
  }
  out += "}";
  if (!labeled_counters.empty() || !labeled_gauges.empty() ||
      !labeled_histograms.empty()) {
    out += ",\"labeled\":{\"counters\":{";
    AppendLabeledFamilies(
        labeled_counters,
        [](uint64_t value, std::string* o) { *o += std::to_string(value); },
        &out);
    out += "},\"gauges\":{";
    AppendLabeledFamilies(
        labeled_gauges,
        [](double value, std::string* o) { *o += FormatDouble(value); },
        &out);
    out += "},\"histograms\":{";
    AppendLabeledFamilies(labeled_histograms, RenderHistogramJson, &out);
    out += "}}";
  }
  out += "}";
  return out;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  auto help_for = [this](const std::string& name) -> const std::string* {
    for (const auto& [help_name, text] : help) {
      if (help_name == name) return &text;
    }
    return nullptr;
  };
  auto emit_headers = [&](const std::string& name, const char* type) {
    if (const std::string* text = help_for(name)) {
      out += "# HELP " + name + " ";
      AppendPromHelp(*text, &out);
      out.push_back('\n');
    }
    out += "# TYPE " + name + " " + type + "\n";
  };
  auto emit_histogram = [&](const std::string& name,
                            const MetricLabels& labels,
                            const HistogramSnapshot& histogram) {
    uint64_t cumulative = 0;
    for (const auto& [bound, count] : histogram.buckets) {
      cumulative += count;
      std::pair<std::string, std::string> le{"le", FormatDouble(bound)};
      out += name + "_bucket" + PromLabelBlock(labels, &le) + " " +
             std::to_string(cumulative) + "\n";
    }
    std::pair<std::string, std::string> le{"le", "+Inf"};
    out += name + "_bucket" + PromLabelBlock(labels, &le) + " " +
           std::to_string(histogram.count) + "\n";
    out += name + "_sum" + PromLabelBlock(labels, nullptr) + " " +
           FormatDouble(histogram.sum) + "\n";
    out += name + "_count" + PromLabelBlock(labels, nullptr) + " " +
           std::to_string(histogram.count) + "\n";
  };

  // One pass per instrument kind. Within a kind, unlabeled families
  // emit first (preserving the single-node export byte-for-byte when no
  // labels exist), then labeled families, each with one header block.
  // A family that has both an unlabeled and labeled series emits its
  // headers only once, at the unlabeled sample.
  auto family_has_unlabeled = [](const auto& flat, const std::string& name) {
    for (const auto& [flat_name, value] : flat) {
      if (flat_name == name) return true;
    }
    return false;
  };

  for (const auto& [name, value] : counters) {
    emit_headers(name, "counter");
    out += name + " " + std::to_string(value) + "\n";
  }
  for (size_t i = 0; i < labeled_counters.size(); ++i) {
    const auto& sample = labeled_counters[i];
    if ((i == 0 || labeled_counters[i - 1].name != sample.name) &&
        !family_has_unlabeled(counters, sample.name)) {
      emit_headers(sample.name, "counter");
    }
    out += sample.name + PromLabelBlock(sample.labels, nullptr) + " " +
           std::to_string(sample.value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    emit_headers(name, "gauge");
    out += name + " " + FormatDouble(value) + "\n";
  }
  for (size_t i = 0; i < labeled_gauges.size(); ++i) {
    const auto& sample = labeled_gauges[i];
    if ((i == 0 || labeled_gauges[i - 1].name != sample.name) &&
        !family_has_unlabeled(gauges, sample.name)) {
      emit_headers(sample.name, "gauge");
    }
    out += sample.name + PromLabelBlock(sample.labels, nullptr) + " " +
           FormatDouble(sample.value) + "\n";
  }
  for (const auto& [name, histogram] : histograms) {
    emit_headers(name, "histogram");
    emit_histogram(name, {}, histogram);
  }
  for (size_t i = 0; i < labeled_histograms.size(); ++i) {
    const auto& sample = labeled_histograms[i];
    if ((i == 0 || labeled_histograms[i - 1].name != sample.name) &&
        !family_has_unlabeled(histograms, sample.name)) {
      emit_headers(sample.name, "histogram");
    }
    emit_histogram(sample.name, sample.labels, sample.value);
  }
  return out;
}

std::string MetricsSnapshot::Export(ExportFormat format) const {
  switch (format) {
    case ExportFormat::kJson:
      return ToJson();
    case ExportFormat::kPrometheus:
      return ToPrometheusText();
  }
  return ToJson();
}

}  // namespace obs
}  // namespace qp
