#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <map>

namespace qp {
namespace bench {

BenchEnv::BenchEnv(double scale, uint64_t seed) : schema_(MovieSchema()) {
  MovieDbConfig config;
  config.num_movies = static_cast<size_t>(6000 * scale);
  config.num_actors = static_cast<size_t>(2500 * scale);
  config.num_directors = static_cast<size_t>(400 * scale);
  config.num_theatres = static_cast<size_t>(40 * scale);
  config.num_days = 14;
  config.plays_per_theatre_per_day = 3;
  config.seed = seed;
  auto db = GenerateMovieDatabase(config);
  if (!db.ok()) {
    std::fprintf(stderr, "bench: database generation failed: %s\n",
                 db.status().ToString().c_str());
    std::abort();
  }
  db_ = std::make_unique<Database>(std::move(db).value());
  auto pools = MovieCandidatePools(*db_);
  if (!pools.ok()) {
    std::fprintf(stderr, "bench: candidate pools failed: %s\n",
                 pools.status().ToString().c_str());
    std::abort();
  }
  profiles_ =
      std::make_unique<ProfileGenerator>(&schema_, std::move(pools).value());
}

UserProfile BenchEnv::MakeProfile(size_t num_selections, Rng* rng) const {
  ProfileGeneratorOptions options;
  options.num_selections = num_selections;
  auto profile = profiles_->Generate(options, rng);
  if (!profile.ok()) {
    std::fprintf(stderr, "bench: profile generation failed: %s\n",
                 profile.status().ToString().c_str());
    std::abort();
  }
  return std::move(profile).value();
}

std::vector<SelectQuery> BenchEnv::MakeQueries(size_t n,
                                               uint64_t seed) const {
  WorkloadGenerator workload(db_.get(), seed);
  auto queries = workload.RandomQueries(n);
  if (!queries.ok()) {
    std::fprintf(stderr, "bench: workload generation failed: %s\n",
                 queries.status().ToString().c_str());
    std::abort();
  }
  return std::move(queries).value();
}

void PrintHeader(const std::string& figure, const std::string& title,
                 const std::string& paper_expectation) {
  std::printf("\n=== %s: %s ===\n", figure.c_str(), title.c_str());
  std::printf("paper shape: %s\n", paper_expectation.c_str());
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%-14s", i == 0 ? "" : " ", cells[i].c_str());
  }
  std::printf("\n");
}

namespace {

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

template <typename T>
void Upsert(std::vector<std::pair<std::string, T>>* entries,
            const std::string& name, T value) {
  for (auto& entry : *entries) {
    if (entry.first == name) {
      entry.second = std::move(value);
      return;
    }
  }
  entries->emplace_back(name, std::move(value));
}

}  // namespace

obs::HistogramSnapshot MergedHistogram(const obs::MetricsSnapshot& snapshot,
                                       const std::string& name) {
  obs::HistogramSnapshot merged;
  std::map<double, uint64_t> buckets;
  auto merge = [&](const obs::HistogramSnapshot& h) {
    merged.count += h.count;
    merged.sum += h.sum;
    for (const auto& [bound, count] : h.buckets) buckets[bound] += count;
  };
  for (const auto& [series, h] : snapshot.histograms) {
    if (series == name) merge(h);
  }
  for (const auto& sample : snapshot.labeled_histograms) {
    if (sample.name == name) merge(sample.value);
  }
  merged.buckets.assign(buckets.begin(), buckets.end());
  return merged;
}

void BenchReport::AddScalar(const std::string& name, double value) {
  Upsert(&scalars_, name, value);
}

void BenchReport::AddHistogram(const std::string& name,
                               const obs::HistogramSnapshot& snapshot) {
  Upsert(&histograms_, name, snapshot);
}

std::string BenchReport::ToJson() const {
  std::string out = "{\"bench\":\"" + name_ + "\",\"scalars\":{";
  for (size_t i = 0; i < scalars_.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + scalars_[i].first + "\":" + FormatDouble(scalars_[i].second);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms_.size(); ++i) {
    const auto& [name, snapshot] = histograms_[i];
    if (i > 0) out += ',';
    out += '"' + name + "\":{\"count\":" +
           std::to_string(snapshot.count) +
           ",\"sum\":" + FormatDouble(snapshot.sum) +
           ",\"p50\":" + FormatDouble(snapshot.p50()) +
           ",\"p95\":" + FormatDouble(snapshot.p95()) +
           ",\"p99\":" + FormatDouble(snapshot.p99()) + '}';
  }
  out += "}}";
  return out;
}

bool BenchReport::Write() const {
  std::string line = ToJson() + "\n";
  const char* path = std::getenv("QP_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') {
    std::fputs(line.c_str(), stdout);
    return true;
  }
  std::FILE* file = std::fopen(path, "a");
  if (file == nullptr) return false;
  bool ok = std::fputs(line.c_str(), file) >= 0;
  ok = std::fclose(file) == 0 && ok;
  return ok;
}

}  // namespace bench
}  // namespace qp
