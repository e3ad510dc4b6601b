#ifndef QP_BENCH_BENCH_UTIL_H_
#define QP_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qp/core/personalizer.h"
#include "qp/data/movie_db.h"
#include "qp/data/workload.h"
#include "qp/obs/metrics.h"
#include "qp/pref/profile_generator.h"
#include "qp/relational/database.h"

namespace qp {
namespace bench {

/// Shared fixture for the figure-reproduction benchmarks: one generated
/// movie database (the IMDb stand-in), candidate pools for profile
/// generation, and a query workload — the analogue of the paper's setup
/// ("data from the Internet Movies Database", "100 randomly created
/// queries", synthetic profiles).
class BenchEnv {
 public:
  /// `scale` multiplies the default database size. Deterministic.
  explicit BenchEnv(double scale = 1.0, uint64_t seed = 20040301);

  const Database& db() const { return *db_; }
  const Schema& schema() const { return schema_; }

  /// Draws a profile with `num_selections` stored atomic selections.
  UserProfile MakeProfile(size_t num_selections, Rng* rng) const;

  /// Draws `n` random queries.
  std::vector<SelectQuery> MakeQueries(size_t n, uint64_t seed) const;

 private:
  Schema schema_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ProfileGenerator> profiles_;
};

/// Prints a header in a uniform style so bench outputs are grep-able:
/// === <figure id>: <title> ===
void PrintHeader(const std::string& figure, const std::string& title,
                 const std::string& paper_expectation);

/// Prints one aligned data row: label followed by columns.
void PrintRow(const std::vector<std::string>& cells);

/// Every series of histogram `name` in `snapshot`, unlabeled and under
/// each label set, merged bucket by bucket: a cluster registers one
/// series per shard.
obs::HistogramSnapshot MergedHistogram(const obs::MetricsSnapshot& snapshot,
                                       const std::string& name);

/// One benchmark binary's machine-readable sidecar: named scalars plus
/// histogram percentile summaries, serialized as a single JSON object.
/// The service/storage benchmarks used to hand-roll their own JSON
/// emission (via --benchmark_format=json and ad-hoc counters); they now
/// feed this report instead, so every BENCH_*.json snapshot carries the
/// same shape — including per-phase latency percentiles from the
/// observability registry.
///
///   {"bench":"<name>",
///    "scalars":{"<k>":v,...},
///    "histograms":{"<k>":{"count":n,"sum":s,"p50":...,"p95":...,
///                         "p99":...},...}}
///
/// Keys keep insertion order; re-adding a key overwrites its value (the
/// benchmark library may re-run a registered function for estimation).
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void AddScalar(const std::string& name, double value);
  void AddHistogram(const std::string& name,
                    const obs::HistogramSnapshot& snapshot);

  std::string ToJson() const;

  /// Writes ToJson() + '\n' to the file named by $QP_BENCH_JSON
  /// (appending, one object per benchmark binary run — JSONL), or to
  /// stdout when the variable is unset. Returns false on I/O failure.
  bool Write() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> histograms_;
};

}  // namespace bench
}  // namespace qp

#endif  // QP_BENCH_BENCH_UTIL_H_
