// Ablation A3: the executor on representative personalization-shaped
// queries over the movie schema (DESIGN.md row A3). Uses google-benchmark
// per query, then writes a BenchReport JSON sidecar ($QP_BENCH_JSON) with
// the mean time per query and their total, which CI holds under 2x the
// baseline.

#include <memory>
#include <string>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "qp/data/movie_db.h"
#include "qp/exec/executor.h"
#include "qp/query/sql_parser.h"
#include "qp/util/timer.h"

namespace qp {
namespace {

const Database& SharedDb() {
  static Database* db = [] {
    MovieDbConfig config;
    config.num_movies = 2000;
    config.num_actors = 800;
    config.num_directors = 150;
    config.num_theatres = 20;
    auto generated = GenerateMovieDatabase(config);
    return new Database(std::move(generated).value());
  }();
  return *db;
}

constexpr int kQueries = 3;

const char* QueryFor(int index) {
  switch (index) {
    case 0:  // Single join + selective predicate.
      return "select MV.title from MOVIE MV, GENRE GN where "
             "MV.mid=GN.mid and GN.genre='western'";
    case 1:  // Two-hop chain (typical transitive preference shape).
      return "select distinct MV.title from MOVIE MV, CAST CA, ACTOR AC "
             "where MV.mid=CA.mid and CA.aid=AC.aid and "
             "AC.name='Actor #3'";
    default:  // Three-hop with a date filter (the tonight query shape).
      return "select distinct MV.title from MOVIE MV, PLAY PL, THEATRE TH "
             "where MV.mid=PL.mid and PL.tid=TH.tid and "
             "TH.region='downtown' and PL.date='2003-07-02'";
  }
}

void BM_Execute(benchmark::State& state) {
  Executor executor(&SharedDb());
  auto query = ParseSelectQuery(QueryFor(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto result = executor.Execute(*query);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Execute)->Arg(0)->Arg(1)->Arg(2);

/// Mean wall time per execution over `iters` runs, in milliseconds.
double MeanMillis(Executor* executor, const SelectQuery& query,
                  int iters) {
  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    auto result = executor->Execute(query);
    benchmark::DoNotOptimize(result);
  }
  return timer.ElapsedMillis() / iters;
}

/// The machine-readable snapshot: per-query mean times and their total.
void WriteReport() {
  bench::BenchReport report("ablation_exec");
  const int kIters = 30;
  double total = 0;
  for (int q = 0; q < kQueries; ++q) {
    auto query = ParseSelectQuery(QueryFor(q));
    Executor executor(&SharedDb());
    // Run once first so the lazily built key indexes aren't timed.
    (void)executor.Execute(*query);
    const double ms = MeanMillis(&executor, *query, kIters);
    total += ms;
    report.AddScalar("q" + std::to_string(q) + "_ms", ms);
  }
  report.AddScalar("total_ms", total);
  report.Write();
}

}  // namespace
}  // namespace qp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  qp::WriteReport();
  return 0;
}
