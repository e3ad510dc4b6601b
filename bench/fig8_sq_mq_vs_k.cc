// Figure 8: Comparison of SQ and MQ with K (L = 1, M = 0).
//
// Top plot: preference integration time (building the personalized query)
// for the SQ and MQ approaches as K grows. Bottom plot: execution time of
// the personalized queries. The paper finds MQ integration time is
// practically zero and flat, SQ integration grows with K (duplicate
// elimination / minimal-query construction), and MQ executes faster (SQ
// returns each result many times and must deduplicate).
//
// The per-K execution times and their totals go into a BenchReport JSON
// sidecar ($QP_BENCH_JSON); CI holds the totals under 2x the baseline.

#include <string>
#include <vector>

#include "bench_util.h"
#include "qp/core/integration.h"
#include "qp/core/selection.h"
#include "qp/exec/executor.h"
#include "qp/util/string_util.h"
#include "qp/util/timer.h"

namespace qp {
namespace bench {
namespace {

void Run() {
  PrintHeader("Figure 8", "SQ vs MQ integration & execution time with K "
              "(L=1, ms)",
              "MQ integration ~0 and flat; SQ integration grows with K; "
              "MQ execution faster than SQ, gap widening with K");

  BenchEnv env;
  env.db().WarmIndexes();  // Time execution, not the lazy index builds.
  Executor executor(&env.db());
  PreferenceIntegrator integrator;
  const size_t kProfiles = 6;
  const size_t kQueries = 4;
  std::vector<SelectQuery> queries = env.MakeQueries(kQueries, 81);

  BenchReport report("fig8_sq_mq_vs_k");
  double total_sq = 0;
  double total_mq = 0;

  PrintRow({"K", "SQ integ", "MQ integ", "SQ exec", "MQ exec",
            "avg K used"});
  Rng rng(4242);
  for (size_t k : {0, 5, 10, 20, 30, 40, 50, 60}) {
    double sq_integ = 0;
    double mq_integ = 0;
    double sq_exec = 0;
    double mq_exec = 0;
    size_t runs = 0;
    size_t total_k = 0;
    for (size_t p = 0; p < kProfiles; ++p) {
      UserProfile profile = env.MakeProfile(150, &rng);
      auto graph = PersonalizationGraph::Build(&env.schema(), profile);
      if (!graph.ok()) continue;
      PreferenceSelector selector(&*graph);
      for (const SelectQuery& query : queries) {
        auto prefs =
            selector.Select(query, InterestCriterion::TopCount(k));
        if (!prefs.ok()) continue;
        total_k += prefs->size();
        IntegrationParams params;
        params.min_satisfied = prefs->empty() ? 0 : 1;

        WallTimer timer;
        auto sq = integrator.BuildSingleQuery(query, *prefs, params);
        sq_integ += timer.ElapsedMillis();
        timer.Restart();
        auto mq = integrator.BuildMultipleQueries(query, *prefs, params);
        mq_integ += timer.ElapsedMillis();
        if (!sq.ok() || !mq.ok()) continue;

        timer.Restart();
        auto sq_result = executor.Execute(*sq);
        sq_exec += timer.ElapsedMillis();
        timer.Restart();
        auto mq_result = executor.Execute(*mq);
        mq_exec += timer.ElapsedMillis();
        if (!sq_result.ok() || !mq_result.ok()) continue;
        ++runs;
      }
    }
    if (runs == 0) continue;
    total_sq += sq_exec;
    total_mq += mq_exec;
    const std::string kk = std::to_string(k);
    report.AddScalar("k" + kk + "_sq_exec_ms", sq_exec / runs);
    report.AddScalar("k" + kk + "_mq_exec_ms", mq_exec / runs);
    PrintRow({kk, FormatDouble(sq_integ / runs, 4),
              FormatDouble(mq_integ / runs, 4),
              FormatDouble(sq_exec / runs, 4),
              FormatDouble(mq_exec / runs, 4),
              std::to_string(total_k / (kProfiles * kQueries))});
  }
  report.AddScalar("total_sq_exec_ms", total_sq);
  report.AddScalar("total_mq_exec_ms", total_mq);
  report.Write();
}

}  // namespace
}  // namespace bench
}  // namespace qp

int main() {
  qp::bench::Run();
  return 0;
}
