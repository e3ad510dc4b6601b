// Figure 9: Comparison of SQ and MQ with L (K = 10, M = 0).
//
// SQ must build the disjunction of all C(K-M, L) combinations of L
// conditions, so its integration and execution times track the binomial
// coefficient (peaking at L = K/2); MQ builds K - M partial queries
// regardless of L, so both its times are flat and near zero.
//
// The per-L execution times and their totals go into a BenchReport JSON
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
  PrintHeader("Figure 9", "SQ vs MQ integration & execution time with L "
              "(K=10, ms)",
              "MQ flat and ~0 (K-M partial queries independent of L); SQ "
              "tracks C(K-M, L) — rises towards L=K/2, falls at L=K");

  BenchEnv env;
  env.db().WarmIndexes();  // Time execution, not the lazy index builds.
  Executor executor(&env.db());
  PreferenceIntegrator integrator;
  const size_t kProfiles = 5;
  const size_t kQueries = 3;
  std::vector<SelectQuery> queries = env.MakeQueries(kQueries, 91);

  // Pre-select the top-10 preferences per (profile, query) pair once.
  struct Prepared {
    SelectQuery query;
    std::vector<PreferencePath> prefs;
  };
  std::vector<Prepared> prepared;
  std::vector<PersonalizationGraph> graphs;
  Rng rng(777);
  for (size_t p = 0; p < kProfiles; ++p) {
    UserProfile profile = env.MakeProfile(150, &rng);
    auto graph = PersonalizationGraph::Build(&env.schema(), profile);
    if (!graph.ok()) continue;
    graphs.push_back(std::move(graph).value());
  }
  for (PersonalizationGraph& graph : graphs) {
    PreferenceSelector selector(&graph);
    for (const SelectQuery& query : queries) {
      auto prefs = selector.Select(query, InterestCriterion::TopCount(10));
      if (!prefs.ok() || prefs->size() < 10) continue;
      prepared.push_back({query, std::move(prefs).value()});
    }
  }

  BenchReport report("fig9_sq_mq_vs_l");
  double total_sq = 0;
  double total_mq = 0;

  PrintRow({"L", "C(10,L)", "SQ integ", "MQ integ", "SQ exec", "MQ exec"});
  for (size_t l = 1; l <= 10; ++l) {
    double sq_integ = 0;
    double mq_integ = 0;
    double sq_exec = 0;
    double mq_exec = 0;
    size_t runs = 0;
    for (const Prepared& item : prepared) {
      IntegrationParams params;
      params.min_satisfied = l;

      WallTimer timer;
      auto sq = integrator.BuildSingleQuery(item.query, item.prefs, params);
      sq_integ += timer.ElapsedMillis();
      timer.Restart();
      auto mq =
          integrator.BuildMultipleQueries(item.query, item.prefs, params);
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
    if (runs == 0) continue;
    total_sq += sq_exec;
    total_mq += mq_exec;
    size_t combos = 1;
    for (size_t i = 0; i < l; ++i) combos = combos * (10 - i) / (i + 1);
    const std::string ll = std::to_string(l);
    report.AddScalar("l" + ll + "_sq_exec_ms", sq_exec / runs);
    report.AddScalar("l" + ll + "_mq_exec_ms", mq_exec / runs);
    PrintRow({ll, std::to_string(combos),
              FormatDouble(sq_integ / runs, 4),
              FormatDouble(mq_integ / runs, 4),
              FormatDouble(sq_exec / runs, 4),
              FormatDouble(mq_exec / runs, 4)});
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
