#ifndef QP_EXEC_EXECUTOR_H_
#define QP_EXEC_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "qp/exec/result.h"
#include "qp/obs/trace.h"
#include "qp/query/query.h"
#include "qp/relational/database.h"
#include "qp/util/deadline.h"
#include "qp/util/status.h"

namespace qp {

/// Execution counters: the work an execution did, which the
/// `qp_exec_*` metrics, the "execution" span and the end-to-end
/// benchmark's exec.* rows report. Accumulated through an Execute call
/// tree via a single caller-owned instance: compound execution passes the
/// same pointer into its part / exclusion recursions, so every counter is
/// bumped exactly once at the site that does the work — never again at
/// an enclosing level.
struct ExecutorStats {
  /// Number of conjunctive blocks executed: one per conjunct of a
  /// SELECT's qualification (SQ queries pay C(K-M, L) of these). The
  /// parts of an MQ compound built by PreferenceIntegrator are conjunctive,
  /// so it pays one per part, plus its exclusions' conjuncts.
  size_t disjuncts = 0;
  /// Variable bindings produced across all join steps, including
  /// intermediate ones — a proxy for work done. A semi step (a join into
  /// an existential tuple variable under set semantics) counts the rows
  /// it keeps, one per row that has a match.
  size_t bindings = 0;
  /// Rows emitted before duplicate elimination. Under set semantics a
  /// semi step has kept each row once, not once per match.
  size_t raw_rows = 0;
};

/// Evaluates queries against an in-memory Database. The executor handles
/// the SQL subset the personalization framework emits:
///  - SelectQuery: arbitrary and/or trees of equality selections and
///    joins, with or without DISTINCT. Internally the qualification is
///    OR-expanded to DNF and each conjunct is executed with index-backed
///    hash joins (greedy connected join ordering), mirroring what a
///    commercial optimizer does to the paper's SQ queries.
///  - CompoundQuery: UNION ALL of parts, GROUP BY the projected columns,
///    HAVING count(*) >= L or DEGREE_OF_CONJUNCTION(doi) > d, ORDER BY
///    combined degree of interest descending (ranking), EXCEPT blocks,
///    and signed degrees for dislike penalties.
/// Execution is columnar: each conjunct runs over batches with one row-id
/// column per tuple variable (BatchTable), joining on the tables' key
/// codes. A projected row is identified by the key codes of its output
/// columns (Table::Keys), not by its Values: SELECT DISTINCT, each part's
/// DISTINCT and the compound's GROUP BY run on those code tuples, HAVING
/// on the group aggregates, and Values are decoded from the codes
/// (KeyIndex::Decode) once per row of the answer (for a compound, per
/// group that passes HAVING, before the EXCEPT vetoes).
/// Runs with set semantics (a DISTINCT SELECT's conjuncts, so every part
/// of an MQ compound) semi-join their existential tuple variables: one
/// neither projected nor under a near condition, and joined through a
/// single atom, only has to have a matching row, so its join keeps each
/// row once instead of once per match. Bag SELECTs and the binding-level
/// OR dedup keep the expanding join.
/// A compound runs its parts one after another through the SELECT path
/// and groups each part's rows as they are produced: a row's code tuple
/// finds its group; a DISTINCT part adds to each group it reaches once,
/// its degree times the best satisfaction among its rows there, and a bag
/// part adds once per row.
/// Results are canonicalized (deterministically ordered). Tests check
/// them against a brute-force oracle (testing_util::ReferenceExecute).
class Executor {
 public:
  /// `db` is retained and must outlive the executor.
  explicit Executor(const Database* db) : db_(db) {}

  Result<ResultSet> Execute(const SelectQuery& query,
                            ExecutorStats* stats = nullptr) const;
  Result<ResultSet> Execute(const CompoundQuery& query,
                            ExecutorStats* stats = nullptr) const;

  /// Cooperative cancellation: `cancel` (not owned; may be null) is
  /// polled periodically from the row loops. When it trips, execution
  /// stops producing and returns the rows fully materialized so far as a
  /// partial ResultSet flagged truncated() — every returned row is a
  /// genuine answer, but the set may be incomplete and (for compounds)
  /// dislike vetoes may be under-applied. The token must outlive the
  /// Execute call.
  void set_cancel_token(const CancelToken* cancel) { cancel_ = cancel; }

  /// Request tracing: the outermost Execute contributes an "execution"
  /// span (with disjunct/binding/row counters); each executed disjunct
  /// and each compound part nests a child span. Not owned; may be null;
  /// must outlive the Execute calls.
  void set_trace(obs::RequestTrace* trace) { trace_ = trace; }

 private:
  Result<ResultSet> ExecuteSelectVec(const SelectQuery& query,
                                     ExecutorStats* stats) const;
  /// Receives a SELECT's rows as they are produced: one row's output key
  /// codes and its near-condition satisfaction (1 when its conjunct has
  /// none).
  using RowSink = std::function<void(const uint32_t* codes, double sat)>;
  /// Runs a SELECT, handing `sink` each row in the order produced. Rows
  /// come with their duplicates (keeping one per distinct row is the
  /// sink's job under DISTINCT), except that a bag SELECT with several
  /// conjuncts yields each distinct binding once. *truncated is set when
  /// execution was cut short. ExecuteSelectVec's sink builds the answer;
  /// a compound's sink is its GROUP BY.
  Status RunSelectVec(const SelectQuery& query, ExecutorStats* stats,
                      bool* truncated, const RowSink& sink) const;
  Result<ResultSet> ExecuteCompoundVec(const CompoundQuery& query,
                                       ExecutorStats* stats) const;
  /// EXCEPT blocks: rows returned by any exclusion query land in
  /// `vetoed`.
  Status CollectExclusions(const CompoundQuery& query, ExecutorStats* stats,
                           std::unordered_set<Row, RowHash, RowEq>* vetoed,
                           bool* truncated) const;
  /// Closes the outermost "execution" span with the stats delta and rows
  /// produced.
  void FinishOuterExecute(obs::ScopedSpan* span, const ExecutorStats& entry,
                          const ExecutorStats& exit,
                          const Result<ResultSet>& result) const;

  const Database* db_;
  const CancelToken* cancel_ = nullptr;
  obs::RequestTrace* trace_ = nullptr;
  /// Execute recursion depth (compound -> part / exclusion -> select).
  /// Spans attach to the outermost frame only; stats
  /// themselves are incremented exactly once at the working site.
  mutable size_t exec_depth_ = 0;
};

}  // namespace qp

#endif  // QP_EXEC_EXECUTOR_H_
