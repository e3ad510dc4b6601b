#ifndef QP_CORE_SELECTION_H_
#define QP_CORE_SELECTION_H_

#include <vector>

#include "qp/core/interest_criterion.h"
#include "qp/core/query_graph.h"
#include "qp/core/semantics.h"
#include "qp/graph/personalization_graph.h"
#include "qp/obs/trace.h"
#include "qp/graph/preference_path.h"
#include "qp/query/query.h"
#include "qp/util/deadline.h"
#include "qp/util/status.h"

namespace qp {

/// Counters describing one run of the selection algorithm.
struct SelectionStats {
  size_t paths_popped = 0;       // Candidates taken off the queue.
  size_t paths_pushed = 0;       // Candidates entered into the queue.
  size_t pruned_cycle = 0;       // Expansions into a visited/query relation.
  size_t pruned_conflict = 0;    // Candidates conflicting with the query.
  size_t pruned_semantic = 0;    // Rejected by the semantic filter.
  size_t pruned_criterion = 0;   // Expansions cut by the interest criterion.
  size_t max_queue_size = 0;
  /// True when the run was cut short by a cancel token / deadline. The
  /// paths returned are then a *prefix* of the unconstrained result in
  /// decreasing-doi order (the loop emits accepted selections in final
  /// order, so stopping early truncates, never reorders).
  bool degraded = false;
};

/// Preference selection (paper Section 5.2, Figure 5): extracts from the
/// user's personalization graph the top-K transitive selections that are
/// syntactically related to — and not conflicting with — the query, in
/// decreasing degree-of-interest order, where K is determined by the
/// interest criterion.
///
/// The implementation is the paper's best-first traversal: a queue of
/// candidate paths ordered by decreasing degree (ties broken towards
/// shorter/earlier paths), expanding join paths outwards from the query
/// graph and pruning cycles, conflicts, and criterion failures. The
/// candidates live in a per-call arena, one graph edge and a parent index
/// each, and every check runs on schema ids; a PreferencePath, names and
/// all, is built only for an accepted selection or for one a
/// SemanticFilter judges.
class PreferenceSelector {
 public:
  /// `graph` is retained and must outlive the selector.
  explicit PreferenceSelector(const PersonalizationGraph* graph)
      : graph_(graph) {}

  /// Runs the algorithm for `query` under `criterion`. The result is the
  /// ordered set P_K (transitive selections, degree non-increasing).
  /// `semantic`, when given, restricts the output to semantically
  /// related preferences (paper: "the algorithm may output only these") —
  /// rejected candidates are pruned like conflicts and do not consume the
  /// interest criterion.
  ///
  /// `cancel`, when given, is polled once per queue pop: if it trips, the
  /// run stops and returns the selections accepted so far with
  /// stats->degraded set — a valid prefix of the full top-K (decreasing-
  /// doi order makes truncation semantically clean).
  ///
  /// `trace`, when given, receives a "preference_selection" span whose
  /// counters are the SelectionStats of the run (paths pushed/popped,
  /// prune attribution, degraded flag) — the paper's Figure 6 measurement
  /// attached to the request that paid for it.
  Result<std::vector<PreferencePath>> Select(
      const SelectQuery& query, const InterestCriterion& criterion,
      SelectionStats* stats = nullptr,
      const SemanticFilter* semantic = nullptr,
      const CancelToken* cancel = nullptr,
      obs::RequestTrace* trace = nullptr) const;

  /// Reference implementation: exhaustively enumerates every related
  /// non-conflicting transitive selection, sorts by (degree desc, length
  /// asc), and applies the criterion greedily. Used to verify completeness
  /// (paper Theorem 2) in tests and as the no-pruning baseline in the
  /// ablation benchmark.
  Result<std::vector<PreferencePath>> SelectBruteForce(
      const SelectQuery& query, const InterestCriterion& criterion,
      size_t* enumerated = nullptr,
      const SemanticFilter* semantic = nullptr) const;

  /// Selects the *dislikes* relevant to the query (negative-preference
  /// extension): every negative transitive selection that is related to
  /// the query, satisfiable against it (a dislike conflicting with a
  /// query condition through a to-one chain can never match and is
  /// dropped), and of magnitude at least `min_abs_doi`; sorted by |doi|
  /// descending (ties towards shorter paths), capped at `max_count`.
  Result<std::vector<PreferencePath>> SelectNegative(
      const SelectQuery& query, size_t max_count,
      double min_abs_doi = 0.0) const;

 private:
  Result<std::vector<PreferencePath>> SelectInternal(
      const SelectQuery& query, const InterestCriterion& criterion,
      SelectionStats* stats, const SemanticFilter* semantic,
      const CancelToken* cancel) const;

  const PersonalizationGraph* graph_;
};

}  // namespace qp

#endif  // QP_CORE_SELECTION_H_
