#ifndef QP_CORE_CONFLICT_H_
#define QP_CORE_CONFLICT_H_

#include <optional>

#include "qp/core/query_graph.h"
#include "qp/graph/preference_path.h"

namespace qp {

/// Syntactic conflict detection (paper Section 5). Two conditions are
/// syntactically conflicting when they share a common transitive join
/// whose constituent atomic joins, in the direction of the selection, are
/// all to-one, and they select different values for the same attribute —
/// a tuple functionally determined by the anchor cannot carry two values
/// at once (e.g. THEATRE.region='uptown' vs 'downtown').
///
/// Like the paper's prototype, detection is pairwise; conjunctions that
/// only fail jointly (the "one movie at a time" example) are not caught.
class ConflictDetector {
 public:
  /// The rule against the query, in two parts, so the selector can map a
  /// join chain once and test each selection that ends it. MirrorStep
  /// follows one join of a chain inside the query graph: from variable
  /// `var` (nullopt once the chain has stopped mirroring) along `join`, it
  /// returns the variable on the join's other side, or nullopt when the
  /// chain cannot conflict from there on: the join is to-many, or the
  /// query does not contain it (a fresh chain is used). A chain starts at
  /// its anchor variable.
  static std::optional<size_t> MirrorStep(const QueryGraph& query_graph,
                                          std::optional<size_t> var,
                                          const JoinEdge& join);

  /// True if `selection`, ending a chain that MirrorStep mapped to
  /// `mirror`, selects another value for an attribute the query fixes on
  /// that variable. Soft selections never conflict.
  static bool ConflictsAt(const QueryGraph& query_graph,
                          std::optional<size_t> mirror,
                          const SelectionEdge& selection);

  /// True if the transitive selection `path` conflicts with a selection
  /// already in the query: the query contains the same to-one join chain
  /// starting at the path's anchor variable and a selection on the same
  /// attribute with a different value. Join-only paths never conflict.
  static bool ConflictsWithQuery(const PreferencePath& path,
                                 const QueryGraph& query_graph);

  /// True if two candidate preferences conflict with each other: same
  /// anchor variable, identical all-to-one join chain, selections on the
  /// same attribute with different values. Used by preference integration
  /// to keep conflicting conditions out of the same conjunction.
  static bool Conflicting(const PreferencePath& a, const PreferencePath& b);
};

}  // namespace qp

#endif  // QP_CORE_CONFLICT_H_
