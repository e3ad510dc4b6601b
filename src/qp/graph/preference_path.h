#ifndef QP_GRAPH_PREFERENCE_PATH_H_
#define QP_GRAPH_PREFERENCE_PATH_H_

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "qp/graph/personalization_graph.h"

namespace qp {

/// A directed path in the personalization graph: zero or more composable
/// join edges optionally terminated by one selection edge. Paths anchored
/// at a query tuple variable are the paper's transitive preferences:
/// - joins only            -> transitive join,
/// - joins + selection     -> transitive selection (what preference
///                            selection outputs),
/// - single selection edge -> atomic selection.
/// The degree of interest is the product of the edge degrees (the paper's
/// transitive preference function) and is maintained incrementally.
class PreferencePath {
 public:
  /// An empty path attached to the query variable `anchor_alias`, which
  /// ranges over `anchor_table`. Degree of the empty path is 1.
  PreferencePath(std::string anchor_alias, std::string anchor_table);

  /// The path from `anchor_alias` along `joins`, terminated by
  /// `selection` when given. Its degree is the product of the edge
  /// degrees, multiplied in path order (as ExtendedBy accumulates it).
  PreferencePath(std::string anchor_alias, std::string anchor_table,
                 std::vector<JoinEdge> joins,
                 std::optional<SelectionEdge> selection);

  /// The path extended by one more join / terminated by a selection.
  /// Extending requires composability (edge leaves EndTable()) and, for
  /// joins, acyclicity — callers enforce both; asserts in debug builds.
  PreferencePath ExtendedBy(const JoinEdge& edge) const;
  PreferencePath ExtendedBy(const SelectionEdge& edge) const;

  const std::string& anchor_alias() const { return anchor_alias_; }
  const std::string& anchor_table() const { return anchor_table_; }
  const std::vector<JoinEdge>& joins() const { return joins_; }
  const std::optional<SelectionEdge>& selection() const { return selection_; }

  /// True once a selection edge terminates the path (no further
  /// composition is possible).
  bool is_selection() const { return selection_.has_value(); }

  /// True if the terminating selection is a dislike (negative degree);
  /// the path degree is then negative as well.
  bool is_negative() const { return doi_ < 0.0; }

  /// Product of edge degrees; 1 for the empty path. Negative exactly
  /// when the path ends in a negative selection edge.
  double doi() const { return doi_; }

  /// |doi()| — the magnitude used to order dislikes.
  double AbsDoi() const { return doi_ < 0 ? -doi_ : doi_; }

  /// Number of atomic conditions on the path.
  size_t Length() const { return joins_.size() + (is_selection() ? 1 : 0); }

  /// The relation at the end of the join chain (the anchor table when
  /// there are no joins) — where further edges may compose.
  const std::string& EndTable() const;

  /// True if the path's relation nodes (anchor and every join target)
  /// include `table`. Used for cycle pruning.
  bool VisitsTable(const std::string& table) const;

  /// True if all join edges are to-one in the path direction; vacuously
  /// true without joins. Drives syntactic conflict detection and the
  /// tuple-variable sharing rule.
  bool AllJoinsToOne() const;

  /// Condition rendering with table names (no tuple variables), matching
  /// the paper's notation: "MOVIE.mid=GENRE.mid and GENRE.genre='comedy'".
  std::string ConditionString() const;

  /// ConditionString plus the degree: "... <0.81>".
  std::string ToString() const;

  /// True if the two paths have the same anchor variable and edge
  /// sequence (degrees included).
  bool SameShape(const PreferencePath& other) const;

 private:
  std::string anchor_alias_;
  std::string anchor_table_;
  std::vector<JoinEdge> joins_;
  std::optional<SelectionEdge> selection_;
  double doi_ = 1.0;
};

/// Exhaustively enumerates every transitive selection anchored at
/// `anchor_alias` (over `anchor_table`) that expands outwards: acyclic and
/// never entering `forbidden_tables` (pass the query's tables, minus the
/// anchor handling — the anchor table itself is excluded automatically
/// for join targets). This is the brute-force reference used to test the
/// best-first selection algorithm and by the profile inspector example.
std::vector<PreferencePath> EnumerateTransitiveSelections(
    const PersonalizationGraph& graph, const std::string& anchor_alias,
    const std::string& anchor_table,
    const std::unordered_set<std::string>& forbidden_tables);

/// Same exhaustive enumeration for *negative* transitive selections:
/// positive join chains terminated by a dislike edge. Used to derive the
/// conditions personalization penalizes or vetoes.
std::vector<PreferencePath> EnumerateNegativeTransitiveSelections(
    const PersonalizationGraph& graph, const std::string& anchor_alias,
    const std::string& anchor_table,
    const std::unordered_set<std::string>& forbidden_tables);

}  // namespace qp

#endif  // QP_GRAPH_PREFERENCE_PATH_H_
