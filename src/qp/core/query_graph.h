#ifndef QP_CORE_QUERY_GRAPH_H_
#define QP_CORE_QUERY_GRAPH_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "qp/query/query.h"
#include "qp/relational/schema.h"
#include "qp/util/status.h"

namespace qp {

/// The query represented as a sub-graph on top of the personalization
/// graph (paper Section 5): its tuple variables are (possibly replicated)
/// relation nodes, its atomic conditions are selection and join edges.
/// Preference paths attach to a tuple variable and expand outwards.
///
/// Everything is resolved to schema ids when the graph is built: a
/// variable is its index in variables(), a relation its TableId, a
/// column its index, and a join atom the declared join it traverses.
///
/// The paper's framework targets conjunctive queries; accordingly every
/// atom of the qualification is treated as if conjunctive when deciding
/// relatedness and conflicts.
class QueryGraph {
 public:
  /// An equality selection `var.column = value` of the query.
  struct Selection {
    uint32_t column;
    Value value;
  };

  /// Validates `query` against `schema` and extracts the structure below.
  /// Copies everything it needs; neither argument is retained.
  static Result<QueryGraph> Build(const SelectQuery& query,
                                  const Schema& schema);

  const std::vector<TupleVariable>& variables() const { return variables_; }

  /// Relation of variable `var` (an index into variables()).
  TableId TableOf(size_t var) const { return var_tables_[var]; }

  /// Index of the variable declared as `alias`, or nullopt.
  std::optional<size_t> FindVariable(const std::string& alias) const;

  /// True if some tuple variable ranges over `table` — used by the cycle
  /// pruning rule (paths must not expand into a relation of the query).
  bool UsesTable(TableId table) const {
    return table < uses_table_.size() && uses_table_[table];
  }

  /// Equality selections of the query on variable `var`. Soft (near)
  /// conditions are not among them: they admit a neighbourhood, not one
  /// value, so they never conflict.
  std::span<const Selection> SelectionsOn(size_t var) const {
    return selections_[var];
  }

  /// Follows the query's join edges: starting from variable `var`, finds
  /// a join atom that traverses the declared join `join` (with its source
  /// on `var`'s side) and returns the variable on the other side, or
  /// nullopt if the query contains no such join. Used by syntactic
  /// conflict detection to mirror a preference path inside the query
  /// graph.
  std::optional<size_t> FollowJoin(size_t var, JoinId join) const;

 private:
  QueryGraph() = default;

  /// A join atom of the query over a declared schema join: `join` is its
  /// traversal from `left_var` to `right_var`.
  struct JoinAtom {
    size_t left_var;
    size_t right_var;
    JoinId join;
  };

  std::vector<TupleVariable> variables_;
  std::vector<TableId> var_tables_;
  std::vector<bool> uses_table_;
  std::vector<std::vector<Selection>> selections_;
  std::vector<JoinAtom> joins_;
};

}  // namespace qp

#endif  // QP_CORE_QUERY_GRAPH_H_
