#include "qp/core/query_graph.h"

namespace qp {

Result<QueryGraph> QueryGraph::Build(const SelectQuery& query,
                                     const Schema& schema) {
  QP_RETURN_IF_ERROR(query.Validate(schema));
  QueryGraph graph;
  graph.variables_ = query.from();
  graph.uses_table_.assign(schema.tables().size(), false);
  graph.selections_.resize(graph.variables_.size());
  for (const TupleVariable& var : graph.variables_) {
    const TableId table = *schema.FindTableId(var.table);
    graph.var_tables_.push_back(table);
    graph.uses_table_[table] = true;
  }
  if (query.where() == nullptr) return graph;

  // Validate checked every name below, so each resolves.
  auto attribute = [&](size_t var, const std::string& column) {
    const TableId table = graph.var_tables_[var];
    return AttributeId{table, static_cast<uint32_t>(
                                  *schema.tables()[table].ColumnIndex(column))};
  };
  query.where()->ForEachAtom([&](const AtomicCondition& atom) {
    if (atom.is_selection()) {
      const size_t var = *graph.FindVariable(atom.var());
      graph.selections_[var].push_back(
          {attribute(var, atom.column()).column, atom.value()});
    } else if (atom.is_join()) {
      const size_t left = *graph.FindVariable(atom.left_var());
      const size_t right = *graph.FindVariable(atom.right_var());
      // A join no schema join declares matches no preference edge.
      std::optional<JoinId> join =
          schema.FindJoinId(attribute(left, atom.left_column()),
                            attribute(right, atom.right_column()));
      if (join.has_value()) graph.joins_.push_back({left, right, *join});
    }
  });
  return graph;
}

std::optional<size_t> QueryGraph::FindVariable(
    const std::string& alias) const {
  for (size_t i = 0; i < variables_.size(); ++i) {
    if (variables_[i].alias == alias) return i;
  }
  return std::nullopt;
}

std::optional<size_t> QueryGraph::FollowJoin(size_t var, JoinId join) const {
  // Traversing an atom backwards is the declared join's other direction.
  for (const JoinAtom& atom : joins_) {
    if (atom.left_var == var && atom.join == join) return atom.right_var;
    if (atom.right_var == var && (atom.join ^ 1u) == join) {
      return atom.left_var;
    }
  }
  return std::nullopt;
}

}  // namespace qp
