#include "qp/core/conflict.h"

namespace qp {

std::optional<size_t> ConflictDetector::MirrorStep(
    const QueryGraph& query_graph, std::optional<size_t> var,
    const JoinEdge& join) {
  if (!var.has_value() || join.cardinality != JoinCardinality::kToOne) {
    return std::nullopt;
  }
  return query_graph.FollowJoin(*var, join.join);
}

bool ConflictDetector::ConflictsAt(const QueryGraph& query_graph,
                                   std::optional<size_t> mirror,
                                   const SelectionEdge& selection) {
  if (!mirror.has_value() || selection.is_near()) return false;
  for (const QueryGraph::Selection& fixed :
       query_graph.SelectionsOn(*mirror)) {
    if (fixed.column == selection.attribute_id.column &&
        fixed.value != selection.value) {
      return true;
    }
  }
  return false;
}

bool ConflictDetector::ConflictsWithQuery(const PreferencePath& path,
                                          const QueryGraph& query_graph) {
  if (!path.is_selection()) return false;
  std::optional<size_t> mirror =
      query_graph.FindVariable(path.anchor_alias());
  for (const JoinEdge& join : path.joins()) {
    mirror = MirrorStep(query_graph, mirror, join);
  }
  return ConflictsAt(query_graph, mirror, *path.selection());
}

bool ConflictDetector::Conflicting(const PreferencePath& a,
                                   const PreferencePath& b) {
  if (!a.is_selection() || !b.is_selection()) return false;
  if (a.anchor_alias() != b.anchor_alias()) return false;
  if (!a.AllJoinsToOne() || !b.AllJoinsToOne()) return false;
  if (a.joins().size() != b.joins().size()) return false;
  for (size_t i = 0; i < a.joins().size(); ++i) {
    if (a.joins()[i].join != b.joins()[i].join) return false;
  }
  const SelectionEdge& sa = *a.selection();
  const SelectionEdge& sb = *b.selection();
  if (sa.is_near() || sb.is_near()) return false;  // Soft: no conflicts.
  return sa.attribute_id == sb.attribute_id && sa.value != sb.value;
}

}  // namespace qp
