#include "qp/graph/personalization_graph.h"

#include <algorithm>
#include <cmath>

#include "qp/util/string_util.h"

namespace qp {

std::string SelectionEdge::ToString() const {
  if (is_near()) {
    return "near(" + attribute.ToString() + ", " + value.ToSqlLiteral() +
           ", " + FormatDouble(near_width) + ") (" + FormatDouble(doi) + ")";
  }
  return attribute.ToString() + "=" + value.ToSqlLiteral() + " (" +
         FormatDouble(doi) + ")";
}

std::string JoinEdge::ToString() const {
  return from.ToString() + "=" + to.ToString() + " (" + FormatDouble(doi) +
         ", " + JoinCardinalityName(cardinality) + ")";
}

Result<PersonalizationGraph> PersonalizationGraph::Build(
    const Schema* schema, const UserProfile& profile) {
  PersonalizationGraph graph(schema);
  const size_t num_tables = schema->tables().size();
  const size_t stride = num_tables + 1;
  graph.num_tables_ = num_tables;

  // Resolve each preference once and give it its place: the range of its
  // kind and relation, then decreasing degree of interest (|doi| for
  // dislikes), which the selection algorithm relies on; profile order
  // breaks ties, so the order is deterministic.
  struct Slot {
    size_t range;  // kind * stride + relation id.
    double magnitude;
    size_t index;  // Position in the profile.
    ResolvedPreference resolved;
  };
  const std::vector<AtomicPreference>& prefs = profile.preferences();
  std::vector<Slot> slots;
  slots.reserve(prefs.size());
  size_t num_joins = 0;
  for (size_t i = 0; i < prefs.size(); ++i) {
    const AtomicPreference& pref = prefs[i];
    QP_ASSIGN_OR_RETURN(ResolvedPreference resolved,
                        ResolvePreference(*schema, pref));
    const Kind kind = pref.is_join()       ? kJoins
                      : pref.is_negative() ? kDislikes
                                           : kSelections;
    num_joins += kind == kJoins ? 1 : 0;
    slots.push_back({kind * stride + resolved.attribute.table,
                     std::abs(pref.doi()), i, resolved});
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    if (a.range != b.range) return a.range < b.range;
    if (a.magnitude != b.magnitude) return a.magnitude > b.magnitude;
    return a.index < b.index;
  });

  // Joins come first, then the positive selections, then the dislikes;
  // each range ends where the next begins.
  graph.joins_.reserve(num_joins);
  graph.selections_.reserve(prefs.size() - num_joins);
  graph.offsets_.assign(3 * stride, 0);
  for (const Slot& slot : slots) {
    const AtomicPreference& pref = prefs[slot.index];
    const ResolvedPreference& r = slot.resolved;
    if (pref.is_join()) {
      graph.joins_.push_back(JoinEdge{pref.attribute(), pref.target(),
                                      pref.doi(),
                                      schema->CardinalityOf(r.join), r.join,
                                      r.target_table});
    } else {
      graph.selections_.push_back(
          SelectionEdge{pref.attribute(), pref.value(), pref.doi(),
                        pref.is_near() ? pref.width() : 0.0, r.attribute});
    }
    ++graph.offsets_[slot.range + 1];
  }
  // Counts to offsets. Selections and dislikes share one array, so the
  // dislikes' ranges start after the last positive selection.
  for (size_t kind : {kJoins, kSelections, kDislikes}) {
    uint32_t* offsets = &graph.offsets_[kind * stride];
    if (kind == kDislikes) offsets[0] = offsets[-1];
    for (size_t t = 0; t < num_tables; ++t) offsets[t + 1] += offsets[t];
  }
  return graph;
}

std::span<const JoinEdge> PersonalizationGraph::JoinsFrom(
    const std::string& table) const {
  std::optional<TableId> id = schema_->FindTableId(table);
  return id.has_value() ? JoinsFrom(*id) : std::span<const JoinEdge>();
}

std::span<const SelectionEdge> PersonalizationGraph::SelectionsOn(
    const std::string& table) const {
  std::optional<TableId> id = schema_->FindTableId(table);
  return id.has_value() ? SelectionsOn(*id)
                        : std::span<const SelectionEdge>();
}

std::span<const SelectionEdge> PersonalizationGraph::NegativeSelectionsOn(
    const std::string& table) const {
  std::optional<TableId> id = schema_->FindTableId(table);
  return id.has_value() ? NegativeSelectionsOn(*id)
                        : std::span<const SelectionEdge>();
}

std::string PersonalizationGraph::DebugString() const {
  std::string out;
  // Iterate over schema tables for deterministic ordering.
  for (TableId table = 0; table < num_tables_; ++table) {
    for (const JoinEdge& edge : JoinsFrom(table)) {
      out += "join      " + edge.ToString() + "\n";
    }
    for (const SelectionEdge& edge : SelectionsOn(table)) {
      out += "selection " + edge.ToString() + "\n";
    }
    for (const SelectionEdge& edge : NegativeSelectionsOn(table)) {
      out += "dislike   " + edge.ToString() + "\n";
    }
  }
  return out;
}

}  // namespace qp
