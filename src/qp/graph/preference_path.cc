#include "qp/graph/preference_path.h"

#include <cassert>

#include "qp/util/string_util.h"

namespace qp {

PreferencePath::PreferencePath(std::string anchor_alias,
                               std::string anchor_table)
    : anchor_alias_(std::move(anchor_alias)),
      anchor_table_(std::move(anchor_table)) {}

PreferencePath::PreferencePath(std::string anchor_alias,
                               std::string anchor_table,
                               std::vector<JoinEdge> joins,
                               std::optional<SelectionEdge> selection)
    : anchor_alias_(std::move(anchor_alias)),
      anchor_table_(std::move(anchor_table)),
      joins_(std::move(joins)),
      selection_(std::move(selection)) {
  for (const JoinEdge& join : joins_) doi_ *= join.doi;
  if (selection_.has_value()) doi_ *= selection_->doi;
}

PreferencePath PreferencePath::ExtendedBy(const JoinEdge& edge) const {
  assert(!is_selection());
  assert(edge.from.table == EndTable());
  assert(!VisitsTable(edge.to.table));
  PreferencePath extended = *this;
  extended.joins_.push_back(edge);
  extended.doi_ *= edge.doi;
  return extended;
}

PreferencePath PreferencePath::ExtendedBy(const SelectionEdge& edge) const {
  assert(!is_selection());
  assert(edge.attribute.table == EndTable());
  PreferencePath extended = *this;
  extended.selection_ = edge;
  extended.doi_ *= edge.doi;
  return extended;
}

const std::string& PreferencePath::EndTable() const {
  return joins_.empty() ? anchor_table_ : joins_.back().to.table;
}

bool PreferencePath::VisitsTable(const std::string& table) const {
  if (anchor_table_ == table) return true;
  for (const JoinEdge& join : joins_) {
    if (join.to.table == table) return true;
  }
  return false;
}

bool PreferencePath::AllJoinsToOne() const {
  for (const JoinEdge& join : joins_) {
    if (join.cardinality != JoinCardinality::kToOne) return false;
  }
  return true;
}

std::string PreferencePath::ConditionString() const {
  std::vector<std::string> parts;
  for (const JoinEdge& join : joins_) {
    parts.push_back(join.from.ToString() + "=" + join.to.ToString());
  }
  if (selection_.has_value()) {
    if (selection_->is_near()) {
      parts.push_back("near(" + selection_->attribute.ToString() + ", " +
                      selection_->value.ToSqlLiteral() + ", " +
                      FormatDouble(selection_->near_width) + ")");
    } else {
      parts.push_back(selection_->attribute.ToString() + "=" +
                      selection_->value.ToSqlLiteral());
    }
  }
  return Join(parts, " and ");
}

std::string PreferencePath::ToString() const {
  return ConditionString() + " <" + FormatDouble(doi_) + ">";
}

bool PreferencePath::SameShape(const PreferencePath& other) const {
  if (anchor_alias_ != other.anchor_alias_ ||
      anchor_table_ != other.anchor_table_) {
    return false;
  }
  if (joins_.size() != other.joins_.size()) return false;
  for (size_t i = 0; i < joins_.size(); ++i) {
    if (!(joins_[i].from == other.joins_[i].from) ||
        !(joins_[i].to == other.joins_[i].to)) {
      return false;
    }
  }
  if (selection_.has_value() != other.selection_.has_value()) return false;
  if (selection_.has_value()) {
    if (!(selection_->attribute == other.selection_->attribute) ||
        selection_->value != other.selection_->value ||
        selection_->near_width != other.selection_->near_width) {
      return false;
    }
  }
  return true;
}

namespace {

/// DFS over positive join edges; `selections_of` picks which polarity of
/// selection edges terminates paths.
void Enumerate(const PersonalizationGraph& graph,
               const std::unordered_set<std::string>& forbidden,
               const PreferencePath& prefix, bool negative,
               std::vector<PreferencePath>* out) {
  const std::string& end = prefix.EndTable();
  std::span<const SelectionEdge> selections =
      negative ? graph.NegativeSelectionsOn(end) : graph.SelectionsOn(end);
  for (const SelectionEdge& edge : selections) {
    out->push_back(prefix.ExtendedBy(edge));
  }
  for (const JoinEdge& edge : graph.JoinsFrom(end)) {
    if (prefix.VisitsTable(edge.to.table)) continue;
    if (forbidden.contains(edge.to.table)) continue;
    Enumerate(graph, forbidden, prefix.ExtendedBy(edge), negative, out);
  }
}

}  // namespace

std::vector<PreferencePath> EnumerateTransitiveSelections(
    const PersonalizationGraph& graph, const std::string& anchor_alias,
    const std::string& anchor_table,
    const std::unordered_set<std::string>& forbidden_tables) {
  std::vector<PreferencePath> out;
  PreferencePath root(anchor_alias, anchor_table);
  Enumerate(graph, forbidden_tables, root, /*negative=*/false, &out);
  return out;
}

std::vector<PreferencePath> EnumerateNegativeTransitiveSelections(
    const PersonalizationGraph& graph, const std::string& anchor_alias,
    const std::string& anchor_table,
    const std::unordered_set<std::string>& forbidden_tables) {
  std::vector<PreferencePath> out;
  PreferencePath root(anchor_alias, anchor_table);
  Enumerate(graph, forbidden_tables, root, /*negative=*/true, &out);
  return out;
}

}  // namespace qp
