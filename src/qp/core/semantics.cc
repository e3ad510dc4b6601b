#include "qp/core/semantics.h"

namespace qp {

void SemanticFilter::AddAssociation(const Value& a, const Value& b) {
  associations_[a].insert(b);
  associations_[b].insert(a);
}

bool SemanticFilter::Associated(const Value& a, const Value& b) const {
  if (a == b) return true;
  auto it = associations_.find(a);
  return it != associations_.end() && it->second.contains(b);
}

bool SemanticFilter::IsRelated(const PreferencePath& path,
                               const SelectQuery& query) const {
  if (!path.selection().has_value()) return true;  // Joins are neutral.
  std::vector<AtomicCondition> atoms;
  if (query.where() != nullptr) query.where()->CollectAtoms(&atoms);
  bool any_literal = false;
  for (const AtomicCondition& atom : atoms) {
    if (atom.is_join()) continue;
    any_literal = true;
    if (Associated(atom.value(), path.selection()->value)) return true;
  }
  // A query without literals constrains nothing semantically.
  return !any_literal;
}

}  // namespace qp
