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
  if (query.where() == nullptr) return true;
  bool any_literal = false;
  bool associated = false;
  query.where()->ForEachAtom([&](const AtomicCondition& atom) {
    if (associated || atom.is_join()) return;
    any_literal = true;
    associated = Associated(atom.value(), path.selection()->value);
  });
  // A query without literals constrains nothing semantically.
  return associated || !any_literal;
}

}  // namespace qp
