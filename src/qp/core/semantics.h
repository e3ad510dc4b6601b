#ifndef QP_CORE_SEMANTICS_H_
#define QP_CORE_SEMANTICS_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "qp/graph/preference_path.h"
#include "qp/query/query.h"
#include "qp/relational/value.h"

namespace qp {

/// Semantic-level relatedness (paper Sections 5 and 8): deciding whether a
/// preference is related to a query can require knowledge beyond the
/// schema — "a preference for W. Allen is semantically related to a query
/// about comedies; a preference for M. Tarkowski is semantically
/// conflicting with the same query". Preferences that are semantically
/// related are always syntactically related too, so a semantic filter
/// only ever *narrows* the selection algorithm's output (the algorithm
/// "may output only these").
///
/// The knowledge is a value-association base: the designer (or a mined
/// co-occurrence model) declares which literal values go together, e.g.
/// 'comedy' <-> 'W. Allen'. A preference is related to a query iff the
/// query mentions no literals at all (nothing to relate against) or some
/// query literal is associated with the preference's selection value.
/// Association is reflexive (every value relates to itself) and
/// symmetric. The selector calls IsRelated once per candidate transitive
/// selection; it is cheap and side-effect free.
class SemanticFilter {
 public:
  /// Declares `a` and `b` as associated (stored symmetrically).
  void AddAssociation(const Value& a, const Value& b);

  /// True if the values are equal or were declared associated.
  bool Associated(const Value& a, const Value& b) const;

  /// True if the transitive selection `path` is semantically related to
  /// `query`.
  bool IsRelated(const PreferencePath& path, const SelectQuery& query) const;

 private:
  std::unordered_map<Value, std::unordered_set<Value, ValueHash>, ValueHash>
      associations_;
};

}  // namespace qp

#endif  // QP_CORE_SEMANTICS_H_
