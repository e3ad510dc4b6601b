#ifndef QP_QUERY_CONDITION_H_
#define QP_QUERY_CONDITION_H_

#include <memory>
#include <string>
#include <vector>

#include "qp/relational/value.h"

namespace qp {

/// Atomic query element: an equality selection `var.column = value`, an
/// equality join `lvar.lcolumn = rvar.rcolumn`, or a *soft* proximity
/// selection `near(var.column, target, width)` — satisfied to degree
/// max(0, 1 - |v - target| / width), the soft-constraint extension
/// ("price near $20") the paper lists as ongoing work. These are exactly
/// the constructs the preference model assigns degrees of interest to.
class AtomicCondition {
 public:
  enum class Kind { kSelection, kJoin, kNear };

  /// Default-constructs a vacuous selection; exists so AtomicCondition can
  /// be held by value in containers and nodes. Use the factories below.
  AtomicCondition() = default;

  static AtomicCondition Selection(std::string var, std::string column,
                                   Value value);
  static AtomicCondition Join(std::string left_var, std::string left_column,
                              std::string right_var,
                              std::string right_column);
  /// `target` must be numeric, `width` > 0. Rows at distance >= width do
  /// not match at all (satisfaction 0).
  static AtomicCondition Near(std::string var, std::string column,
                              Value target, double width);

  Kind kind() const { return kind_; }
  bool is_selection() const { return kind_ == Kind::kSelection; }
  bool is_join() const { return kind_ == Kind::kJoin; }
  bool is_near() const { return kind_ == Kind::kNear; }

  /// Selection / near accessors (require is_selection() || is_near()).
  const std::string& var() const { return left_var_; }
  const std::string& column() const { return left_column_; }
  const Value& value() const { return value_; }
  /// Proximity half-width (require is_near()).
  double width() const { return width_; }

  /// Satisfaction of a near condition by `v`: 1 at the target, linear
  /// decay, 0 from `width` away (and for non-numeric / NULL values).
  /// Requires is_near().
  double Satisfaction(const Value& v) const;

  /// Join accessors (require is_join()).
  const std::string& left_var() const { return left_var_; }
  const std::string& left_column() const { return left_column_; }
  const std::string& right_var() const { return right_var_; }
  const std::string& right_column() const { return right_column_; }

  /// Tuple-variable aliases referenced by this atom (1 or 2 entries).
  std::vector<std::string> ReferencedVars() const;

  /// SQL rendering, e.g. `MV.mid=GN.mid` or `GN.genre='comedy'`.
  std::string ToSql() const;

  friend bool operator==(const AtomicCondition& a, const AtomicCondition& b);

 private:
  Kind kind_ = Kind::kSelection;
  std::string left_var_;
  std::string left_column_;
  std::string right_var_;    // Joins only.
  std::string right_column_; // Joins only.
  Value value_;              // Selections and near conditions.
  double width_ = 0.0;       // Near conditions only.
};

inline bool operator!=(const AtomicCondition& a, const AtomicCondition& b) {
  return !(a == b);
}

class ConditionNode;
/// Condition trees are immutable and shared; copying a query is cheap.
using ConditionPtr = std::shared_ptr<const ConditionNode>;

/// A boolean combination of atomic conditions: a binary-free n-ary tree of
/// AND / OR nodes over atoms. A null ConditionPtr means "true" (no
/// qualification).
class ConditionNode {
  /// Only the factories can make the key the constructor takes; the
  /// constructor is public so they can allocate node and count together.
  struct Key {
    explicit Key() = default;
  };

 public:
  enum class Kind { kAtom, kAnd, kOr };

  explicit ConditionNode(Key) {}

  /// Factories. MakeAnd / MakeOr flatten nested nodes of the same kind,
  /// drop null children, and collapse a single child to itself; an empty
  /// child list yields null ("true" for AND; callers must not pass an
  /// empty OR, which would be "false").
  static ConditionPtr MakeAtom(AtomicCondition atom);
  static ConditionPtr MakeAnd(std::vector<ConditionPtr> children);
  static ConditionPtr MakeOr(std::vector<ConditionPtr> children);

  /// Conjunction of two possibly-null conditions.
  static ConditionPtr Conjoin(ConditionPtr a, ConditionPtr b);

  Kind kind() const { return kind_; }
  const AtomicCondition& atom() const { return atom_; }
  const std::vector<ConditionPtr>& children() const { return children_; }

  /// Appends every atom in the subtree to `out` (pre-order).
  void CollectAtoms(std::vector<AtomicCondition>* out) const;

  /// Calls `fn` on every atom in the subtree (pre-order), copying none.
  template <typename Fn>
  void ForEachAtom(Fn&& fn) const {
    if (kind_ == Kind::kAtom) {
      fn(atom_);
      return;
    }
    for (const ConditionPtr& child : children_) child->ForEachAtom(fn);
  }

  /// SQL rendering with minimal parenthesization: OR children of an AND
  /// are parenthesized.
  std::string ToSql() const;

  /// Number of atoms in the subtree.
  size_t NumAtoms() const;

 private:
  Kind kind_ = Kind::kAtom;
  AtomicCondition atom_;
  std::vector<ConditionPtr> children_;
};

/// Structural equality of condition trees (same shape, same atoms).
bool ConditionEquals(const ConditionPtr& a, const ConditionPtr& b);

/// Converts a condition tree to disjunctive normal form: a list of
/// conjunctions of atoms whose disjunction is equivalent to `condition`.
/// A null condition yields a single empty conjunction ("true").
/// Exponential in the worst case; the personalization workload produces
/// at most C(K-M, L) disjuncts (the paper's SQ combination count).
std::vector<std::vector<AtomicCondition>> ToDnf(const ConditionPtr& condition);

}  // namespace qp

#endif  // QP_QUERY_CONDITION_H_
