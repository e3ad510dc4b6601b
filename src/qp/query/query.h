#ifndef QP_QUERY_QUERY_H_
#define QP_QUERY_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "qp/query/condition.h"
#include "qp/relational/schema.h"
#include "qp/util/status.h"

namespace qp {

/// A tuple variable: an alias ranging over a relation
/// (`from MOVIE MV` declares {alias="MV", table="MOVIE"}).
struct TupleVariable {
  std::string alias;
  std::string table;

  friend bool operator==(const TupleVariable& a, const TupleVariable& b) {
    return a.alias == b.alias && a.table == b.table;
  }
};

/// One projected attribute, `var.column`.
struct ProjectionItem {
  std::string var;
  std::string column;

  /// Column label in the result ("MV.title").
  std::string OutputName() const { return var + "." + column; }

  friend bool operator==(const ProjectionItem& a, const ProjectionItem& b) {
    return a.var == b.var && a.column == b.column;
  }
};

/// A conjunctive/disjunctive SPJ query: SELECT [DISTINCT] projections
/// FROM tuple variables WHERE condition-tree. This is the query class the
/// paper personalizes.
class SelectQuery {
 public:
  SelectQuery() = default;

  /// Declares `alias` ranging over `table`. Fails on duplicate alias.
  Status AddVariable(std::string alias, std::string table);

  /// Appends `var.column` to the projection list.
  void AddProjection(std::string var, std::string column);

  void set_where(ConditionPtr where) { where_ = std::move(where); }
  void set_distinct(bool distinct) { distinct_ = distinct; }

  const std::vector<TupleVariable>& from() const { return from_; }
  const std::vector<ProjectionItem>& projections() const {
    return projections_;
  }
  const ConditionPtr& where() const { return where_; }
  bool distinct() const { return distinct_; }

  /// The variable declared as `alias`, or nullptr.
  const TupleVariable* FindVariable(const std::string& alias) const;

  /// True if some declared alias equals `alias`.
  bool HasVariable(const std::string& alias) const {
    return FindVariable(alias) != nullptr;
  }

  /// Smallest unused alias with the given prefix ("GN", "GN2", "GN3"...).
  std::string FreshAlias(const std::string& prefix) const;

  /// Checks the query against `schema`: every variable ranges over an
  /// existing table, every projected / selected / joined attribute exists,
  /// every atom references declared variables, selection literal types
  /// match the column type, and joined columns have matching types.
  Status Validate(const Schema& schema) const;

 private:
  std::vector<TupleVariable> from_;
  std::vector<ProjectionItem> projections_;
  ConditionPtr where_;
  bool distinct_ = false;
};

/// HAVING predicate of a compound (MQ-style) query.
struct HavingClause {
  enum class Kind {
    kNone,
    /// count(*) >= min_count: "at least L preferences satisfied".
    kCountAtLeast,
    /// DEGREE_OF_CONJUNCTION(doi) > min_degree: minimum estimated degree
    /// of interest per result row.
    kDegreeAbove,
  };

  Kind kind = Kind::kNone;
  size_t min_count = 0;
  double min_degree = 0.0;

  static HavingClause None() { return {}; }
  static HavingClause CountAtLeast(size_t n) {
    return {Kind::kCountAtLeast, n, 0.0};
  }
  static HavingClause DegreeAbove(double d) {
    return {Kind::kDegreeAbove, 0, d};
  }
};

/// One branch of a compound query: a SELECT plus the degree of interest
/// of the preference it integrates (0 for branches with no preference).
/// A *negative* degree marks a penalty branch: rows it returns do not
/// count towards count(*) but have their combined degree multiplied by
/// (1 - |degree|) — how soft dislikes demote results.
struct CompoundPart {
  SelectQuery query;
  double degree = 0.0;
};

/// The paper's MQ form: UNION ALL of partial queries, grouped by the
/// projected attributes of the initial query, filtered by a HAVING clause
/// and optionally ordered by the estimated combined degree of interest
/// (the DEGREE_OF_CONJUNCTION aggregate). Extended with EXCEPT blocks
/// (veto-strength dislikes): rows returned by any exclusion query are
/// removed from the answer.
class CompoundQuery {
 public:
  CompoundQuery() = default;

  void AddPart(SelectQuery query, double degree) {
    parts_.push_back({std::move(query), degree});
  }

  /// Adds an EXCEPT block; its projection must match the parts'.
  void AddExclusion(SelectQuery query) {
    exclusions_.push_back(std::move(query));
  }

  void set_having(HavingClause having) { having_ = having; }
  void set_order_by_degree(bool v) { order_by_degree_ = v; }

  const std::vector<CompoundPart>& parts() const { return parts_; }
  const std::vector<SelectQuery>& exclusions() const { return exclusions_; }
  const HavingClause& having() const { return having_; }
  bool order_by_degree() const { return order_by_degree_; }

  /// True if degrees participate in the result (HAVING on degree or
  /// ORDER BY degree); the SQL writer then emits a doi column per part.
  bool UsesDegrees() const {
    return order_by_degree_ || having_.kind == HavingClause::Kind::kDegreeAbove;
  }

  /// All parts valid, and projection lists structurally identical: every
  /// part projects the same table column at each position. Exclusions
  /// need only the parts' arity.
  Status Validate(const Schema& schema) const;

 private:
  std::vector<CompoundPart> parts_;
  std::vector<SelectQuery> exclusions_;
  HavingClause having_;
  bool order_by_degree_ = false;
};

}  // namespace qp

#endif  // QP_QUERY_QUERY_H_
