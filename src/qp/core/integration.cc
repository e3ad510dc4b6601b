#include "qp/core/integration.h"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "qp/core/conflict.h"

namespace qp {
namespace {

/// Each relation's alias prefix (its name's first two letters, upper-
/// cased), computed once per integration call.
class AliasPrefixes {
 public:
  const std::string& For(const JoinEdge& edge) {
    if (edge.to_table >= prefixes_.size()) {
      prefixes_.resize(edge.to_table + 1);
    }
    std::string& prefix = prefixes_[edge.to_table];
    if (prefix.empty()) {
      const std::string& table = edge.to.table;
      for (size_t i = 0; i < table.size() && i < 2; ++i) {
        prefix += static_cast<char>(
            std::toupper(static_cast<unsigned char>(table[i])));
      }
    }
    return prefix;
  }

 private:
  std::vector<std::string> prefixes_;  // By TableId; empty until needed.
};

/// Allocates tuple variables in `query` for preference paths and
/// materializes each path's conditions against those variables,
/// implementing the Section 6 sharing rule (share along to-one prefixes,
/// diverge at the first to-many join).
class VariableAllocator {
 public:
  VariableAllocator(SelectQuery* query, AliasPrefixes* prefixes)
      : query_(query), prefixes_(prefixes) {}

  /// Appends `path`'s conditions, over the variables it is given, to
  /// `atoms`.
  void Materialize(const PreferencePath& path,
                   std::vector<AtomicCondition>* atoms) {
    // Variables are positions in the query's FROM list. A to-one prefix
    // is identified by where it starts and the joins it takes, so the
    // variable it reaches is keyed by (variable, join) step by step.
    size_t current = VariableIndex(path.anchor_alias());
    bool sharable = true;  // Still on the (possibly shared) to-one prefix.
    for (const JoinEdge& edge : path.joins()) {
      size_t target;
      if (edge.cardinality == JoinCardinality::kToOne && sharable) {
        auto it = std::find_if(shared_.begin(), shared_.end(),
                               [&](const SharedStep& step) {
                                 return step.from == current &&
                                        step.join == edge.join;
                               });
        if (it != shared_.end()) {
          target = it->to;
        } else {
          target = NewVariable(edge);
          shared_.push_back({current, edge.join, target});
        }
      } else {
        // First to-many join (or anything after one): fresh variables so
        // independent preferences stay independent.
        sharable = false;
        target = NewVariable(edge);
      }
      atoms->push_back(AtomicCondition::Join(Alias(current), edge.from.column,
                                             Alias(target), edge.to.column));
      current = target;
    }
    if (path.selection().has_value()) {
      const SelectionEdge& selection = *path.selection();
      if (selection.is_near()) {
        atoms->push_back(AtomicCondition::Near(Alias(current),
                                               selection.attribute.column,
                                               selection.value,
                                               selection.near_width));
      } else {
        atoms->push_back(AtomicCondition::Selection(
            Alias(current), selection.attribute.column, selection.value));
      }
    }
  }

 private:
  /// One shared to-one step: `join` taken from variable `from` reaches
  /// variable `to`.
  struct SharedStep {
    size_t from;
    JoinId join;
    size_t to;
  };

  size_t VariableIndex(const std::string& alias) const {
    return static_cast<size_t>(query_->FindVariable(alias) -
                               query_->from().data());
  }
  const std::string& Alias(size_t var) const {
    return query_->from()[var].alias;
  }

  size_t NewVariable(const JoinEdge& edge) {
    std::string alias = query_->FreshAlias(prefixes_->For(edge));
    // AddVariable cannot fail: FreshAlias guarantees uniqueness.
    (void)query_->AddVariable(std::move(alias), edge.to.table);
    return query_->from().size() - 1;
  }

  SelectQuery* query_;
  AliasPrefixes* prefixes_;
  std::vector<SharedStep> shared_;
};

/// `where` AND `atoms` as one flat condition tree, dropping exact
/// duplicates among the atoms ("any repeated conditions are removed");
/// the first of equal atoms keeps its place.
ConditionPtr Conjunction(std::vector<AtomicCondition> atoms,
                         ConditionPtr where = nullptr) {
  std::vector<ConditionPtr> nodes;
  nodes.reserve(atoms.size() + 1);
  nodes.push_back(std::move(where));  // MakeAnd drops a null.
  for (AtomicCondition& atom : atoms) {
    const bool seen = std::any_of(
        nodes.begin() + 1, nodes.end(),
        [&](const ConditionPtr& node) { return node->atom() == atom; });
    if (!seen) nodes.push_back(ConditionNode::MakeAtom(std::move(atom)));
  }
  return ConditionNode::MakeAnd(std::move(nodes));
}

/// C(n, k) with saturation at `cap`.
size_t CombinationsCapped(size_t n, size_t k, size_t cap) {
  if (k > n) return 0;
  size_t result = 1;
  for (size_t i = 0; i < k; ++i) {
    result = result * (n - i) / (i + 1);
    if (result > cap) return cap + 1;
  }
  return result;
}

Status CheckParams(size_t num_preferences, const IntegrationParams& params) {
  if (params.mandatory_count > num_preferences) {
    return Status::InvalidArgument(
        "M = " + std::to_string(params.mandatory_count) + " exceeds K = " +
        std::to_string(num_preferences));
  }
  if (!params.min_degree.has_value() &&
      params.min_satisfied > num_preferences - params.mandatory_count) {
    return Status::InvalidArgument(
        "L = " + std::to_string(params.min_satisfied) + " exceeds K - M = " +
        std::to_string(num_preferences - params.mandatory_count));
  }
  return Status::Ok();
}

Status CheckMandatoryConflicts(const std::vector<PreferencePath>& preferences,
                               size_t mandatory_count) {
  for (size_t i = 0; i < mandatory_count; ++i) {
    for (size_t j = i + 1; j < mandatory_count; ++j) {
      if (ConflictDetector::Conflicting(preferences[i], preferences[j])) {
        return Status::FailedPrecondition(
            "mandatory preferences conflict: " +
            preferences[i].ConditionString() + " vs " +
            preferences[j].ConditionString());
      }
    }
  }
  return Status::Ok();
}

/// Every path must leave a variable of the query it is integrated into.
Status CheckAnchors(const SelectQuery& original,
                    const std::vector<PreferencePath>& paths) {
  for (const PreferencePath& path : paths) {
    if (!original.HasVariable(path.anchor_alias())) {
      return Status::InvalidArgument(
          "preference anchored at an undeclared variable: " +
          path.anchor_alias());
    }
  }
  return Status::Ok();
}

}  // namespace

Result<SelectQuery> PreferenceIntegrator::BuildSingleQuery(
    const SelectQuery& original,
    const std::vector<PreferencePath>& preferences,
    const IntegrationParams& params) const {
  for (const PreferencePath& pref : preferences) {
    if (pref.is_negative()) {
      return Status::Unimplemented(
          "negative preferences cannot be expressed in the single-query "
          "form (no negation in the condition language); use the MQ form");
    }
  }
  if (preferences.empty()) return original;
  if (params.min_degree.has_value()) {
    return Status::InvalidArgument(
        "a minimum result degree (min_degree) is only expressible in the "
        "MQ form");
  }
  QP_RETURN_IF_ERROR(CheckParams(preferences.size(), params));
  QP_RETURN_IF_ERROR(
      CheckMandatoryConflicts(preferences, params.mandatory_count));
  QP_RETURN_IF_ERROR(CheckAnchors(original, preferences));

  const size_t k = preferences.size();
  const size_t m = params.mandatory_count;
  const size_t l = params.min_satisfied;

  SelectQuery result = original;
  result.set_distinct(true);
  AliasPrefixes prefixes;
  VariableAllocator allocator(&result, &prefixes);

  std::vector<std::vector<AtomicCondition>> conditions(k);
  for (size_t i = 0; i < k; ++i) {
    allocator.Materialize(preferences[i], &conditions[i]);
  }

  // Mandatory block: conjunction of the top-M conditions.
  std::vector<AtomicCondition> mandatory_atoms;
  for (size_t i = 0; i < m; ++i) {
    mandatory_atoms.insert(mandatory_atoms.end(),
                           std::make_move_iterator(conditions[i].begin()),
                           std::make_move_iterator(conditions[i].end()));
  }

  // Optional block: disjunction over all conflict-free L-subsets.
  ConditionPtr disjunction;
  if (l > 0) {
    if (CombinationsCapped(k - m, l, params.max_combinations) >
        params.max_combinations) {
      return Status::OutOfRange(
          "SQ would enumerate more than " +
          std::to_string(params.max_combinations) + " combinations");
    }
    // Precompute the pairwise conflict relation among optional conditions.
    const size_t optional = k - m;
    std::vector<std::vector<bool>> conflicting(
        optional, std::vector<bool>(optional, false));
    for (size_t i = 0; i < optional; ++i) {
      for (size_t j = i + 1; j < optional; ++j) {
        conflicting[i][j] = conflicting[j][i] = ConflictDetector::Conflicting(
            preferences[m + i], preferences[m + j]);
      }
    }
    std::vector<ConditionPtr> disjuncts;
    std::vector<size_t> combo;
    // Recursive enumeration of conflict-free L-subsets in lexicographic
    // order (so higher-degree conditions lead the disjunction).
    auto enumerate = [&](auto&& self, size_t next) -> void {
      if (combo.size() == l) {
        std::vector<AtomicCondition> atoms;
        for (size_t idx : combo) {
          atoms.insert(atoms.end(), conditions[m + idx].begin(),
                       conditions[m + idx].end());
        }
        disjuncts.push_back(Conjunction(std::move(atoms)));
        return;
      }
      for (size_t i = next; i < optional; ++i) {
        bool ok = true;
        for (size_t chosen : combo) {
          if (conflicting[chosen][i]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        combo.push_back(i);
        self(self, i + 1);
        combo.pop_back();
      }
    };
    enumerate(enumerate, 0);
    if (disjuncts.empty()) {
      return Status::FailedPrecondition(
          "no conflict-free combination of " + std::to_string(l) +
          " preferences exists");
    }
    disjunction = ConditionNode::MakeOr(std::move(disjuncts));
  }

  result.set_where(ConditionNode::MakeAnd(
      {original.where(), Conjunction(std::move(mandatory_atoms)),
       disjunction}));
  return result;
}

Result<CompoundQuery> PreferenceIntegrator::BuildMultipleQueries(
    const SelectQuery& original,
    const std::vector<PreferencePath>& preferences,
    const IntegrationParams& params) const {
  return BuildMultipleQueries(original, preferences, {}, params);
}

Result<CompoundQuery> PreferenceIntegrator::BuildMultipleQueries(
    const SelectQuery& original,
    const std::vector<PreferencePath>& preferences,
    const std::vector<PreferencePath>& negatives,
    const IntegrationParams& params) const {
  AliasPrefixes prefixes;
  // Dislikes attach to the compound after the positive structure exists.
  auto attach_negatives = [&](CompoundQuery* compound) -> Status {
    QP_RETURN_IF_ERROR(CheckAnchors(original, negatives));
    for (const PreferencePath& dislike : negatives) {
      if (!dislike.is_negative()) {
        return Status::InvalidArgument(
            "positive preference passed as a dislike: " +
            dislike.ToString());
      }
      SelectQuery part = original;
      part.set_distinct(true);
      VariableAllocator allocator(&part, &prefixes);
      std::vector<AtomicCondition> atoms;
      allocator.Materialize(dislike, &atoms);
      part.set_where(Conjunction(std::move(atoms), original.where()));
      if (params.negative_mode == NegativeMode::kVeto) {
        compound->AddExclusion(std::move(part));
      } else {
        compound->AddPart(std::move(part), -dislike.AbsDoi());
      }
    }
    return Status::Ok();
  };

  CompoundQuery compound;
  if (preferences.empty()) {
    SelectQuery part = original;
    part.set_distinct(true);
    compound.AddPart(std::move(part), 0.0);
    compound.set_having(HavingClause::None());
    QP_RETURN_IF_ERROR(attach_negatives(&compound));
    compound.set_order_by_degree(!negatives.empty() &&
                                 params.order_by_degree);
    return compound;
  }
  QP_RETURN_IF_ERROR(CheckParams(preferences.size(), params));
  QP_RETURN_IF_ERROR(
      CheckMandatoryConflicts(preferences, params.mandatory_count));
  QP_RETURN_IF_ERROR(CheckAnchors(original, preferences));

  const size_t k = preferences.size();
  const size_t m = params.mandatory_count;
  const size_t l = params.min_satisfied;

  // Degenerate form: nothing optional to count — a single partial query
  // with the mandatory conditions.
  const bool mandatory_only =
      (k == m) || (l == 0 && !params.min_degree.has_value());
  if (mandatory_only) {
    SelectQuery part = original;
    part.set_distinct(true);
    VariableAllocator allocator(&part, &prefixes);
    std::vector<AtomicCondition> atoms;
    for (size_t i = 0; i < m; ++i) {
      allocator.Materialize(preferences[i], &atoms);
    }
    part.set_where(Conjunction(std::move(atoms), original.where()));
    compound.AddPart(std::move(part), m == 0 ? 0.0 : preferences[0].doi());
    compound.set_having(HavingClause::None());
    compound.set_order_by_degree(false);
    QP_RETURN_IF_ERROR(attach_negatives(&compound));
    return compound;
  }

  size_t mandatory_length = 0;
  for (size_t j = 0; j < m; ++j) mandatory_length += preferences[j].Length();
  for (size_t i = m; i < k; ++i) {
    SelectQuery part = original;
    part.set_distinct(true);
    VariableAllocator allocator(&part, &prefixes);
    std::vector<AtomicCondition> atoms;
    atoms.reserve(mandatory_length + preferences[i].Length());
    for (size_t j = 0; j < m; ++j) {
      allocator.Materialize(preferences[j], &atoms);
    }
    allocator.Materialize(preferences[i], &atoms);
    part.set_where(Conjunction(std::move(atoms), original.where()));
    compound.AddPart(std::move(part), preferences[i].doi());
  }

  if (params.min_degree.has_value()) {
    compound.set_having(HavingClause::DegreeAbove(*params.min_degree));
  } else {
    compound.set_having(HavingClause::CountAtLeast(l));
  }
  compound.set_order_by_degree(params.order_by_degree);
  QP_RETURN_IF_ERROR(attach_negatives(&compound));
  return compound;
}

}  // namespace qp
