#include "qp/query/query.h"

namespace qp {

Status SelectQuery::AddVariable(std::string alias, std::string table) {
  if (HasVariable(alias)) {
    return Status::AlreadyExists("duplicate tuple variable: " + alias);
  }
  from_.push_back({std::move(alias), std::move(table)});
  return Status::Ok();
}

void SelectQuery::AddProjection(std::string var, std::string column) {
  projections_.push_back({std::move(var), std::move(column)});
}

const TupleVariable* SelectQuery::FindVariable(
    const std::string& alias) const {
  for (const auto& v : from_) {
    if (v.alias == alias) return &v;
  }
  return nullptr;
}

std::string SelectQuery::FreshAlias(const std::string& prefix) const {
  if (!HasVariable(prefix)) return prefix;
  for (int i = 2;; ++i) {
    std::string candidate = prefix + std::to_string(i);
    if (!HasVariable(candidate)) return candidate;
  }
}

namespace {

/// Resolves `alias.column` against the query's FROM list and the schema.
Result<DataType> ResolveAttribute(const SelectQuery& query,
                                  const Schema& schema,
                                  const std::string& alias,
                                  const std::string& column) {
  const TupleVariable* var = query.FindVariable(alias);
  if (var == nullptr) {
    return Status::InvalidArgument("undeclared tuple variable: " + alias);
  }
  QP_ASSIGN_OR_RETURN(const TableSchema* table, schema.GetTable(var->table));
  auto idx = table->ColumnIndex(column);
  if (!idx.has_value()) {
    return Status::InvalidArgument("table " + var->table + " (variable " +
                                   alias + ") has no column " + column);
  }
  return table->column(*idx).type;
}

Status ValidateAtom(const SelectQuery& query, const Schema& schema,
                    const AtomicCondition& atom) {
  if (atom.is_selection()) {
    QP_ASSIGN_OR_RETURN(
        DataType type,
        ResolveAttribute(query, schema, atom.var(), atom.column()));
    if (!atom.value().is_null() && atom.value().type() != type) {
      return Status::InvalidArgument(
          "selection literal type mismatch in " + atom.ToSql() +
          ": column is " + DataTypeName(type));
    }
    return Status::Ok();
  }
  if (atom.is_near()) {
    QP_ASSIGN_OR_RETURN(
        DataType type,
        ResolveAttribute(query, schema, atom.var(), atom.column()));
    if (type != DataType::kInt64 && type != DataType::kDouble) {
      return Status::InvalidArgument(
          "near() requires a numeric column: " + atom.ToSql());
    }
    if (atom.value().type() != DataType::kInt64 &&
        atom.value().type() != DataType::kDouble) {
      return Status::InvalidArgument(
          "near() requires a numeric target: " + atom.ToSql());
    }
    if (!(atom.width() > 0.0)) {
      return Status::InvalidArgument("near() requires a positive width: " +
                                     atom.ToSql());
    }
    return Status::Ok();
  }
  QP_ASSIGN_OR_RETURN(
      DataType left,
      ResolveAttribute(query, schema, atom.left_var(), atom.left_column()));
  QP_ASSIGN_OR_RETURN(
      DataType right,
      ResolveAttribute(query, schema, atom.right_var(), atom.right_column()));
  if (left != right) {
    return Status::InvalidArgument("join type mismatch in " + atom.ToSql());
  }
  return Status::Ok();
}

}  // namespace

Status SelectQuery::Validate(const Schema& schema) const {
  if (from_.empty()) {
    return Status::InvalidArgument("query has no tuple variables");
  }
  for (const auto& var : from_) {
    if (!schema.HasTable(var.table)) {
      return Status::InvalidArgument("unknown table in FROM: " + var.table);
    }
  }
  if (projections_.empty()) {
    return Status::InvalidArgument("query projects nothing");
  }
  for (const auto& item : projections_) {
    QP_RETURN_IF_ERROR(
        ResolveAttribute(*this, schema, item.var, item.column).status());
  }
  if (where_ != nullptr) {
    Status status = Status::Ok();
    where_->ForEachAtom([&](const AtomicCondition& atom) {
      if (status.ok()) status = ValidateAtom(*this, schema, atom);
    });
    QP_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

Status CompoundQuery::Validate(const Schema& schema) const {
  if (parts_.empty()) {
    return Status::InvalidArgument("compound query has no parts");
  }
  for (const auto& part : parts_) {
    QP_RETURN_IF_ERROR(part.query.Validate(schema));
    if (part.degree < -1.0 || part.degree > 1.0) {
      return Status::InvalidArgument("part degree out of [-1, 1]: " +
                                     std::to_string(part.degree));
    }
  }
  // Every part projects the same table column at each position, each
  // resolved through the part's own aliases: the parts' rows are grouped
  // by value, and the executor groups them by that column's key codes.
  const SelectQuery& first_part = parts_[0].query;
  const auto& first = first_part.projections();
  for (size_t i = 1; i < parts_.size(); ++i) {
    const SelectQuery& part = parts_[i].query;
    if (part.projections().size() != first.size()) {
      return Status::InvalidArgument(
          "compound query parts have different projection arities");
    }
    for (size_t j = 0; j < first.size(); ++j) {
      const ProjectionItem& item = part.projections()[j];
      const std::string& table = part.FindVariable(item.var)->table;
      const std::string& want = first_part.FindVariable(first[j].var)->table;
      if (table != want || item.column != first[j].column) {
        return Status::InvalidArgument(
            "compound query part " + std::to_string(i) + " projects " +
            table + "." + item.column + " at position " + std::to_string(j) +
            ", the first part " + want + "." + first[j].column);
      }
    }
  }
  for (const SelectQuery& exclusion : exclusions_) {
    QP_RETURN_IF_ERROR(exclusion.Validate(schema));
    if (exclusion.projections().size() != first.size()) {
      return Status::InvalidArgument(
          "exclusion projection arity differs from the parts'");
    }
  }
  return Status::Ok();
}

}  // namespace qp
