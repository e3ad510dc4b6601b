#include "qp/relational/schema.h"

#include <unordered_set>

namespace qp {

const char* JoinCardinalityName(JoinCardinality c) {
  return c == JoinCardinality::kToOne ? "to-one" : "to-many";
}

TableSchema::TableSchema(std::string name, std::vector<Column> columns,
                         std::vector<std::string> primary_key)
    : name_(std::move(name)), columns_(std::move(columns)) {
  for (const auto& key : primary_key) {
    auto idx = ColumnIndex(key);
    if (idx.has_value()) primary_key_.push_back(*idx);
  }
}

std::optional<size_t> TableSchema::ColumnIndex(
    const std::string& column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column) return i;
  }
  return std::nullopt;
}

Status Schema::AddTable(TableSchema table) {
  if (HasTable(table.name())) {
    return Status::AlreadyExists("table already exists: " + table.name());
  }
  std::unordered_set<std::string> seen;
  for (const auto& col : table.columns()) {
    if (!seen.insert(col.name).second) {
      return Status::InvalidArgument("duplicate column '" + col.name +
                                     "' in table " + table.name());
    }
  }
  table_ids_.emplace(table.name(), static_cast<TableId>(tables_.size()));
  tables_.push_back(std::move(table));
  return Status::Ok();
}

Status Schema::AddJoin(AttributeRef left, AttributeRef right,
                       JoinCardinality left_to_right,
                       JoinCardinality right_to_left) {
  if (!HasAttribute(left)) {
    return Status::NotFound("unknown attribute: " + left.ToString());
  }
  if (!HasAttribute(right)) {
    return Status::NotFound("unknown attribute: " + right.ToString());
  }
  if (left.table == right.table) {
    return Status::InvalidArgument("self joins are not supported: " +
                                   left.ToString() + " = " + right.ToString());
  }
  if (FindJoin(left, right) != nullptr) {
    return Status::AlreadyExists("join already declared: " + left.ToString() +
                                 " = " + right.ToString());
  }
  Result<DataType> lt = AttributeType(left);
  Result<DataType> rt = AttributeType(right);
  if (lt.value() != rt.value()) {
    return Status::InvalidArgument("join attribute types differ: " +
                                   left.ToString() + " is " +
                                   DataTypeName(lt.value()) + ", " +
                                   right.ToString() + " is " +
                                   DataTypeName(rt.value()));
  }
  join_ids_.emplace_back(ResolveAttribute(left).value(),
                         ResolveAttribute(right).value());
  joins_.push_back(SchemaJoin{std::move(left), std::move(right),
                              left_to_right, right_to_left});
  return Status::Ok();
}

Status Schema::AddForeignKey(AttributeRef fk, AttributeRef pk) {
  return AddJoin(std::move(fk), std::move(pk), JoinCardinality::kToOne,
                 JoinCardinality::kToMany);
}

std::optional<TableId> Schema::FindTableId(const std::string& name) const {
  auto it = table_ids_.find(name);
  if (it == table_ids_.end()) return std::nullopt;
  return it->second;
}

const TableSchema* Schema::FindTable(const std::string& name) const {
  std::optional<TableId> id = FindTableId(name);
  return id.has_value() ? &tables_[*id] : nullptr;
}

Result<const TableSchema*> Schema::GetTable(const std::string& name) const {
  const TableSchema* table = FindTable(name);
  if (table == nullptr) return Status::NotFound("unknown table: " + name);
  return table;
}

Result<AttributeId> Schema::ResolveAttribute(const AttributeRef& ref) const {
  std::optional<TableId> table = FindTableId(ref.table);
  if (!table.has_value()) {
    return Status::NotFound("unknown table: " + ref.table);
  }
  auto idx = tables_[*table].ColumnIndex(ref.column);
  if (!idx.has_value()) {
    return Status::NotFound("unknown attribute: " + ref.ToString());
  }
  return AttributeId{*table, static_cast<uint32_t>(*idx)};
}

Result<DataType> Schema::AttributeType(const AttributeRef& ref) const {
  QP_ASSIGN_OR_RETURN(AttributeId id, ResolveAttribute(ref));
  return tables_[id.table].column(id.column).type;
}

const SchemaJoin* Schema::FindJoin(const AttributeRef& a,
                                   const AttributeRef& b) const {
  for (const auto& join : joins_) {
    if ((join.left == a && join.right == b) ||
        (join.left == b && join.right == a)) {
      return &join;
    }
  }
  return nullptr;
}

std::optional<JoinId> Schema::FindJoinId(AttributeId from,
                                         AttributeId to) const {
  for (size_t i = 0; i < join_ids_.size(); ++i) {
    const auto& [left, right] = join_ids_[i];
    if (left == from && right == to) return static_cast<JoinId>(2 * i);
    if (right == from && left == to) return static_cast<JoinId>(2 * i + 1);
  }
  return std::nullopt;
}

std::vector<Schema::OutgoingJoin> Schema::JoinsFrom(
    const std::string& table) const {
  std::vector<OutgoingJoin> out;
  for (const auto& join : joins_) {
    if (join.left.table == table) {
      out.push_back({join.left, join.right, join.left_to_right});
    }
    if (join.right.table == table) {
      out.push_back({join.right, join.left, join.right_to_left});
    }
  }
  return out;
}

}  // namespace qp
