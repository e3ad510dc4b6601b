#ifndef QP_RELATIONAL_SCHEMA_H_
#define QP_RELATIONAL_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "qp/relational/value.h"
#include "qp/util/status.h"

namespace qp {

/// A column declaration.
struct Column {
  std::string name;
  DataType type = DataType::kString;
};

/// Schema of one relation: name, typed columns, primary-key columns.
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string name, std::vector<Column> columns,
              std::vector<std::string> primary_key = {});

  const std::string& name() const { return name_; }
  const std::vector<Column>& columns() const { return columns_; }
  const std::vector<size_t>& primary_key() const { return primary_key_; }
  size_t num_columns() const { return columns_.size(); }

  /// Index of `column` or nullopt if absent.
  std::optional<size_t> ColumnIndex(const std::string& column) const;
  bool HasColumn(const std::string& column) const {
    return ColumnIndex(column).has_value();
  }
  const Column& column(size_t i) const { return columns_[i]; }

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::vector<size_t> primary_key_;  // Indices into columns_.
};

/// One end of a schema-level join.
struct AttributeRef {
  std::string table;
  std::string column;

  friend bool operator==(const AttributeRef& a, const AttributeRef& b) {
    return a.table == b.table && a.column == b.column;
  }

  /// "TABLE.column".
  std::string ToString() const { return table + "." + column; }
};

/// Dense id of a relation: its position in Schema::tables().
using TableId = uint32_t;

/// An attribute resolved against a schema: its relation's id and its
/// column's index in that relation.
struct AttributeId {
  TableId table = 0;
  uint32_t column = 0;

  friend bool operator==(const AttributeId&, const AttributeId&) = default;
};

/// A declared join in one traversal direction: twice its index in
/// Schema::joins(), plus one when it is traversed from `right` to `left`.
/// Two traversals have the same id exactly when they join the same
/// attributes in the same direction.
using JoinId = uint32_t;

/// Cardinality of a join when followed in a given direction: to-one means
/// each tuple of the source relation matches at most one tuple of the
/// target (e.g. PLAY -> THEATRE via tid), to-many means it may match many
/// (THEATRE -> PLAY). This metadata drives conflict detection and the
/// tuple-variable allocation rules of preference integration.
enum class JoinCardinality {
  kToOne,
  kToMany,
};

const char* JoinCardinalityName(JoinCardinality c);

/// An undirected schema join with per-direction cardinality. Declared once;
/// queries and profiles may traverse it in either direction.
struct SchemaJoin {
  AttributeRef left;
  AttributeRef right;
  /// Cardinality when moving from `left`'s relation to `right`'s.
  JoinCardinality left_to_right = JoinCardinality::kToMany;
  /// Cardinality when moving from `right`'s relation to `left`'s.
  JoinCardinality right_to_left = JoinCardinality::kToMany;
};

/// The database schema: a catalog of relations plus the set of meaningful
/// joins (foreign keys and any designer-declared joins). This is the
/// "traditional schema graph" the personalization graph extends.
class Schema {
 public:
  /// Adds a relation. Fails on duplicate table or column names.
  Status AddTable(TableSchema table);

  /// Declares a join between two existing attributes of matching type.
  /// `left_to_right` / `right_to_left` give the cardinality per direction.
  Status AddJoin(AttributeRef left, AttributeRef right,
                 JoinCardinality left_to_right,
                 JoinCardinality right_to_left);

  /// Convenience for a foreign key `fk` referencing a primary key `pk`:
  /// fk-side -> pk-side is to-one, pk-side -> fk-side is to-many.
  Status AddForeignKey(AttributeRef fk, AttributeRef pk);

  /// The relation's dense id, found by one hash lookup.
  std::optional<TableId> FindTableId(const std::string& name) const;

  const TableSchema* FindTable(const std::string& name) const;
  bool HasTable(const std::string& name) const {
    return FindTable(name) != nullptr;
  }
  /// Fails with kNotFound instead of returning nullptr.
  Result<const TableSchema*> GetTable(const std::string& name) const;

  /// `ref` resolved to ids; kNotFound names the unknown table or attribute.
  Result<AttributeId> ResolveAttribute(const AttributeRef& ref) const;
  /// True if `ref` names an existing table.column.
  bool HasAttribute(const AttributeRef& ref) const {
    return ResolveAttribute(ref).ok();
  }
  Result<DataType> AttributeType(const AttributeRef& ref) const;

  const std::vector<TableSchema>& tables() const { return tables_; }
  const std::vector<SchemaJoin>& joins() const { return joins_; }

  /// Finds the declared join between the two attributes, in either
  /// declaration order; nullptr if the pair was never declared.
  const SchemaJoin* FindJoin(const AttributeRef& a,
                             const AttributeRef& b) const;

  /// The traversal of a declared join from `from` to `to`, or nullopt if
  /// the pair was never declared.
  std::optional<JoinId> FindJoinId(AttributeId from, AttributeId to) const;
  /// Cardinality of the traversal `join` (a FindJoinId result).
  JoinCardinality CardinalityOf(JoinId join) const {
    const SchemaJoin& declared = joins_[join / 2];
    return join % 2 == 0 ? declared.left_to_right : declared.right_to_left;
  }

  /// All declared joins incident to `table`, as (this-side, other-side,
  /// cardinality this->other) triples.
  struct OutgoingJoin {
    AttributeRef from;
    AttributeRef to;
    JoinCardinality cardinality;  // from-relation -> to-relation.
  };
  std::vector<OutgoingJoin> JoinsFrom(const std::string& table) const;

 private:
  std::vector<TableSchema> tables_;
  std::unordered_map<std::string, TableId> table_ids_;
  std::vector<SchemaJoin> joins_;
  /// joins_[i]'s (left, right) attributes, resolved.
  std::vector<std::pair<AttributeId, AttributeId>> join_ids_;
};

}  // namespace qp

#endif  // QP_RELATIONAL_SCHEMA_H_
