#ifndef QP_RELATIONAL_TABLE_H_
#define QP_RELATIONAL_TABLE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "qp/relational/schema.h"
#include "qp/relational/value.h"
#include "qp/util/status.h"

namespace qp {

/// A tuple; cells are positional against the owning TableSchema.
using Row = std::vector<Value>;

/// Row identifier within a table (dense, 0-based).
using RowId = uint32_t;

/// Hash and equality of KeyIndex's dictionary, a set of codes: a code
/// stands for the cell stored at it in `cells`, and a Value probes with
/// Value::Hash and Value::operator==.
struct CodeCellHash {
  using is_transparent = void;
  size_t operator()(uint32_t code) const { return (*cells)[code].Hash(); }
  size_t operator()(const Value& value) const { return value.Hash(); }
  const std::vector<Value>* cells = nullptr;
};
struct CodeCellEq {
  using is_transparent = void;
  bool operator()(uint32_t a, uint32_t b) const { return a == b; }
  bool operator()(const Value& value, uint32_t code) const {
    return value == (*cells)[code];
  }
  bool operator()(uint32_t code, const Value& value) const {
    return value == (*cells)[code];
  }
  const std::vector<Value>* cells = nullptr;
};

/// Equality index over one column: a uint32 code per row, equal for two
/// rows exactly when their cells are ==, and CSR postings listing each
/// code's row ids in ascending order. Table::Insert stores no NaN (a cell
/// equal to nothing, itself included) and only one form of each == class,
/// so two rows share a code exactly when their cells are identical.
///
/// A NULL-free int64 column whose value range is at most kMaxSpanPerRow
/// times its row count codes arithmetically: code = value - min, so
/// codes of two such columns convert by a constant offset and no value is
/// hashed. Every other column codes through a dictionary, in order of
/// first appearance: each distinct cell is kept once, at its code, and a
/// hash set of codes finds a cell's code. Either way a code decodes back
/// to its cell without reading the table.
class KeyIndex {
 public:
  /// The code of a value no row holds; it has no postings.
  static constexpr uint32_t kNoCode = std::numeric_limits<uint32_t>::max();
  /// Largest value range per row that still codes arithmetically.
  static constexpr uint64_t kMaxSpanPerRow = 4;

  /// Code of every row, indexed by RowId.
  std::span<const uint32_t> codes() const { return codes_; }

  /// Row ids whose code is `code`, ascending; empty for kNoCode and for
  /// codes inside an arithmetic range that no row holds.
  std::span<const RowId> postings(uint32_t code) const {
    if (code >= num_codes()) return {};
    return std::span<const RowId>(postings_).subspan(
        offsets_[code], offsets_[code + 1] - offsets_[code]);
  }

  /// Number of codes: the value range for an arithmetic index, the
  /// number of distinct cells for a dictionary.
  uint32_t num_codes() const {
    return offsets_.empty() ? 0 : static_cast<uint32_t>(offsets_.size() - 1);
  }

  bool arithmetic() const { return arithmetic_; }

  /// The cell that rows holding `code` store (== and identical to it, with
  /// its type); `code` must be below num_codes().
  Value Decode(uint32_t code) const {
    if (arithmetic_) {
      return Value::Int(
          static_cast<int64_t>(static_cast<uint64_t>(min_) + code));
    }
    return (*cells_)[code];
  }

  /// Added to a code of arithmetic index `from` (mod 2^64), gives the code
  /// of the same value in arithmetic index `to`; the result names a code
  /// of `to` only when it is below to.num_codes().
  static uint64_t Offset(const KeyIndex& from, const KeyIndex& to) {
    return static_cast<uint64_t>(from.min_) - static_cast<uint64_t>(to.min_);
  }

 private:
  friend class Table;

  /// Codes `column` of `rows`.
  void Build(const std::vector<Row>& rows, size_t column);
  /// Table::KeyCode for this index.
  uint32_t Find(const Value& value) const;
  /// Fills offsets_ and postings_ from codes_ (offsets_ sized already).
  void FillPostings();

  bool built_ = false;
  bool arithmetic_ = false;
  int64_t min_ = 0;  // Arithmetic only: the value of code 0.
  std::vector<uint32_t> codes_;
  std::vector<uint32_t> offsets_;  // num_codes() + 1 entries.
  std::vector<RowId> postings_;
  /// Dictionary only: each distinct cell at its code. On the heap, so the
  /// set's functors still point at it after the index is moved.
  std::unique_ptr<std::vector<Value>> cells_;
  /// Dictionary only: every code, hashed and compared by its cell.
  std::unordered_set<uint32_t, CodeCellHash, CodeCellEq> dictionary_;
};

/// In-memory row store for a single relation, with a lazily built
/// KeyIndex per column used by the executor for selections and joins.
class Table {
 public:
  explicit Table(TableSchema schema);

  /// Movable, not copyable (tables can be large).
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const Row& row(RowId id) const { return rows_[id]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Appends a row. Fails unless arity and cell types match the schema
  /// (NULL is accepted in any column) and no double is NaN; stores -0.0
  /// as 0.0. Invalidates every key index; the next use rebuilds it.
  Status Insert(Row row);

  /// Row ids whose `column` equals `value`, ascending. Builds the
  /// column's key index on first use.
  ///
  /// Thread safety: the lazy build mutates internal state, so concurrent
  /// calls are only safe after BuildAllIndexes() — the service layer
  /// warms every database it shares across workers. The span is valid
  /// until the next Insert.
  std::span<const RowId> Lookup(size_t column, const Value& value) const {
    return Keys(column).postings(KeyCode(column, value));
  }

  /// The key index of `column`, built on first use (same thread-safety
  /// contract as Lookup).
  const KeyIndex& Keys(size_t column) const;

  /// The code rows of `column` holding a cell == `value` have in the
  /// column's key index. A value no row holds gets a code no row has:
  /// KeyIndex::kNoCode, or an empty arithmetic code inside the range.
  uint32_t KeyCode(size_t column, const Value& value) const;

  /// Builds the key index of every column not built yet, after which the
  /// table is safe for concurrent read-only use. Calling it again does
  /// not write, so it may run while other threads read the table.
  void BuildAllIndexes() const;

  /// Value of `column` in row `id`.
  const Value& At(RowId id, size_t column) const { return rows_[id][column]; }

 private:
  TableSchema schema_;
  std::vector<Row> rows_;
  /// One per column.
  mutable std::vector<KeyIndex> indexes_;
};

}  // namespace qp

#endif  // QP_RELATIONAL_TABLE_H_
