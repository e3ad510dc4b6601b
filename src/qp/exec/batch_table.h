#ifndef QP_EXEC_BATCH_TABLE_H_
#define QP_EXEC_BATCH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qp/relational/table.h"

namespace qp {

/// One slot's column of a BatchTable: the row ids, into the slot's base
/// table, of the rows bound to that slot. Cells are never copied into a
/// batch: output rows are identified by the key codes their ids read
/// (CodedRows), and Values are decoded from those codes only for the rows
/// of the answer.
class BatchColumn {
 public:
  BatchColumn() = default;

  /// A column over the given row ids.
  static BatchColumn RowIds(std::vector<RowId> ids);

  size_t size() const { return row_ids_.size(); }
  bool empty() const { return row_ids_.empty(); }

  void AppendFrom(const BatchColumn& other, size_t i) {
    row_ids_.push_back(other.row_ids_[i]);
  }

  RowId row_id_at(size_t i) const { return row_ids_[i]; }
  /// Whole-column view.
  const std::vector<RowId>& row_ids() const { return row_ids_; }

  /// Cell hash / equality, the building blocks of batch hash joins and
  /// binding-level duplicate elimination.
  uint64_t HashAt(size_t i) const;
  bool CellEquals(size_t i, const BatchColumn& other, size_t j) const {
    return row_ids_[i] == other.row_ids_[j];
  }

  /// New column with the cells at `indices` (repeats/reorders allowed).
  BatchColumn Gather(const std::vector<uint32_t>& indices) const;
  /// In-place compaction: keeps cell i iff keep[i] != 0.
  void Filter(const std::vector<uint8_t>& keep);

 private:
  std::vector<RowId> row_ids_;
};

/// A batch of rows in columnar form: a fixed number of *slots* (stable
/// indices, matching the executor's tuple-variable slots), each either
/// holding a live BatchColumn or dropped. Dropping a slot's column after
/// the last join that touches it (z3's tuple_set::delete_columns idiom)
/// releases its storage and narrows every later gather/filter pass, which
/// is what keeps the SQ duplicate-explosion and MQ UNION ALL paths on
/// narrow batches.
class BatchTable {
 public:
  BatchTable() = default;
  /// `num_slots` slots, all initially absent; zero rows.
  explicit BatchTable(size_t num_slots) : columns_(num_slots) {}

  size_t num_rows() const { return num_rows_; }
  size_t num_slots() const { return columns_.size(); }
  bool has_column(size_t slot) const { return columns_[slot].live; }
  size_t live_columns() const;

  const BatchColumn& column(size_t slot) const { return columns_[slot].col; }

  /// Installs `col` at `slot`. When the table has live columns the size
  /// must match num_rows(); when it has none the table adopts the
  /// column's size as its row count.
  void SetColumn(size_t slot, BatchColumn col);
  /// Releases the slot's storage. The slot index stays valid (absent).
  void DropColumn(size_t slot);

  /// Sets the row count of a table with no live columns (a conjunct whose
  /// every slot was dropped still has a row multiplicity).
  void SetNumRowsColumnless(size_t n);

  /// New table with the rows at `indices`, gathering only live columns.
  BatchTable GatherRows(const std::vector<uint32_t>& indices) const;
  /// In-place compaction keeping rows where keep[i] != 0.
  void FilterRows(const std::vector<uint8_t>& keep);
  /// Appends row `row` of `src` (slot-compatible tables only: every live
  /// slot here must be live in src).
  void AppendRowFrom(const BatchTable& src, size_t row);

  /// Hash / equality of one row restricted to `slots` (all live).
  uint64_t RowHash(size_t row, const std::vector<size_t>& slots) const;
  bool RowsEqual(size_t row, const BatchTable& other, size_t other_row,
                 const std::vector<size_t>& slots,
                 const std::vector<size_t>& other_slots) const;

 private:
  struct Slot {
    BatchColumn col;
    bool live = false;
  };
  std::vector<Slot> columns_;
  size_t num_rows_ = 0;
};

/// Vectorized hash join over batch key columns: build once over the key
/// slots of a build-side batch, then probe with rows of another batch.
/// Collisions are resolved by cell-level comparison at probe time, so
/// matches are exact.
class BatchHashTable {
 public:
  /// `build` is retained and must outlive the hash table.
  BatchHashTable(const BatchTable* build, std::vector<size_t> key_slots);

  /// Appends to `out` the build-side row indices whose key equals row
  /// `row` of `probe` (keyed by `probe_slots`, same arity as the build
  /// key).
  void Probe(const BatchTable& probe, size_t row,
             const std::vector<size_t>& probe_slots,
             std::vector<uint32_t>* out) const;

 private:
  const BatchTable* build_;
  std::vector<size_t> key_slots_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets_;
};

/// Projected rows in coded form. A row is a tuple of `arity` key codes,
/// one per output column, each the code its cell has in that column's
/// KeyIndex; two rows of the same output columns are equal exactly when
/// their cells are ==, and KeyIndex::Decode turns each code back into its
/// cell (late materialization).
///
/// A bag only Appends. A set only Inserts: a row equal to a present one
/// is not added, and the present row (its first occurrence) stays.
class CodedRows {
 public:
  explicit CodedRows(size_t arity) : arity_(arity) {}

  size_t size() const { return size_; }
  const uint32_t* codes(size_t row) const {
    return codes_.data() + row * arity_;
  }

  /// Adds the row (`arity` codes), duplicates included.
  void Append(const uint32_t* codes);
  /// The index of the row equal to `codes`, adding it when none is;
  /// `second` is true when the row was added.
  std::pair<uint32_t, bool> Insert(const uint32_t* codes);

 private:
  uint64_t Hash(const uint32_t* codes) const;
  /// Doubles the index and re-inserts every row.
  void Grow();

  size_t arity_;
  size_t size_ = 0;
  std::vector<uint32_t> codes_;
  /// Insert's open-addressing index: row + 1 per used slot, 0 for a free
  /// one. Its size is a power of two, at least twice the row count.
  std::vector<uint32_t> slots_;
};

}  // namespace qp

#endif  // QP_EXEC_BATCH_TABLE_H_
