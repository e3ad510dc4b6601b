#include "qp/relational/table.h"

#include <algorithm>
#include <cmath>

namespace qp {

void KeyIndex::Build(const std::vector<Row>& rows, size_t column) {
  const size_t n = rows.size();
  codes_.resize(n);
  // Arithmetic coding needs a NULL-free int64 column with a small range.
  bool all_int = n > 0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (const Row& row : rows) {
    if (row[column].type() != DataType::kInt64) {
      all_int = false;
      break;
    }
    lo = std::min(lo, row[column].as_int());
    hi = std::max(hi, row[column].as_int());
  }
  // Unsigned, so a range spanning the whole int64 domain cannot overflow.
  const uint64_t diff = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (all_int && diff < kMaxSpanPerRow * n && diff < kNoCode - 1) {
    arithmetic_ = true;
    min_ = lo;
    for (size_t r = 0; r < n; ++r) {
      codes_[r] = static_cast<uint32_t>(
          static_cast<uint64_t>(rows[r][column].as_int()) -
          static_cast<uint64_t>(lo));
    }
    offsets_.assign(diff + 2, 0);
  } else {
    cells_ = std::make_unique<std::vector<Value>>();
    dictionary_ = decltype(dictionary_)(0, CodeCellHash{cells_.get()},
                                        CodeCellEq{cells_.get()});
    for (size_t r = 0; r < n; ++r) {
      const Value& cell = rows[r][column];
      auto it = dictionary_.find(cell);
      if (it != dictionary_.end()) {
        codes_[r] = *it;
        continue;
      }
      codes_[r] = static_cast<uint32_t>(cells_->size());
      cells_->push_back(cell);
      dictionary_.insert(codes_[r]);
    }
    offsets_.assign(cells_->size() + 1, 0);
  }
  FillPostings();
  built_ = true;
}

void KeyIndex::FillPostings() {
  const size_t n = codes_.size();
  for (uint32_t code : codes_) ++offsets_[code + 1];
  for (size_t c = 1; c < offsets_.size(); ++c) offsets_[c] += offsets_[c - 1];
  // offsets_[c + 1] is now the end of code c's postings. Filling each
  // code's run back to front with descending row ids leaves it ascending
  // and moves offsets_[c + 1] to the run's start, i.e. one slot right of
  // where the start belongs.
  postings_.resize(n);
  for (size_t r = n; r-- > 0;) {
    postings_[--offsets_[codes_[r] + 1]] = static_cast<RowId>(r);
  }
  std::copy(offsets_.begin() + 1, offsets_.end(), offsets_.begin());
  offsets_.back() = static_cast<uint32_t>(n);
}

uint32_t KeyIndex::Find(const Value& value) const {
  if (!arithmetic_) {
    auto it = dictionary_.find(value);
    return it == dictionary_.end() ? kNoCode : *it;
  }
  int64_t v = 0;
  if (value.type() == DataType::kInt64) {
    v = value.as_int();
  } else if (value.type() == DataType::kDouble) {
    // Equal to an int64 cell only when integral; the range check keeps the
    // conversion defined.
    double d = value.as_double();
    if (!(d >= -0x1p63 && d < 0x1p63) || d != std::trunc(d)) return kNoCode;
    v = static_cast<int64_t>(d);
  } else {
    return kNoCode;  // NULL or a string: no cell of this column equals it.
  }
  uint64_t code = static_cast<uint64_t>(v) - static_cast<uint64_t>(min_);
  return code < num_codes() ? static_cast<uint32_t>(code) : kNoCode;
}

Table::Table(TableSchema schema)
    : schema_(std::move(schema)), indexes_(schema_.num_columns()) {}

Status Table::Insert(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table " +
        schema_.name());
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    if (row[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(
          "type mismatch in " + schema_.name() + "." +
          schema_.column(i).name + ": expected " +
          DataTypeName(schema_.column(i).type) + ", got " +
          DataTypeName(row[i].type()));
    }
    if (row[i].type() == DataType::kDouble) {
      // One stored form per == class: NaN equals nothing, and -0.0 is
      // stored as the 0.0 it equals.
      const double d = row[i].as_double();
      if (std::isnan(d)) {
        return Status::InvalidArgument("NaN in " + schema_.name() + "." +
                                       schema_.column(i).name);
      }
      if (d == 0.0) row[i] = Value::Real(0.0);
    }
  }
  for (KeyIndex& index : indexes_) {
    if (index.built_) index = KeyIndex();
  }
  rows_.push_back(std::move(row));
  return Status::Ok();
}

const KeyIndex& Table::Keys(size_t column) const {
  KeyIndex& index = indexes_[column];
  if (!index.built_) index.Build(rows_, column);
  return index;
}

uint32_t Table::KeyCode(size_t column, const Value& value) const {
  return Keys(column).Find(value);
}

void Table::BuildAllIndexes() const {
  for (size_t col = 0; col < schema_.num_columns(); ++col) Keys(col);
}

}  // namespace qp
