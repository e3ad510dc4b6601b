#include "qp/exec/batch_table.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace qp {
namespace {

/// 64-bit mix (splitmix64 finalizer) — decorrelates per-column hashes
/// before they are combined into a row hash.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BatchColumn BatchColumn::RowIds(std::vector<RowId> ids) {
  BatchColumn out;
  out.row_ids_ = std::move(ids);
  return out;
}

uint64_t BatchColumn::HashAt(size_t i) const { return Mix(row_ids_[i]); }

BatchColumn BatchColumn::Gather(const std::vector<uint32_t>& indices) const {
  BatchColumn out;
  out.row_ids_.reserve(indices.size());
  for (uint32_t i : indices) out.row_ids_.push_back(row_ids_[i]);
  return out;
}

void BatchColumn::Filter(const std::vector<uint8_t>& keep) {
  const size_t n = row_ids_.size();
  assert(keep.size() >= n);
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) row_ids_[w++] = row_ids_[i];
  }
  row_ids_.resize(w);
}

size_t BatchTable::live_columns() const {
  size_t n = 0;
  for (const Slot& slot : columns_) n += slot.live ? 1 : 0;
  return n;
}

void BatchTable::SetColumn(size_t slot, BatchColumn col) {
  assert(slot < columns_.size());
  if (live_columns() == 0) {
    num_rows_ = col.size();
  } else {
    assert(col.size() == num_rows_);
  }
  columns_[slot].col = std::move(col);
  columns_[slot].live = true;
}

void BatchTable::DropColumn(size_t slot) {
  assert(slot < columns_.size());
  columns_[slot].col = BatchColumn();
  columns_[slot].live = false;
}

BatchTable BatchTable::GatherRows(const std::vector<uint32_t>& indices) const {
  BatchTable out(columns_.size());
  out.num_rows_ = indices.size();
  for (size_t s = 0; s < columns_.size(); ++s) {
    if (!columns_[s].live) continue;
    out.columns_[s].col = columns_[s].col.Gather(indices);
    out.columns_[s].live = true;
  }
  return out;
}

void BatchTable::FilterRows(const std::vector<uint8_t>& keep) {
  size_t kept = 0;
  for (size_t i = 0; i < num_rows_; ++i) kept += keep[i] ? 1 : 0;
  for (Slot& slot : columns_) {
    if (slot.live) slot.col.Filter(keep);
  }
  num_rows_ = kept;
}

void BatchTable::AppendRowFrom(const BatchTable& src, size_t row) {
  for (size_t s = 0; s < columns_.size(); ++s) {
    if (!columns_[s].live) continue;
    assert(s < src.columns_.size() && src.columns_[s].live);
    columns_[s].col.AppendFrom(src.columns_[s].col, row);
  }
  ++num_rows_;
}

uint64_t BatchTable::RowHash(size_t row,
                             const std::vector<size_t>& slots) const {
  uint64_t h = 0x12345ULL;
  for (size_t s : slots) {
    h = h * 1000003ULL ^ columns_[s].col.HashAt(row);
  }
  return h;
}

bool BatchTable::RowsEqual(size_t row, const BatchTable& other,
                           size_t other_row, const std::vector<size_t>& slots,
                           const std::vector<size_t>& other_slots) const {
  assert(slots.size() == other_slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!columns_[slots[i]].col.CellEquals(row, other.columns_[other_slots[i]].col,
                                           other_row)) {
      return false;
    }
  }
  return true;
}

void CodedRows::Append(const uint32_t* codes) {
  codes_.insert(codes_.end(), codes, codes + arity_);
  ++size_;
}

std::pair<uint32_t, bool> CodedRows::Insert(const uint32_t* codes) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t s = Hash(codes) & mask;; s = (s + 1) & mask) {
    const uint32_t entry = slots_[s];
    if (entry == 0) {
      slots_[s] = static_cast<uint32_t>(size_ + 1);
      Append(codes);
      return {static_cast<uint32_t>(size_ - 1), true};
    }
    if (std::equal(codes, codes + arity_, this->codes(entry - 1))) {
      return {entry - 1, false};
    }
  }
}

uint64_t CodedRows::Hash(const uint32_t* codes) const {
  uint64_t h = 0;
  for (size_t j = 0; j < arity_; ++j) h = Mix(h ^ codes[j]);
  return h;
}

void CodedRows::Grow() {
  slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
  const size_t mask = slots_.size() - 1;
  for (size_t row = 0; row < size_; ++row) {
    size_t s = Hash(codes(row)) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(row + 1);
  }
}

}  // namespace qp
