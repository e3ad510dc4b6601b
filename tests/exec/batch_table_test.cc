// BatchTable / BatchColumn / CodedRows edge cases: empty batches,
// single-row batches, and coded rows that agree on some columns only.
// These are the primitives the vectorized executor is built on, so their
// append/gather/filter/drop and dedup semantics are pinned here
// independently of any query.

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "qp/exec/batch_table.h"

namespace qp {
namespace {

TEST(BatchColumnTest, EmptyColumnBasics) {
  BatchColumn col = BatchColumn::RowIds({});
  EXPECT_EQ(col.size(), 0u);
  EXPECT_TRUE(col.empty());
  BatchColumn gathered = col.Gather({});
  EXPECT_EQ(gathered.size(), 0u);
  col.Filter({});
  EXPECT_EQ(col.size(), 0u);
}

TEST(BatchTableTest, EmptyTableAndSingleRow) {
  BatchTable empty(3);
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(empty.num_slots(), 3u);
  EXPECT_EQ(empty.live_columns(), 0u);
  EXPECT_FALSE(empty.has_column(0));

  BatchTable one(2);
  one.SetColumn(0, BatchColumn::RowIds({7}));
  EXPECT_EQ(one.num_rows(), 1u);  // Adopted from the first live column.
  one.SetColumn(1, BatchColumn::RowIds({9}));
  EXPECT_EQ(one.live_columns(), 2u);
  EXPECT_EQ(one.column(1).row_id_at(0), 9u);
  BatchTable gathered = one.GatherRows({0, 0, 0});
  EXPECT_EQ(gathered.num_rows(), 3u);
  EXPECT_EQ(gathered.column(0).row_id_at(2), 7u);
}

TEST(BatchTableTest, DropColumnKeepsRowCountAndSlotIndices) {
  BatchTable batch(3);
  batch.SetColumn(0, BatchColumn::RowIds({1, 2, 3}));
  batch.SetColumn(2, BatchColumn::RowIds({4, 5, 6}));
  ASSERT_EQ(batch.num_rows(), 3u);
  batch.DropColumn(0);
  EXPECT_FALSE(batch.has_column(0));
  EXPECT_TRUE(batch.has_column(2));
  EXPECT_EQ(batch.num_rows(), 3u);  // Multiplicity survives the drop.
  EXPECT_EQ(batch.live_columns(), 1u);
  // Gather and filter only touch live columns.
  BatchTable g = batch.GatherRows({2, 0});
  EXPECT_EQ(g.num_rows(), 2u);
  EXPECT_FALSE(g.has_column(0));
  EXPECT_EQ(g.column(2).row_id_at(0), 6u);
  batch.FilterRows({1, 0, 1});
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.column(2).row_id_at(1), 6u);
  // Dropping every column leaves a pure multiplicity.
  batch.DropColumn(2);
  EXPECT_EQ(batch.live_columns(), 0u);
  EXPECT_EQ(batch.num_rows(), 2u);
}

TEST(BatchTableTest, AppendRowFromAccumulates) {
  BatchTable src(2);
  src.SetColumn(0, BatchColumn::RowIds({1, 2}));
  src.SetColumn(1, BatchColumn::RowIds({3, 4}));
  BatchTable acc(2);
  acc.SetColumn(0, BatchColumn::RowIds({}));
  acc.SetColumn(1, BatchColumn::RowIds({}));
  acc.AppendRowFrom(src, 1);
  acc.AppendRowFrom(src, 0);
  ASSERT_EQ(acc.num_rows(), 2u);
  EXPECT_EQ(acc.column(0).row_id_at(0), 2u);
  EXPECT_EQ(acc.column(1).row_id_at(0), 4u);
  EXPECT_EQ(acc.column(0).row_id_at(1), 1u);
  EXPECT_TRUE(acc.RowsEqual(0, src, 1, {0, 1}, {0, 1}));
  EXPECT_FALSE(acc.RowsEqual(0, src, 0, {0, 1}, {0, 1}));
  EXPECT_EQ(acc.RowHash(0, {0, 1}), src.RowHash(1, {0, 1}));
}

TEST(CodedRowsTest, InsertKeepsFirstOccurrence) {
  // Arity 2: rows equal on one column only are distinct, and a repeat
  // finds the row's first occurrence without adding it again.
  CodedRows set(2);
  const uint32_t a[] = {1, 7};
  const uint32_t b[] = {1, 8};
  const uint32_t c[] = {8, 1};
  EXPECT_EQ(set.Insert(a), (std::pair<uint32_t, bool>{0, true}));
  EXPECT_EQ(set.Insert(b), (std::pair<uint32_t, bool>{1, true}));
  EXPECT_EQ(set.Insert(c), (std::pair<uint32_t, bool>{2, true}));
  EXPECT_EQ(set.Insert(a), (std::pair<uint32_t, bool>{0, false}));
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.codes(0)[1], 7u);
  EXPECT_EQ(set.codes(2)[0], 8u);
}

TEST(CodedRowsTest, ManyRowsSurviveGrowth) {
  // Enough rows to grow the index several times; every row is found at
  // its own index afterwards, and a bag keeps duplicates.
  CodedRows set(1);
  CodedRows bag(1);
  for (uint32_t code = 0; code < 5000; ++code) {
    ASSERT_TRUE(set.Insert(&code).second);
    bag.Append(&code);
    bag.Append(&code);
  }
  for (uint32_t code = 0; code < 5000; ++code) {
    ASSERT_EQ(set.Insert(&code), (std::pair<uint32_t, bool>{code, false}));
    ASSERT_EQ(set.codes(code)[0], code);
  }
  EXPECT_EQ(set.size(), 5000u);
  EXPECT_EQ(bag.size(), 10000u);
  EXPECT_EQ(bag.codes(9999)[0], 4999u);
}

}  // namespace
}  // namespace qp
