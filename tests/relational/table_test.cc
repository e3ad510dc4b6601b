#include "qp/relational/table.h"

#include <cmath>

#include "common/test_util.h"
#include "gtest/gtest.h"

namespace qp {
namespace {

TableSchema PersonSchema() {
  return TableSchema(
      "PERSON", {{"id", DataType::kInt64}, {"name", DataType::kString}},
      {"id"});
}

TEST(TableTest, InsertAndRead) {
  Table table(PersonSchema());
  QP_EXPECT_OK(table.Insert({Value::Int(1), Value::Str("ann")}));
  QP_EXPECT_OK(table.Insert({Value::Int(2), Value::Str("bob")}));
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.At(0, 1), Value::Str("ann"));
  EXPECT_EQ(table.At(1, 0), Value::Int(2));
}

TEST(TableTest, InsertRejectsWrongArity) {
  Table table(PersonSchema());
  EXPECT_EQ(table.Insert({Value::Int(1)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      table.Insert({Value::Int(1), Value::Str("x"), Value::Int(2)}).code(),
      StatusCode::kInvalidArgument);
}

TEST(TableTest, InsertRejectsWrongType) {
  Table table(PersonSchema());
  EXPECT_EQ(table.Insert({Value::Str("oops"), Value::Str("x")}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, InsertAcceptsNulls) {
  Table table(PersonSchema());
  QP_EXPECT_OK(table.Insert({Value::Int(1), Value::Null()}));
  EXPECT_TRUE(table.At(0, 1).is_null());
}

TEST(TableTest, LookupFindsMatches) {
  Table table(PersonSchema());
  QP_EXPECT_OK(table.Insert({Value::Int(1), Value::Str("ann")}));
  QP_EXPECT_OK(table.Insert({Value::Int(2), Value::Str("bob")}));
  QP_EXPECT_OK(table.Insert({Value::Int(3), Value::Str("ann")}));

  const auto& hits = table.Lookup(1, Value::Str("ann"));
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_EQ(table.Lookup(1, Value::Str("zed")).size(), 0u);
  EXPECT_EQ(table.Lookup(0, Value::Int(2)).size(), 1u);
}

TEST(TableTest, IndexMaintainedAcrossInserts) {
  Table table(PersonSchema());
  QP_EXPECT_OK(table.Insert({Value::Int(1), Value::Str("ann")}));
  // Build the index now...
  EXPECT_EQ(table.Lookup(1, Value::Str("ann")).size(), 1u);
  // ...then insert more rows; the index must stay current.
  QP_EXPECT_OK(table.Insert({Value::Int(2), Value::Str("ann")}));
  QP_EXPECT_OK(table.Insert({Value::Int(3), Value::Str("bob")}));
  EXPECT_EQ(table.Lookup(1, Value::Str("ann")).size(), 2u);
  EXPECT_EQ(table.Lookup(1, Value::Str("bob")).size(), 1u);
}

TEST(TableTest, LookupEmptyTable) {
  Table table(PersonSchema());
  EXPECT_EQ(table.Lookup(0, Value::Int(1)).size(), 0u);
}

TEST(TableTest, LookupCoercesNumericKeys) {
  Table table(PersonSchema());
  QP_EXPECT_OK(table.Insert({Value::Int(5), Value::Str("x")}));
  // Real(5.0) equals Int(5), so the index must find it.
  EXPECT_EQ(table.Lookup(0, Value::Real(5.0)).size(), 1u);
}

TEST(TableTest, InsertRejectsNaN) {
  // NaN equals nothing, itself included: a stored NaN could never join,
  // match a selection or group with its own row.
  Table table(TableSchema("T", {{"d", DataType::kDouble}}, {}));
  EXPECT_EQ(table.Insert({Value::Real(std::nan(""))}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Insert({Value::Real(-std::nan(""))}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, InsertStoresNegativeZeroAsZero) {
  // -0.0 == 0.0 but prints and sorts apart from it; the table keeps one
  // form, so equal cells are identical cells.
  Table table(TableSchema("T", {{"d", DataType::kDouble}}, {}));
  QP_EXPECT_OK(table.Insert({Value::Real(-0.0)}));
  QP_EXPECT_OK(table.Insert({Value::Real(0.0)}));
  QP_EXPECT_OK(table.Insert({Value::Null()}));
  EXPECT_FALSE(std::signbit(table.At(0, 0).as_double()));
  EXPECT_EQ(table.At(0, 0).ToString(), table.At(1, 0).ToString());
  EXPECT_EQ(table.Keys(0).codes()[0], table.Keys(0).codes()[1]);
  EXPECT_EQ(table.Lookup(0, Value::Real(-0.0)).size(), 2u);
}

TEST(TableTest, RowsAccessor) {
  Table table(PersonSchema());
  QP_EXPECT_OK(table.Insert({Value::Int(1), Value::Str("a")}));
  ASSERT_EQ(table.rows().size(), 1u);
  EXPECT_EQ(table.rows()[0][1], Value::Str("a"));
}

}  // namespace
}  // namespace qp
