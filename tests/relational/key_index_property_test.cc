// Property suite for Table's coded key index: on seeded random tables,
// Lookup must return exactly the rows a brute-force scan finds equal
// (Value::operator==), in ascending id order, for every column and every
// probe — before and after rows are inserted behind a built index — and
// every row's code must decode to the cell the row stores.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/relational/table.h"
#include "qp/util/random.h"

namespace qp {
namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
/// Int/double conversions stay within ±2^53, where every int64 is a
/// double: beyond it Value::Hash and operator== disagree on cross-type
/// equality, and no index can follow both.
constexpr double kExact = 9007199254740992.0;  // 2^53
/// 2^60 + 1 + i * 2^20: no double holds these exactly, so Value::Hash
/// hashes them as int64 (the identity in libstdc++), and every one has
/// the same low 20 bits.
int64_t HugeKey(int64_t i) { return (int64_t{1} << 60) + 1 + i * (1 << 20); }

/// How a column's cells are drawn.
enum class Shape {
  kDenseInt,     // Small range: codes arithmetically.
  kNegativeInt,  // Small range below zero.
  kSparseInt,    // Range far above the row count: dictionary.
  kExtremeInt,   // int64 extremes next to small values.
  kHighInt,      // Small range ending at INT64_MAX.
  kLowInt,       // Small range starting at INT64_MIN.
  kHugeInt,      // Sparse, beyond 2^53, sharing their low 20 bits.
  kDouble,       // Includes ±0.0 (stored as 0.0) and integral values.
  kString,
};
constexpr int kNumShapes = 9;

DataType TypeOf(Shape shape) {
  if (shape == Shape::kDouble) return DataType::kDouble;
  if (shape == Shape::kString) return DataType::kString;
  return DataType::kInt64;
}

Value Draw(Shape shape, Rng* rng) {
  switch (shape) {
    case Shape::kDenseInt:
      return Value::Int(rng->Range(0, 12));
    case Shape::kNegativeInt:
      return Value::Int(rng->Range(-40, -30));
    case Shape::kSparseInt:
      return Value::Int(rng->Range(-1, 8) * 1000003);
    case Shape::kExtremeInt: {
      static const int64_t kPool[] = {kMin, kMin + 1, -1, 0, 5, kMax - 1, kMax};
      return Value::Int(kPool[rng->Below(7)]);
    }
    case Shape::kHighInt:
      return Value::Int(kMax - rng->Range(0, 6));
    case Shape::kLowInt:
      return Value::Int(kMin + rng->Range(0, 6));
    case Shape::kHugeInt:
      return Value::Int(HugeKey(rng->Range(-4, 8)));
    case Shape::kDouble: {
      static const double kPool[] = {0.0, -0.0, 5.0, -2.5, 1.5, 1e300, -7.0};
      return Value::Real(kPool[rng->Below(7)]);
    }
    case Shape::kString: {
      static const char* kPool[] = {"", "a", "ann", "bob", "5", "NULL"};
      return Value::Str(kPool[rng->Below(6)]);
    }
  }
  return Value::Null();
}

/// Brute force: ids whose cell == `probe`, ascending.
std::vector<RowId> Scan(const Table& table, size_t col, const Value& probe) {
  std::vector<RowId> out;
  for (RowId id = 0; id < table.num_rows(); ++id) {
    if (table.At(id, col) == probe) out.push_back(id);
  }
  return out;
}

/// Probes for one column: every cell, NULL, Real(5.0) and Int(5),
/// Real(-0.0) (a table stores -0.0 cells as 0.0, so no cell probes it),
/// neighbours of every integral cell (which land just outside or inside
/// an arithmetic range), and each cell's value in the other numeric type
/// where that conversion is exact.
std::vector<Value> Probes(const Table& table, size_t col) {
  std::vector<Value> probes = {Value::Null(),     Value::Real(5.0),
                               Value::Int(5),     Value::Real(5.5),
                               Value::Str("ann"), Value::Real(-0.0)};
  for (RowId id = 0; id < table.num_rows(); ++id) {
    const Value& cell = table.At(id, col);
    probes.push_back(cell);
    if (cell.type() == DataType::kInt64) {
      int64_t v = cell.as_int();
      if (v > kMin) probes.push_back(Value::Int(v - 1));
      if (v < kMax) probes.push_back(Value::Int(v + 1));
      if (v >= -kExact && v <= kExact) {
        probes.push_back(Value::Real(static_cast<double>(v)));
      }
    } else if (cell.type() == DataType::kDouble) {
      double d = cell.as_double();
      if (d >= -kExact && d <= kExact && d == static_cast<int64_t>(d)) {
        probes.push_back(Value::Int(static_cast<int64_t>(d)));
      }
    }
  }
  return probes;
}

void CheckEveryProbe(const Table& table, const std::string& context) {
  for (size_t col = 0; col < table.schema().num_columns(); ++col) {
    for (const Value& probe : Probes(table, col)) {
      std::span<const RowId> hits = table.Lookup(col, probe);
      std::vector<RowId> got(hits.begin(), hits.end());
      ASSERT_EQ(got, Scan(table, col, probe))
          << context << " column " << col << " probe " << probe;
    }
  }
}

TEST(KeyIndexPropertyTest, LookupMatchesBruteForce) {
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = 0x6b657931ULL + static_cast<uint64_t>(trial);
    Rng rng(seed);
    std::vector<Column> columns;
    std::vector<Shape> shapes;
    const size_t width = 1 + rng.Below(5);
    for (size_t c = 0; c < width; ++c) {
      shapes.push_back(static_cast<Shape>(rng.Below(kNumShapes)));
      columns.push_back({std::string("c").append(std::to_string(c)),
                         TypeOf(shapes.back())});
    }
    const double null_rate = rng.Bernoulli(0.5) ? 0.0 : 0.15;
    Table table(TableSchema("T", columns, {}));
    auto insert = [&](size_t n) {
      for (size_t r = 0; r < n; ++r) {
        Row row;
        for (Shape shape : shapes) {
          row.push_back(rng.Bernoulli(null_rate) ? Value::Null()
                                                 : Draw(shape, &rng));
        }
        QP_ASSERT_OK(table.Insert(std::move(row)));
      }
    };
    const std::string context = std::string("trial ")
                                    .append(std::to_string(trial))
                                    .append(" seed=")
                                    .append(std::to_string(seed));
    insert(rng.Below(60));
    table.BuildAllIndexes();
    ASSERT_NO_FATAL_FAILURE(CheckEveryProbe(table, context + " built"));
    // Rows inserted behind a built index must be found too.
    insert(1 + rng.Below(30));
    ASSERT_NO_FATAL_FAILURE(CheckEveryProbe(table, context + " grown"));
  }
}

/// A cell's type and rendering, doubles as %a: equal for two cells
/// exactly when they are identical.
std::string Exact(const Value& cell) {
  std::string out = DataTypeName(cell.type());
  if (cell.type() == DataType::kDouble) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %a", cell.as_double());
    return out.append(buf);
  }
  return out.append(" ").append(cell.ToString());
}

/// Decode(codes()[r]) must be row r's cell, for every row and column.
/// Counts the columns that coded each way.
void CheckDecode(const Table& table, const std::string& context,
                 size_t* arithmetic, size_t* dictionary) {
  for (size_t col = 0; col < table.schema().num_columns(); ++col) {
    const KeyIndex& keys = table.Keys(col);
    ++*(keys.arithmetic() ? arithmetic : dictionary);
    for (RowId id = 0; id < table.num_rows(); ++id) {
      const Value& cell = table.At(id, col);
      const Value decoded = keys.Decode(keys.codes()[id]);
      ASSERT_EQ(decoded.type(), cell.type())
          << context << " column " << col << " row " << id;
      ASSERT_TRUE(decoded == cell)
          << context << " column " << col << " row " << id << ": "
          << decoded << " != " << cell;
      ASSERT_EQ(Exact(decoded), Exact(cell))
          << context << " column " << col << " row " << id;
    }
  }
}

TEST(KeyIndexPropertyTest, DecodeReturnsTheStoredCell) {
  size_t arithmetic = 0;
  size_t dictionary = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const uint64_t seed = 0x6465636fULL + static_cast<uint64_t>(trial);
    Rng rng(seed);
    std::vector<Column> columns;
    std::vector<Shape> shapes;
    const size_t width = 1 + rng.Below(5);
    for (size_t c = 0; c < width; ++c) {
      shapes.push_back(static_cast<Shape>(rng.Below(kNumShapes)));
      columns.push_back({std::string("c").append(std::to_string(c)),
                         TypeOf(shapes.back())});
    }
    const double null_rate = rng.Bernoulli(0.5) ? 0.0 : 0.15;
    auto insert = [&](Table* table, size_t n) {
      for (size_t r = 0; r < n; ++r) {
        Row row;
        for (Shape shape : shapes) {
          row.push_back(rng.Bernoulli(null_rate) ? Value::Null()
                                                 : Draw(shape, &rng));
        }
        QP_ASSERT_OK(table->Insert(std::move(row)));
      }
    };
    const std::string context = std::string("trial ")
                                    .append(std::to_string(trial))
                                    .append(" seed=")
                                    .append(std::to_string(seed));
    Table table(TableSchema("T", columns, {}));
    ASSERT_NO_FATAL_FAILURE(insert(&table, 1 + rng.Below(60)));
    table.BuildAllIndexes();
    ASSERT_NO_FATAL_FAILURE(
        CheckDecode(table, context + " built", &arithmetic, &dictionary));
    // A moved table keeps its built indexes, and they still decode.
    Table moved(std::move(table));
    ASSERT_NO_FATAL_FAILURE(
        CheckDecode(moved, context + " moved", &arithmetic, &dictionary));
    // Insert drops every index; the rebuilt ones decode the new rows too.
    ASSERT_NO_FATAL_FAILURE(insert(&moved, 1 + rng.Below(30)));
    ASSERT_NO_FATAL_FAILURE(
        CheckDecode(moved, context + " grown", &arithmetic, &dictionary));
  }
  // Both codings were exercised.
  EXPECT_GT(arithmetic, 100u);
  EXPECT_GT(dictionary, 100u);
}

TEST(KeyIndexPropertyTest, CodesEqualExactlyWhenCellsEqual) {
  for (int trial = 0; trial < 50; ++trial) {
    Rng rng(0x636f6465ULL + static_cast<uint64_t>(trial));
    Shape shape = static_cast<Shape>(trial % kNumShapes);
    Table table(TableSchema("T", {{"c", TypeOf(shape)}}, {}));
    const size_t n = 1 + rng.Below(40);
    for (size_t r = 0; r < n; ++r) {
      QP_ASSERT_OK(table.Insert(
          {rng.Bernoulli(0.1) ? Value::Null() : Draw(shape, &rng)}));
    }
    const KeyIndex& keys = table.Keys(0);
    std::span<const uint32_t> codes = keys.codes();
    ASSERT_EQ(codes.size(), n);
    for (RowId a = 0; a < n; ++a) {
      EXPECT_EQ(table.KeyCode(0, table.At(a, 0)), codes[a]);
      for (RowId b = 0; b < n; ++b) {
        EXPECT_EQ(codes[a] == codes[b], table.At(a, 0) == table.At(b, 0))
            << "trial " << trial << " rows " << a << ", " << b;
      }
    }
  }
}

TEST(KeyIndexPropertyTest, SparseHugeKeysSharingLowBits) {
  // 20,000 distinct keys whose hashes share their low bits, each held by
  // two rows. A dictionary that masks the hash to a power of two piles
  // them into one probe run.
  const int64_t n = 20000;
  Table table(TableSchema("T", {{"k", DataType::kInt64}}, {}));
  for (int64_t i = 0; i < 2 * n; ++i) {
    QP_ASSERT_OK(table.Insert({Value::Int(HugeKey(i % n))}));
  }
  ASSERT_FALSE(table.Keys(0).arithmetic());
  EXPECT_EQ(table.Keys(0).num_codes(), static_cast<uint32_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::span<const RowId> rows = table.Lookup(0, Value::Int(HugeKey(i)));
    ASSERT_EQ(std::vector<RowId>(rows.begin(), rows.end()),
              (std::vector<RowId>{static_cast<RowId>(i),
                                  static_cast<RowId>(i + n)}))
        << "key " << i;
    ASSERT_TRUE(table.Lookup(0, Value::Int(HugeKey(i) + 1)).empty());
  }
}

TEST(KeyIndexPropertyTest, ArithmeticOnlyForNullFreeSmallRangeInts) {
  // A column spanning 48,000 values over 13,440 rows (a foreign key into
  // a 48k-row table, sampled) codes arithmetically.
  Table plays(TableSchema("PLAY", {{"mid", DataType::kInt64}}, {}));
  Rng rng(20040301);
  QP_ASSERT_OK(plays.Insert({Value::Int(0)}));
  QP_ASSERT_OK(plays.Insert({Value::Int(47999)}));
  for (int r = 2; r < 13440; ++r) {
    QP_ASSERT_OK(plays.Insert({Value::Int(rng.Range(0, 47999))}));
  }
  EXPECT_TRUE(plays.Keys(0).arithmetic());
  EXPECT_EQ(plays.Keys(0).num_codes(), 48000u);

  auto coding = [](std::vector<Value> cells, DataType type) {
    Table table(TableSchema("T", {{"c", type}}, {}));
    for (Value& cell : cells) EXPECT_TRUE(table.Insert({cell}).ok());
    return table.Keys(0).arithmetic();
  };
  EXPECT_TRUE(coding({Value::Int(kMax), Value::Int(kMax - 3)},
                     DataType::kInt64));
  EXPECT_TRUE(coding({Value::Int(kMin), Value::Int(kMin + 3)},
                     DataType::kInt64));
  // Range past kMaxSpanPerRow times the rows, a NULL, a non-int column.
  EXPECT_FALSE(coding({Value::Int(0), Value::Int(8)}, DataType::kInt64));
  EXPECT_FALSE(coding({Value::Int(kMin), Value::Int(kMax)}, DataType::kInt64));
  EXPECT_FALSE(coding({Value::Int(1), Value::Null()}, DataType::kInt64));
  EXPECT_FALSE(coding({Value::Real(1.0), Value::Real(2.0)},
                      DataType::kDouble));
  EXPECT_FALSE(coding({}, DataType::kInt64));
}

TEST(KeyIndexPropertyTest, OffsetConvertsArithmeticCodes) {
  Table a(TableSchema("A", {{"k", DataType::kInt64}}, {}));
  Table b(TableSchema("B", {{"k", DataType::kInt64}}, {}));
  for (int64_t v : {-3, -1, 0, 2}) QP_ASSERT_OK(a.Insert({Value::Int(v)}));
  for (int64_t v : {0, 1, 2, 4, 4}) QP_ASSERT_OK(b.Insert({Value::Int(v)}));
  const KeyIndex& ka = a.Keys(0);
  const KeyIndex& kb = b.Keys(0);
  ASSERT_TRUE(ka.arithmetic());
  ASSERT_TRUE(kb.arithmetic());
  const uint64_t offset = KeyIndex::Offset(ka, kb);
  for (RowId id = 0; id < a.num_rows(); ++id) {
    const uint64_t code = ka.codes()[id] + offset;
    std::vector<RowId> got;
    if (code < kb.num_codes()) {
      std::span<const RowId> rows = kb.postings(static_cast<uint32_t>(code));
      got.assign(rows.begin(), rows.end());
    }
    EXPECT_EQ(got, Scan(b, 0, a.At(id, 0))) << "row " << id;
  }
}

TEST(KeyIndexPropertyTest, RebuildAfterWarmWritesNothing) {
  // A recovering shard re-warms the database while other shards read it:
  // once built, BuildAllIndexes must leave every index as it is.
  Table table(TableSchema("T", {{"k", DataType::kInt64},
                                {"s", DataType::kString}}, {}));
  for (int i = 0; i < 500; ++i) {
    QP_ASSERT_OK(table.Insert(
        {Value::Int(i % 37),
         Value::Str(std::string("s").append(std::to_string(i % 11)))}));
  }
  table.BuildAllIndexes();
  const uint32_t* codes = table.Keys(0).codes().data();
  std::atomic<bool> stop{false};
  std::atomic<size_t> found{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      found.fetch_add(table.Lookup(0, Value::Int(5)).size() +
                          table.Lookup(1, Value::Str("s3")).size(),
                      std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 200; ++i) table.BuildAllIndexes();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(table.Keys(0).codes().data(), codes);
  EXPECT_EQ(table.Lookup(0, Value::Int(5)).size(), 14u);
}

}  // namespace
}  // namespace qp
