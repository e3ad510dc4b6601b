#include "qp/relational/csv.h"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"

namespace qp {
namespace {

TableSchema MixedSchema() {
  return TableSchema("T",
                     {{"id", DataType::kInt64},
                      {"name", DataType::kString},
                      {"score", DataType::kDouble}},
                     {"id"});
}

TEST(CsvTest, RendersHeaderAndRows) {
  Table table(MixedSchema());
  QP_ASSERT_OK(table.Insert(
      {Value::Int(1), Value::Str("plain"), Value::Real(0.5)}));
  EXPECT_EQ(TableToCsv(table), "id,name,score\n1,\"plain\",0.5\n");
}

TEST(CsvTest, QuotesSpecialCharacters) {
  Table table(MixedSchema());
  QP_ASSERT_OK(table.Insert(
      {Value::Int(1), Value::Str("a,b \"c\"\nd"), Value::Real(1.0)}));
  std::string csv = TableToCsv(table);
  EXPECT_NE(csv.find("\"a,b \"\"c\"\"\nd\""), std::string::npos) << csv;
}

TEST(CsvTest, NullVersusEmptyString) {
  Table table(MixedSchema());
  QP_ASSERT_OK(table.Insert({Value::Int(1), Value::Null(), Value::Null()}));
  QP_ASSERT_OK(table.Insert(
      {Value::Int(2), Value::Str(""), Value::Real(2.0)}));
  std::string csv = TableToCsv(table);
  EXPECT_NE(csv.find("1,,\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("2,\"\",2\n"), std::string::npos) << csv;

  Table reloaded(MixedSchema());
  QP_ASSERT_OK(AppendCsvToTable(&reloaded, csv));
  ASSERT_EQ(reloaded.num_rows(), 2u);
  EXPECT_TRUE(reloaded.At(0, 1).is_null());
  EXPECT_EQ(reloaded.At(1, 1), Value::Str(""));
}

TEST(CsvTest, RoundTripPreservesValues) {
  Table table(MixedSchema());
  QP_ASSERT_OK(table.Insert(
      {Value::Int(-7), Value::Str("O'Hara, \"Kit\""), Value::Real(0.25)}));
  QP_ASSERT_OK(table.Insert(
      {Value::Int(42), Value::Str("line\nbreak"), Value::Null()}));

  Table reloaded(MixedSchema());
  QP_ASSERT_OK(AppendCsvToTable(&reloaded, TableToCsv(table)));
  ASSERT_EQ(reloaded.num_rows(), table.num_rows());
  for (RowId r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(reloaded.At(r, c), table.At(r, c)) << r << "," << c;
    }
  }
}

TEST(CsvTest, HeaderValidation) {
  Table table(MixedSchema());
  EXPECT_EQ(AppendCsvToTable(&table, "id,wrong,score\n1,\"a\",2\n").code(),
            StatusCode::kParseError);
  EXPECT_EQ(AppendCsvToTable(&table, "id,name\n1,\"a\"\n").code(),
            StatusCode::kParseError);
  EXPECT_EQ(AppendCsvToTable(&table, "").code(), StatusCode::kParseError);
}

TEST(CsvTest, ArityAndTypeErrors) {
  Table table(MixedSchema());
  EXPECT_EQ(AppendCsvToTable(&table, "id,name,score\n1,\"a\"\n").code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      AppendCsvToTable(&table, "id,name,score\nnot_an_int,\"a\",2\n").code(),
      StatusCode::kParseError);
  EXPECT_EQ(
      AppendCsvToTable(&table, "id,name,score\n1,\"a\",not_a_double\n")
          .code(),
      StatusCode::kParseError);
}

TEST(CsvTest, NaNRejectedAndNegativeZeroStoredAsZero) {
  // strtod reads "nan"; the table refuses it like any other insert.
  Table table(MixedSchema());
  EXPECT_EQ(
      AppendCsvToTable(&table, "id,name,score\n1,\"a\",nan\n").code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 0u);
  QP_ASSERT_OK(AppendCsvToTable(&table, "id,name,score\n2,\"b\",-0\n"));
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_FALSE(std::signbit(table.At(0, 2).as_double()));
  EXPECT_EQ(TableToCsv(table), "id,name,score\n2,\"b\",0\n");
}

TEST(CsvTest, UnterminatedQuoteFails) {
  Table table(MixedSchema());
  EXPECT_EQ(AppendCsvToTable(&table, "id,name,score\n1,\"oops,2\n").code(),
            StatusCode::kParseError);
}

TEST(CsvTest, SkipsBlankLines) {
  Table table(MixedSchema());
  QP_ASSERT_OK(AppendCsvToTable(
      &table, "id,name,score\n\n1,\"a\",2\n\n2,\"b\",3\n"));
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(CsvTest, HandlesCrLf) {
  Table table(MixedSchema());
  QP_ASSERT_OK(AppendCsvToTable(
      &table, "id,name,score\r\n1,\"a\",2\r\n2,\"b\",3\r\n"));
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(CsvTest, MissingTrailingNewlineAccepted) {
  Table table(MixedSchema());
  QP_ASSERT_OK(AppendCsvToTable(&table, "id,name,score\n1,\"a\",2"));
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(CsvTest, DatabaseSaveLoadRoundTrip) {
  MovieDbConfig config;
  config.num_movies = 40;
  config.num_actors = 20;
  config.num_directors = 8;
  config.num_theatres = 4;
  auto original = GenerateMovieDatabase(config);
  ASSERT_TRUE(original.ok());

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "qp_csv_test";
  std::filesystem::remove_all(dir);
  QP_ASSERT_OK(SaveDatabaseCsv(*original, dir.string()));

  Database reloaded(MovieSchema());
  QP_ASSERT_OK(LoadDatabaseCsv(&reloaded, dir.string()));
  EXPECT_EQ(reloaded.TotalRows(), original->TotalRows());
  for (const TableSchema& schema : reloaded.schema().tables()) {
    const Table* a = original->GetTable(schema.name()).value();
    const Table* b = reloaded.GetTable(schema.name()).value();
    ASSERT_EQ(a->num_rows(), b->num_rows()) << schema.name();
    for (RowId r = 0; r < a->num_rows(); ++r) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        ASSERT_EQ(a->At(r, c), b->At(r, c))
            << schema.name() << " row " << r << " col " << c;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(CsvTest, LoadMissingDirectoryFails) {
  Database db(MovieSchema());
  EXPECT_EQ(LoadDatabaseCsv(&db, "/nonexistent/qp_dir").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace qp
