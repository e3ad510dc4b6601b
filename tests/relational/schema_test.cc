#include "qp/relational/schema.h"

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"

namespace qp {
namespace {

TableSchema TwoColumnTable(const std::string& name) {
  return TableSchema(name,
                     {{"id", DataType::kInt64}, {"name", DataType::kString}},
                     {"id"});
}

TEST(TableSchemaTest, ColumnLookup) {
  TableSchema t = TwoColumnTable("T");
  EXPECT_EQ(t.name(), "T");
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.ColumnIndex("id"), 0u);
  EXPECT_EQ(t.ColumnIndex("name"), 1u);
  EXPECT_FALSE(t.ColumnIndex("missing").has_value());
  EXPECT_TRUE(t.HasColumn("name"));
  EXPECT_FALSE(t.HasColumn("nope"));
}

TEST(TableSchemaTest, PrimaryKeyResolved) {
  TableSchema t = TwoColumnTable("T");
  ASSERT_EQ(t.primary_key().size(), 1u);
  EXPECT_EQ(t.primary_key()[0], 0u);
}

TEST(SchemaTest, AddTableRejectsDuplicates) {
  Schema schema;
  QP_EXPECT_OK(schema.AddTable(TwoColumnTable("A")));
  Status s = schema.AddTable(TwoColumnTable("A"));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, AddTableRejectsDuplicateColumns) {
  Schema schema;
  Status s = schema.AddTable(TableSchema(
      "B", {{"x", DataType::kInt64}, {"x", DataType::kInt64}}, {}));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, FindTable) {
  Schema schema;
  QP_EXPECT_OK(schema.AddTable(TwoColumnTable("A")));
  QP_EXPECT_OK(schema.AddTable(TwoColumnTable("B")));
  EXPECT_NE(schema.FindTable("A"), nullptr);
  EXPECT_EQ(schema.FindTable("Z"), nullptr);
  // A table's id is its position in tables().
  EXPECT_EQ(schema.FindTableId("A"), 0u);
  EXPECT_EQ(schema.FindTableId("B"), 1u);
  EXPECT_FALSE(schema.FindTableId("Z").has_value());
  EXPECT_TRUE(schema.GetTable("A").ok());
  EXPECT_EQ(schema.GetTable("Z").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, AttributeChecks) {
  Schema schema;
  QP_EXPECT_OK(schema.AddTable(TwoColumnTable("A")));
  EXPECT_TRUE(schema.HasAttribute({"A", "id"}));
  EXPECT_FALSE(schema.HasAttribute({"A", "zz"}));
  EXPECT_FALSE(schema.HasAttribute({"B", "id"}));
  EXPECT_EQ(schema.AttributeType({"A", "name"}).value(), DataType::kString);
  EXPECT_FALSE(schema.AttributeType({"A", "zz"}).ok());
  EXPECT_EQ(schema.ResolveAttribute({"A", "name"}).value(),
            (AttributeId{0, 1}));
  EXPECT_EQ(schema.ResolveAttribute({"A", "zz"}).status().message(),
            "unknown attribute: A.zz");
  EXPECT_EQ(schema.ResolveAttribute({"B", "id"}).status().message(),
            "unknown table: B");
}

TEST(SchemaTest, ForeignKeyCardinalities) {
  Schema schema;
  QP_EXPECT_OK(schema.AddTable(TwoColumnTable("PARENT")));
  QP_EXPECT_OK(schema.AddTable(TableSchema(
      "CHILD", {{"id", DataType::kInt64}, {"parent_id", DataType::kInt64}},
      {"id"})));
  QP_EXPECT_OK(
      schema.AddForeignKey({"CHILD", "parent_id"}, {"PARENT", "id"}));

  // Child -> parent is to-one; parent -> child is to-many. The two
  // directions of the one declared join have adjacent ids.
  const AttributeId child = schema.ResolveAttribute({"CHILD", "parent_id"})
                                .value();
  const AttributeId parent = schema.ResolveAttribute({"PARENT", "id"}).value();
  std::optional<JoinId> up = schema.FindJoinId(child, parent);
  std::optional<JoinId> down = schema.FindJoinId(parent, child);
  ASSERT_TRUE(up.has_value());
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(*up, 0u);
  EXPECT_EQ(*down, 1u);
  EXPECT_EQ(schema.CardinalityOf(*up), JoinCardinality::kToOne);
  EXPECT_EQ(schema.CardinalityOf(*down), JoinCardinality::kToMany);
  EXPECT_FALSE(schema.FindJoinId(child, child).has_value());
}

TEST(SchemaTest, AddJoinValidation) {
  Schema schema;
  QP_EXPECT_OK(schema.AddTable(TwoColumnTable("A")));
  QP_EXPECT_OK(schema.AddTable(TwoColumnTable("B")));

  // Unknown attribute.
  EXPECT_EQ(schema
                .AddJoin({"A", "zz"}, {"B", "id"}, JoinCardinality::kToOne,
                         JoinCardinality::kToMany)
                .code(),
            StatusCode::kNotFound);
  // Type mismatch.
  EXPECT_EQ(schema
                .AddJoin({"A", "id"}, {"B", "name"}, JoinCardinality::kToOne,
                         JoinCardinality::kToMany)
                .code(),
            StatusCode::kInvalidArgument);
  // Self join.
  EXPECT_EQ(schema
                .AddJoin({"A", "id"}, {"A", "id"}, JoinCardinality::kToOne,
                         JoinCardinality::kToOne)
                .code(),
            StatusCode::kInvalidArgument);
  // Valid, then duplicate.
  QP_EXPECT_OK(schema.AddJoin({"A", "id"}, {"B", "id"},
                              JoinCardinality::kToOne,
                              JoinCardinality::kToOne));
  EXPECT_EQ(schema
                .AddJoin({"B", "id"}, {"A", "id"}, JoinCardinality::kToOne,
                         JoinCardinality::kToOne)
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, FindJoinEitherOrientation) {
  Schema schema;
  QP_EXPECT_OK(schema.AddTable(TwoColumnTable("A")));
  QP_EXPECT_OK(schema.AddTable(TwoColumnTable("B")));
  QP_EXPECT_OK(schema.AddForeignKey({"A", "id"}, {"B", "id"}));
  EXPECT_NE(schema.FindJoin({"A", "id"}, {"B", "id"}), nullptr);
  EXPECT_NE(schema.FindJoin({"B", "id"}, {"A", "id"}), nullptr);
  EXPECT_EQ(schema.FindJoin({"A", "name"}, {"B", "id"}), nullptr);
}

TEST(SchemaTest, JoinsFromListsBothEndpoints) {
  Schema schema = MovieSchema();
  auto from_movie = schema.JoinsFrom("MOVIE");
  // MOVIE participates in 4 declared joins (PLAY, CAST, DIRECTED, GENRE).
  EXPECT_EQ(from_movie.size(), 4u);
  for (const auto& join : from_movie) {
    EXPECT_EQ(join.from.table, "MOVIE");
    // From the primary-key side every traversal is to-many.
    EXPECT_EQ(join.cardinality, JoinCardinality::kToMany);
  }
  auto from_play = schema.JoinsFrom("PLAY");
  EXPECT_EQ(from_play.size(), 2u);
  for (const auto& join : from_play) {
    EXPECT_EQ(join.cardinality, JoinCardinality::kToOne);
  }
}

TEST(SchemaTest, MovieSchemaShape) {
  Schema schema = MovieSchema();
  EXPECT_EQ(schema.tables().size(), 8u);
  EXPECT_EQ(schema.joins().size(), 7u);
  EXPECT_TRUE(schema.HasAttribute({"GENRE", "genre"}));
  EXPECT_TRUE(schema.HasAttribute({"THEATRE", "region"}));
}

TEST(JoinCardinalityTest, Names) {
  EXPECT_STREQ(JoinCardinalityName(JoinCardinality::kToOne), "to-one");
  EXPECT_STREQ(JoinCardinalityName(JoinCardinality::kToMany), "to-many");
}

}  // namespace
}  // namespace qp
