#include "qp/pref/profile.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/util/random.h"

namespace qp {
namespace {

AtomicPreference Comedy(double doi = 0.9) {
  return AtomicPreference::Selection({"GENRE", "genre"},
                                     Value::Str("comedy"), doi);
}

TEST(AtomicPreferenceTest, SelectionAccessors) {
  AtomicPreference p = Comedy();
  EXPECT_TRUE(p.is_selection());
  EXPECT_EQ(p.attribute().ToString(), "GENRE.genre");
  EXPECT_EQ(p.value(), Value::Str("comedy"));
  EXPECT_DOUBLE_EQ(p.doi(), 0.9);
  EXPECT_EQ(p.ConditionString(), "GENRE.genre='comedy'");
  EXPECT_EQ(p.ToString(), "[ GENRE.genre='comedy', 0.9 ]");
}

TEST(AtomicPreferenceTest, JoinAccessors) {
  AtomicPreference p =
      AtomicPreference::Join({"PLAY", "mid"}, {"MOVIE", "mid"}, 1.0);
  EXPECT_TRUE(p.is_join());
  EXPECT_EQ(p.attribute().ToString(), "PLAY.mid");
  EXPECT_EQ(p.target().ToString(), "MOVIE.mid");
  EXPECT_EQ(p.ToString(), "[ PLAY.mid=MOVIE.mid, 1 ]");
}

TEST(AtomicPreferenceTest, SameConditionIgnoresDegree) {
  EXPECT_TRUE(Comedy(0.9).SameCondition(Comedy(0.1)));
  EXPECT_FALSE(Comedy().SameCondition(AtomicPreference::Selection(
      {"GENRE", "genre"}, Value::Str("thriller"), 0.9)));
  // Join direction matters.
  AtomicPreference forward =
      AtomicPreference::Join({"PLAY", "mid"}, {"MOVIE", "mid"}, 1.0);
  AtomicPreference backward =
      AtomicPreference::Join({"MOVIE", "mid"}, {"PLAY", "mid"}, 0.8);
  EXPECT_FALSE(forward.SameCondition(backward));
}

TEST(UserProfileTest, AddAndCount) {
  UserProfile profile;
  QP_EXPECT_OK(profile.Add(Comedy()));
  QP_EXPECT_OK(profile.Add(
      AtomicPreference::Join({"PLAY", "mid"}, {"MOVIE", "mid"}, 1.0)));
  EXPECT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile.NumSelections(), 1u);
  EXPECT_EQ(profile.NumJoins(), 1u);
  EXPECT_FALSE(profile.empty());
}

TEST(UserProfileTest, RejectsInvalidDegrees) {
  UserProfile profile;
  EXPECT_EQ(profile.Add(Comedy(1.5)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(profile.Add(Comedy(-1.5)).code(), StatusCode::kInvalidArgument);
  // Zero-valued preferences are not stored (paper Section 3.1).
  EXPECT_EQ(profile.Add(Comedy(0.0)).code(), StatusCode::kInvalidArgument);
}

TEST(UserProfileTest, NegativeSelectionDegreesAllowed) {
  // The generalized-model extension: dislikes with degrees in [-1, 0).
  UserProfile profile;
  QP_EXPECT_OK(profile.Add(Comedy(-0.8)));
  EXPECT_TRUE(profile.preferences()[0].is_negative());
  EXPECT_EQ(profile.preferences()[0].ToString(),
            "[ GENRE.genre='comedy', -0.8 ]");
}

TEST(UserProfileTest, NegativeJoinDegreesRejected) {
  UserProfile profile;
  EXPECT_EQ(profile
                .Add(AtomicPreference::Join({"PLAY", "mid"},
                                            {"MOVIE", "mid"}, -0.5))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(UserProfileTest, NegativeDegreeParseRoundTrip) {
  auto profile = UserProfile::Parse("[ GENRE.genre='horror', -0.8 ]\n");
  ASSERT_TRUE(profile.ok()) << profile.status();
  ASSERT_EQ(profile->size(), 1u);
  EXPECT_DOUBLE_EQ(profile->preferences()[0].doi(), -0.8);
  EXPECT_EQ(profile->Serialize(), "[ GENRE.genre='horror', -0.8 ]\n");
}

TEST(UserProfileTest, RejectsDuplicateConditions) {
  UserProfile profile;
  QP_EXPECT_OK(profile.Add(Comedy(0.9)));
  EXPECT_EQ(profile.Add(Comedy(0.5)).code(), StatusCode::kAlreadyExists);
}

TEST(UserProfileTest, HashedDuplicateCheckMatchesALinearScan) {
  // A small pool of conditions that collide in every way SameCondition
  // allows: 2 vs 2.0, 0 vs 0.0 vs -0.0, near widths 0.0 vs -0.0, a near
  // and an exact selection on one attribute and value, and both
  // directions of a join. The reference is the plain linear scan.
  const AttributeRef a{"T", "a"}, b{"U", "b"};
  const std::vector<Value> values = {
      Value::Int(2),    Value::Real(2.0),  Value::Int(0),
      Value::Real(0.0), Value::Real(-0.0), Value::Str("2"),
      Value::Int(-5),   Value::Null()};
  const std::vector<double> widths = {0.0, -0.0, 1.0};
  const std::vector<double> degrees = {0.25, 0.5, 1.0, -0.5};
  Rng rng(20261019);
  for (int sequence = 0; sequence < 200; ++sequence) {
    UserProfile profile;
    std::vector<AtomicPreference> reference;
    for (int op = 0; op < 40; ++op) {
      const AttributeRef& attr = rng.Below(2) == 0 ? a : b;
      const Value& value = values[rng.Below(values.size())];
      double doi = degrees[rng.Below(degrees.size())];
      AtomicPreference pref = AtomicPreference::Selection(attr, value, doi);
      switch (rng.Below(3)) {
        case 0:
          break;
        case 1:
          pref = AtomicPreference::NearSelection(
              attr, value, widths[rng.Below(widths.size())], doi);
          break;
        default:
          pref = rng.Below(2) == 0
                     ? AtomicPreference::Join(a, b, std::fabs(doi))
                     : AtomicPreference::Join(b, a, std::fabs(doi));
          break;
      }
      size_t match = reference.size();
      for (size_t i = 0; i < reference.size(); ++i) {
        if (reference[i].SameCondition(pref)) {
          match = i;
          break;
        }
      }
      if (rng.Below(2) == 0) {
        Status status = profile.Add(pref);
        if (match < reference.size()) {
          EXPECT_EQ(status.code(), StatusCode::kAlreadyExists)
              << "sequence " << sequence << " op " << op << ": "
              << pref.ToString();
        } else {
          QP_EXPECT_OK(status);
          reference.push_back(pref);
        }
      } else {
        profile.AddOrUpdate(pref);
        if (match < reference.size()) {
          reference[match] = pref;
        } else {
          reference.push_back(pref);
        }
      }
      ASSERT_EQ(profile.size(), reference.size())
          << "sequence " << sequence << " op " << op;
      for (size_t i = 0; i < reference.size(); ++i) {
        const AtomicPreference& got = profile.preferences()[i];
        EXPECT_EQ(got.kind(), reference[i].kind());
        EXPECT_TRUE(got.SameCondition(reference[i]));
        EXPECT_EQ(got.doi(), reference[i].doi());
        if (!got.is_join()) {
          EXPECT_EQ(got.value().type(), reference[i].value().type());
        }
      }
    }
  }
}

TEST(UserProfileTest, ConditionHashAgreesWithSameCondition) {
  auto selection = [](Value value) {
    return AtomicPreference::Selection({"T", "a"}, std::move(value), 0.5);
  };
  EXPECT_EQ(selection(Value::Int(2)).ConditionHash(),
            selection(Value::Real(2.0)).ConditionHash());
  EXPECT_EQ(selection(Value::Real(0.0)).ConditionHash(),
            selection(Value::Real(-0.0)).ConditionHash());
  EXPECT_EQ(selection(Value::Int(0)).ConditionHash(),
            selection(Value::Real(-0.0)).ConditionHash());
  // Beyond 2^53 an int equals the double it rounds to.
  const int64_t big = (int64_t{1} << 53) + 1;
  ASSERT_TRUE(selection(Value::Int(big))
                  .SameCondition(selection(Value::Real(0x1p53))));
  EXPECT_EQ(selection(Value::Int(big)).ConditionHash(),
            selection(Value::Real(0x1p53)).ConditionHash());
  EXPECT_EQ(AtomicPreference::NearSelection({"T", "a"}, Value::Int(3), 0.0,
                                            0.5)
                .ConditionHash(),
            AtomicPreference::NearSelection({"T", "a"}, Value::Int(3), -0.0,
                                            0.5)
                .ConditionHash());
}

TEST(UserProfileTest, AddOrUpdateReplaces) {
  UserProfile profile;
  QP_EXPECT_OK(profile.Add(Comedy(0.9)));
  profile.AddOrUpdate(Comedy(0.4));
  EXPECT_EQ(profile.size(), 1u);
  EXPECT_DOUBLE_EQ(profile.preferences()[0].doi(), 0.4);
}

TEST(UserProfileTest, FindJoinIsDirectional) {
  UserProfile profile;
  QP_EXPECT_OK(profile.Add(
      AtomicPreference::Join({"PLAY", "mid"}, {"MOVIE", "mid"}, 1.0)));
  EXPECT_NE(profile.FindJoin({"PLAY", "mid"}, {"MOVIE", "mid"}), nullptr);
  EXPECT_EQ(profile.FindJoin({"MOVIE", "mid"}, {"PLAY", "mid"}), nullptr);
}

TEST(UserProfileTest, FindSelection) {
  UserProfile profile;
  QP_EXPECT_OK(profile.Add(Comedy()));
  EXPECT_NE(
      profile.FindSelection({"GENRE", "genre"}, Value::Str("comedy")),
      nullptr);
  EXPECT_EQ(
      profile.FindSelection({"GENRE", "genre"}, Value::Str("drama")),
      nullptr);
}

TEST(UserProfileTest, ValidateAgainstSchema) {
  Schema schema = MovieSchema();
  QP_EXPECT_OK(JulieProfile().Validate(schema));

  UserProfile bad_attr;
  QP_EXPECT_OK(bad_attr.Add(AtomicPreference::Selection(
      {"GENRE", "nope"}, Value::Str("x"), 0.5)));
  EXPECT_FALSE(bad_attr.Validate(schema).ok());

  UserProfile bad_type;
  QP_EXPECT_OK(bad_type.Add(AtomicPreference::Selection(
      {"MOVIE", "year"}, Value::Str("nineteen-ninety"), 0.5)));
  EXPECT_FALSE(bad_type.Validate(schema).ok());

  UserProfile bad_join;
  QP_EXPECT_OK(bad_join.Add(AtomicPreference::Join(
      {"MOVIE", "mid"}, {"ACTOR", "aid"}, 0.5)));  // Not a declared join.
  EXPECT_EQ(bad_join.Validate(schema).code(), StatusCode::kInvalidArgument);
}

TEST(UserProfileTest, SerializeMatchesPaperFormat) {
  UserProfile profile;
  QP_EXPECT_OK(profile.Add(
      AtomicPreference::Join({"THEATRE", "tid"}, {"PLAY", "tid"}, 1.0)));
  QP_EXPECT_OK(profile.Add(Comedy(0.9)));
  EXPECT_EQ(profile.Serialize(),
            "[ THEATRE.tid=PLAY.tid, 1 ]\n"
            "[ GENRE.genre='comedy', 0.9 ]\n");
}

TEST(UserProfileTest, ParsePaperFigure2) {
  // Figure 2 of the paper, verbatim (modulo typography).
  auto profile = UserProfile::Parse(
      "[ THEATRE.tid=PLAY.tid, 1 ]\n"
      "[ PLAY.tid=THEATRE.tid, 1 ]\n"
      "[ PLAY.mid=MOVIE.mid, 1 ]\n"
      "[ MOVIE.mid=PLAY.mid, 0.8 ]\n"
      "[ MOVIE.mid=GENRE.mid, 0.9 ]\n"
      "[ ACTOR.name='A. Hopkins', 0.8 ]\n"
      "[ GENRE.genre='comedy', 0.9 ]\n"
      "[ GENRE.genre='thriller', 0.7 ]\n");
  ASSERT_TRUE(profile.ok()) << profile.status();
  EXPECT_EQ(profile->size(), 8u);
  EXPECT_EQ(profile->NumSelections(), 3u);
  EXPECT_EQ(profile->NumJoins(), 5u);
  const AtomicPreference* hopkins =
      profile->FindSelection({"ACTOR", "name"}, Value::Str("A. Hopkins"));
  ASSERT_NE(hopkins, nullptr);
  EXPECT_DOUBLE_EQ(hopkins->doi(), 0.8);
}

TEST(UserProfileTest, ParseSkipsCommentsAndBlankLines) {
  auto profile = UserProfile::Parse(
      "# Julie's profile\n"
      "\n"
      "[ GENRE.genre='comedy', 0.9 ]\n"
      "   # trailing comment line\n");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->size(), 1u);
}

TEST(UserProfileTest, ParseHandlesIntegerValues) {
  auto profile = UserProfile::Parse("[ MOVIE.year=1994, 0.6 ]\n");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->preferences()[0].value(), Value::Int(1994));
}

TEST(UserProfileTest, ParseErrors) {
  EXPECT_FALSE(UserProfile::Parse("[ GENRE.genre='comedy' ]").ok());
  EXPECT_FALSE(UserProfile::Parse("[ GENRE.genre=, 0.9 ]").ok());
  EXPECT_FALSE(UserProfile::Parse("GENRE.genre='comedy', 0.9").ok());
  EXPECT_FALSE(UserProfile::Parse("[ GENRE.genre='comedy', 0.9").ok());
  EXPECT_FALSE(UserProfile::Parse("[ GENRE.genre='comedy', 1.9 ]").ok());
}

TEST(UserProfileTest, TextFormatKeepsLiteralTypesAndSigns) {
  // An integral double must not come back as an integer, and a negative
  // literal must parse: the text format round-trips what a store accepts.
  UserProfile profile;
  QP_ASSERT_OK(profile.Add(
      AtomicPreference::Selection({"T", "a"}, Value::Int(-5), 0.5)));
  QP_ASSERT_OK(profile.Add(
      AtomicPreference::Selection({"T", "b"}, Value::Real(7.0), 0.75)));
  QP_ASSERT_OK(profile.Add(
      AtomicPreference::Selection({"T", "c"}, Value::Real(-0.0), 0.25)));
  QP_ASSERT_OK(profile.Add(AtomicPreference::Selection(
      {"T", "d"}, Value::Int(std::numeric_limits<int64_t>::min()), 1.0)));
  EXPECT_EQ(profile.Serialize(),
            "[ T.a=-5, 0.5 ]\n"
            "[ T.b=7.0, 0.75 ]\n"
            "[ T.c=-0.0, 0.25 ]\n"
            "[ T.d=-9223372036854775808, 1 ]\n");

  auto reparsed = UserProfile::Parse(profile.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ(reparsed->size(), profile.size());
  for (size_t i = 0; i < profile.size(); ++i) {
    const Value& want = profile.preferences()[i].value();
    const Value& got = reparsed->preferences()[i].value();
    EXPECT_EQ(got.type(), want.type()) << i;
    EXPECT_EQ(got, want) << i;
  }
  EXPECT_TRUE(std::signbit(reparsed->preferences()[2].value().as_double()));
}

TEST(UserProfileTest, SerializeParseRoundTrip) {
  UserProfile julie = JulieProfile();
  auto reparsed = UserProfile::Parse(julie.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ(reparsed->size(), julie.size());
  for (size_t i = 0; i < julie.size(); ++i) {
    EXPECT_TRUE(
        reparsed->preferences()[i].SameCondition(julie.preferences()[i]));
    EXPECT_DOUBLE_EQ(reparsed->preferences()[i].doi(),
                     julie.preferences()[i].doi());
  }
}

}  // namespace
}  // namespace qp
