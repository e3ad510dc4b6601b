// Round-trip fuzzing of the binary profile codec (WAL records and
// snapshot bodies), the storage-layer extension of the parser/profile
// fuzz suites: random mutations and profiles encode and decode to
// bit-identical structures, every truncation of a valid encoding is
// rejected (the format is prefix-free per kind), a profile body the
// store could never have written is refused, and random or bit-flipped
// input never crashes the decoder.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/pref/preference.h"
#include "qp/pref/profile.h"
#include "qp/storage/coding.h"
#include "qp/storage/record.h"
#include "qp/storage/wal.h"
#include "qp/util/random.h"

namespace qp {
namespace storage {
namespace {

std::string RandomString(Rng* rng, size_t max_len) {
  size_t len = rng->Below(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Full byte range: the codec is length-prefixed, so quotes, newlines
    // and NUL bytes must all survive.
    s.push_back(static_cast<char>(rng->Below(256)));
  }
  return s;
}

// An arbitrary finite double, exercising the full mantissa (the text
// profile format rounds to six significant digits; the binary format
// must not).
double RandomDouble(Rng* rng) {
  for (;;) {
    uint64_t bits = rng->Next();
    double d;
    static_assert(sizeof d == sizeof bits);
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) return d;
  }
}

AttributeRef RandomAttribute(Rng* rng) {
  return AttributeRef{RandomString(rng, 12), RandomString(rng, 12)};
}

Value RandomValue(Rng* rng) {
  switch (rng->Below(4)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(static_cast<int64_t>(rng->Next()));
    case 2:
      return Value::Real(RandomDouble(rng));
    default:
      return Value::Str(RandomString(rng, 20));
  }
}

AtomicPreference RandomPreference(Rng* rng) {
  switch (rng->Below(3)) {
    case 0:
      return AtomicPreference::Selection(RandomAttribute(rng),
                                         RandomValue(rng), RandomDouble(rng));
    case 1:
      return AtomicPreference::Join(RandomAttribute(rng), RandomAttribute(rng),
                                    RandomDouble(rng));
    default:
      return AtomicPreference::NearSelection(RandomAttribute(rng),
                                             RandomValue(rng),
                                             RandomDouble(rng),
                                             RandomDouble(rng));
  }
}

ProfileMutation RandomMutation(Rng* rng) {
  std::string user = RandomString(rng, 16);
  switch (rng->Below(3)) {
    case 0: {
      // Put: profile entries must have pairwise-distinct conditions
      // (UserProfile dedups on AddOrUpdate), so give each preference a
      // unique attribute via an index-tagged table name.
      UserProfile profile;
      size_t n = rng->Below(6);
      for (size_t i = 0; i < n; ++i) {
        AtomicPreference pref = RandomPreference(rng);
        AttributeRef attr{"T" + std::to_string(i) + pref.attribute().table,
                          pref.attribute().column};
        if (pref.is_join()) {
          profile.AddOrUpdate(
              AtomicPreference::Join(attr, pref.target(), pref.doi()));
        } else if (pref.is_near()) {
          profile.AddOrUpdate(AtomicPreference::NearSelection(
              attr, pref.value(), pref.width(), pref.doi()));
        } else {
          profile.AddOrUpdate(
              AtomicPreference::Selection(attr, pref.value(), pref.doi()));
        }
      }
      return ProfileMutation::Put(std::move(user), std::move(profile));
    }
    case 1: {
      std::vector<AtomicPreference> prefs;
      size_t n = rng->Below(6);
      for (size_t i = 0; i < n; ++i) prefs.push_back(RandomPreference(rng));
      return ProfileMutation::Upsert(std::move(user), std::move(prefs));
    }
    default:
      return ProfileMutation::Remove(std::move(user));
  }
}

// A degree UserProfile::Add accepts: any double in [-1, 1] but zero,
// and positive for a join.
double RandomStoredDegree(Rng* rng, bool join) {
  for (;;) {
    double doi = rng->NextDouble();
    if (doi == 0.0) continue;
    return join || rng->Below(2) == 0 ? doi : -doi;
  }
}

// A profile a store could hold: random conditions (full-byte names,
// every literal type) with stored degrees, duplicates dropped by Add.
UserProfile RandomStoredProfile(Rng* rng) {
  UserProfile profile;
  size_t n = rng->Below(12);
  for (size_t i = 0; i < n; ++i) {
    AtomicPreference pref = RandomPreference(rng);
    if (pref.is_join()) {
      pref = AtomicPreference::Join(pref.attribute(), pref.target(),
                                    RandomStoredDegree(rng, true));
    } else if (pref.is_near()) {
      pref = AtomicPreference::NearSelection(pref.attribute(), pref.value(),
                                             pref.width(),
                                             RandomStoredDegree(rng, false));
    } else {
      pref = AtomicPreference::Selection(pref.attribute(), pref.value(),
                                         RandomStoredDegree(rng, false));
    }
    Status status = profile.Add(std::move(pref));
    EXPECT_TRUE(status.ok() || status.code() == StatusCode::kAlreadyExists)
        << status;
  }
  return profile;
}

void ExpectMutationsEqual(const ProfileMutation& a, const ProfileMutation& b) {
  ASSERT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.user_id, b.user_id);
  EXPECT_TRUE(ProfilesEqual(a.profile, b.profile));
  ASSERT_EQ(a.preferences.size(), b.preferences.size());
  for (size_t i = 0; i < a.preferences.size(); ++i) {
    EXPECT_TRUE(PreferencesEqual(a.preferences[i], b.preferences[i]))
        << "preference " << i;
  }
}

TEST(RecordFuzzTest, RandomMutationsRoundTripBitExactly) {
  Rng rng(20260807);
  for (int iter = 0; iter < 2000; ++iter) {
    ProfileMutation mutation = RandomMutation(&rng);
    std::string encoded;
    EncodeMutation(mutation, &encoded);
    auto decoded = DecodeMutation(encoded);
    ASSERT_TRUE(decoded.ok()) << "iter " << iter << ": " << decoded.status();
    ExpectMutationsEqual(mutation, *decoded);

    // Determinism: re-encoding the decoded mutation yields the same bytes.
    std::string re_encoded;
    EncodeMutation(*decoded, &re_encoded);
    EXPECT_EQ(encoded, re_encoded) << "iter " << iter;
  }
}

TEST(RecordFuzzTest, RandomProfilesRoundTripThroughTheProfileCodec) {
  Rng rng(20261019);
  for (int iter = 0; iter < 2000; ++iter) {
    UserProfile profile = RandomStoredProfile(&rng);
    std::string encoded;
    EncodeProfile(profile, &encoded);
    auto decoded = DecodeProfile(encoded);
    ASSERT_TRUE(decoded.ok()) << "iter " << iter << ": " << decoded.status();
    EXPECT_TRUE(ProfilesEqual(profile, *decoded)) << "iter " << iter;
    std::string re_encoded;
    EncodeProfile(*decoded, &re_encoded);
    EXPECT_EQ(encoded, re_encoded) << "iter " << iter;

    // The same bytes ride in a WAL Put record after its user id.
    std::string put;
    EncodeMutation(ProfileMutation::Put("u", profile), &put);
    EXPECT_EQ(put.substr(put.size() - encoded.size()), encoded);
  }
}

TEST(RecordFuzzTest, ProfileCodecRefusesDamagedBodies) {
  Rng rng(8080);
  for (int iter = 0; iter < 200; ++iter) {
    UserProfile profile = RandomStoredProfile(&rng);
    std::string encoded;
    EncodeProfile(profile, &encoded);
    for (size_t len = 0; len < encoded.size(); ++len) {
      auto decoded = DecodeProfile(std::string_view(encoded).substr(0, len));
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
          << "iter " << iter << ": truncation to " << len;
    }
    encoded.push_back(static_cast<char>(rng.Below(256)));
    EXPECT_EQ(DecodeProfile(encoded).status().code(), StatusCode::kParseError)
        << "iter " << iter << ": trailing byte";
  }
  std::string unknown_tag;
  PutFixed32(&unknown_tag, 1);
  unknown_tag.push_back(static_cast<char>(9));
  EXPECT_EQ(DecodeProfile(unknown_tag).status().code(),
            StatusCode::kParseError);
}

TEST(RecordFuzzTest, ProfileCodecRefusesWhatAddRefuses) {
  // Framing-valid bodies that no store writes: each must fail to decode
  // as loudly as a damaged one.
  auto body_of = [](const std::vector<AtomicPreference>& preferences) {
    std::string body;
    PutFixed32(&body, static_cast<uint32_t>(preferences.size()));
    for (const AtomicPreference& pref : preferences) {
      EncodePreference(pref, &body);
    }
    return body;
  };
  auto comedy = [](double doi) {
    return AtomicPreference::Selection({"GENRE", "genre"},
                                       Value::Str("comedy"), doi);
  };
  auto year = [](Value value) {
    return AtomicPreference::Selection({"MOVIE", "year"}, std::move(value),
                                       0.5);
  };
  auto near = [](Value target, double width) {
    return AtomicPreference::NearSelection({"MOVIE", "year"},
                                           std::move(target), width, 0.5);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const AtomicPreference join =
      AtomicPreference::Join({"PLAY", "mid"}, {"MOVIE", "mid"}, 1.0);
  QP_ASSERT_OK(DecodeProfile(body_of({comedy(0.9), join,
                                      near(Value::Real(1999.5), 5.0)}))
                   .status());

  const std::vector<std::pair<const char*, std::string>> refused = {
      {"duplicate", body_of({comedy(0.9), comedy(0.4)})},
      {"duplicate 2 vs 2.0", body_of({year(Value::Int(2)),
                                      year(Value::Real(2.0))})},
      {"duplicate join", body_of({join, join})},
      {"zero", body_of({comedy(0.0)})},
      {"above one", body_of({comedy(1.5)})},
      {"below minus one", body_of({comedy(-3.0)})},
      {"nan", body_of({comedy(kNaN)})},
      {"infinite", body_of({comedy(kInf)})},
      {"negative join", body_of({AtomicPreference::Join(
                            {"PLAY", "mid"}, {"MOVIE", "mid"}, -0.5)})},
      {"infinite literal", body_of({year(Value::Real(kInf))})},
      {"nan literal", body_of({year(Value::Real(kNaN))})},
      {"infinite near target", body_of({near(Value::Real(-kInf), 5.0)})},
      {"nan near target", body_of({near(Value::Real(kNaN), 5.0)})},
      {"infinite near width", body_of({near(Value::Int(2000), kInf)})},
      {"nan near width", body_of({near(Value::Int(2000), kNaN)})},
  };
  for (const auto& [what, body] : refused) {
    auto decoded = DecodeProfile(body);
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << what;
  }
}

TEST(RecordFuzzTest, EveryTruncationIsRejected) {
  Rng rng(4242);
  for (int iter = 0; iter < 200; ++iter) {
    ProfileMutation mutation = RandomMutation(&rng);
    std::string encoded;
    EncodeMutation(mutation, &encoded);
    for (size_t len = 0; len < encoded.size(); ++len) {
      auto decoded = DecodeMutation(std::string_view(encoded).substr(0, len));
      EXPECT_FALSE(decoded.ok())
          << "iter " << iter << ": truncation to " << len << " of "
          << encoded.size() << " bytes decoded";
    }
  }
}

TEST(RecordFuzzTest, TrailingGarbageIsRejected) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    ProfileMutation mutation = RandomMutation(&rng);
    std::string encoded;
    EncodeMutation(mutation, &encoded);
    encoded.push_back(static_cast<char>(rng.Below(256)));
    EXPECT_FALSE(DecodeMutation(encoded).ok()) << "iter " << iter;
  }
}

TEST(RecordFuzzTest, RandomBytesNeverCrashTheDecoder) {
  Rng rng(31337);
  int accepted = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    std::string bytes = RandomString(&rng, 64);
    auto decoded = DecodeMutation(bytes);  // Must not crash or hang.
    if (decoded.ok()) ++accepted;
  }
  // Random bytes occasionally form a tiny valid record (e.g. a Remove);
  // the point is that nothing blows up, so only sanity-bound the count.
  EXPECT_LT(accepted, 5000);
}

TEST(RecordFuzzTest, FramedRecordsRoundTripThroughTheWalReader) {
  // One level up from the mutation codec: random payloads framed by
  // EncodeWalRecord must come back bit-exactly from a WalReader, and a
  // single bit flip anywhere in the log must never be absorbed — it
  // either truncates the tail (torn) or fails the read (corruption),
  // but the reader never yields a record that was not written.
  Rng rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::string> payloads;
    std::string log;
    size_t count = 1 + rng.Below(8);
    for (size_t i = 0; i < count; ++i) {
      payloads.push_back(RandomString(&rng, 48));
      EncodeWalRecord(i + 1, payloads.back(), &log);
    }

    WalReader reader(log, 1);
    for (size_t i = 0; i < count; ++i) {
      WalRecord record;
      bool has_record = false;
      QP_ASSERT_OK(reader.Next(&record, &has_record));
      ASSERT_TRUE(has_record) << "iter " << iter << " record " << i;
      EXPECT_EQ(record.seqno, i + 1);
      EXPECT_EQ(record.payload, payloads[i]) << "iter " << iter;
    }
    WalRecord record;
    bool has_record = true;
    QP_ASSERT_OK(reader.Next(&record, &has_record));
    EXPECT_FALSE(has_record);
    EXPECT_EQ(reader.valid_bytes(), log.size());

    // Flip one random bit; count how many untouched records survive.
    size_t offset = rng.Below(log.size());
    std::string flipped = log;
    flipped[offset] =
        static_cast<char>(flipped[offset] ^ (1 << rng.Below(8)));
    WalReader damaged(flipped, 1);
    size_t seen = 0;
    for (;;) {
      WalRecord r;
      bool has = false;
      if (!damaged.Next(&r, &has).ok()) break;  // Corruption: clean stop.
      if (!has) break;                          // Torn/clean end.
      ASSERT_LT(seen, count);
      EXPECT_EQ(r.seqno, seen + 1);
      EXPECT_EQ(r.payload, payloads[seen]) << "iter " << iter;
      ++seen;
    }
  }
}

TEST(RecordFuzzTest, BitFlipsNeverCrashTheDecoder) {
  Rng rng(777);
  for (int iter = 0; iter < 1000; ++iter) {
    ProfileMutation mutation = RandomMutation(&rng);
    std::string encoded;
    EncodeMutation(mutation, &encoded);
    if (encoded.empty()) continue;
    size_t offset = rng.Below(encoded.size());
    encoded[offset] =
        static_cast<char>(encoded[offset] ^ (1 << rng.Below(8)));
    // A flipped degree bit yields a different-but-valid mutation; a
    // flipped length or tag must fail cleanly. Either way: no crash.
    DecodeMutation(encoded);
  }
}

TEST(RecordFuzzTest, BothDurableFormatsPreserveBitsOnlyTheDisplayRounds) {
  // A degree with more than six significant digits: the display
  // rendering (ToString, 6 significant digits) rounds it, but neither
  // the binary profile codec (WAL records and snapshot bodies) nor the
  // text profile format (UserProfile::Serialize, which renders degrees
  // with the round-trip formatter; the chaos suite caught the earlier
  // display rendering silently perturbing snapshotted degrees) may.
  const double doi = 0.123456789012345;
  UserProfile profile;
  QP_ASSERT_OK(profile.Add(AtomicPreference::Selection(
      AttributeRef{"GENRE", "genre"}, Value::Str("comedy"), doi)));

  ProfileMutation mutation = ProfileMutation::Put("julie", profile);
  std::string encoded;
  EncodeMutation(mutation, &encoded);
  auto decoded = DecodeMutation(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->profile.size(), 1u);
  EXPECT_EQ(decoded->profile.preferences()[0].doi(), doi);  // Bit-exact.

  auto reparsed = UserProfile::Parse(profile.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->preferences()[0].doi(), doi);  // Text is exact too.

  auto displayed = UserProfile::Parse(profile.preferences()[0].ToString());
  ASSERT_TRUE(displayed.ok());
  EXPECT_NE(displayed->preferences()[0].doi(), doi);  // Display rounds.
}

TEST(RecordFuzzTest, TextFormatRoundTripsOnTheBenchmarkGrid) {
  // The text profile format (qpshell's profile files, profile_inspector)
  // reproduces every profile a store accepts, literal types included:
  // RandomValue's ints and doubles at full range, negatives, integral
  // doubles and -0.0, with degrees on a dyadic grid and at full
  // precision.
  const std::vector<Value> edges = {
      Value::Int(-5),
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Real(7.0),
      Value::Real(-7.0),
      Value::Real(-0.0),
      Value::Real(0.0),
      Value::Real(1e300),
      Value::Real(-std::numeric_limits<double>::denorm_min())};
  Rng rng(5);
  for (int iter = 0; iter < 200; ++iter) {
    UserProfile profile;
    QP_ASSERT_OK(profile.Add(AtomicPreference::Selection(
        AttributeRef{"GENRE", "genre"}, Value::Str("g" + std::to_string(iter)),
        static_cast<double>(1 + rng.Below(16)) / 16.0)));
    QP_ASSERT_OK(profile.Add(AtomicPreference::Join(
        AttributeRef{"PLAY", "mid"}, AttributeRef{"MOVIE", "mid"},
        static_cast<double>(1 + rng.Below(16)) / 16.0)));
    for (int i = 0; i < 6; ++i) {
      Value number = RandomValue(&rng);
      if (number.type() != DataType::kInt64 &&
          number.type() != DataType::kDouble) {
        number = edges[rng.Below(edges.size())];
      }
      if (number.type() == DataType::kDouble && rng.Below(3) == 0) {
        number = Value::Real(std::trunc(std::fmod(number.as_double(), 1e6)));
      }
      const AttributeRef attr{"T", "c" + std::to_string(i)};
      const double doi = RandomStoredDegree(&rng, false);
      AtomicPreference pref =
          i % 3 == 2 ? AtomicPreference::NearSelection(
                           attr, number, std::fabs(RandomDouble(&rng)), doi)
                     : AtomicPreference::Selection(attr, number, doi);
      QP_ASSERT_OK(profile.Add(std::move(pref)));
    }
    auto reparsed = UserProfile::Parse(profile.Serialize());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n"
                               << profile.Serialize();
    EXPECT_TRUE(ProfilesEqual(profile, *reparsed))
        << "iter " << iter << "\n"
        << profile.Serialize();
  }
}

}  // namespace
}  // namespace storage
}  // namespace qp
