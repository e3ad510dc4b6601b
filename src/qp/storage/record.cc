#include "qp/storage/record.h"

#include <utility>

#include "qp/storage/coding.h"

namespace qp {
namespace storage {
namespace {

// Preference wire tags. Append-only: new kinds get new tags, existing
// tags never change meaning (old logs must stay replayable).
constexpr uint8_t kPrefSelection = 1;
constexpr uint8_t kPrefJoin = 2;
constexpr uint8_t kPrefNear = 3;

constexpr uint8_t kValueNull = 0;
constexpr uint8_t kValueInt = 1;
constexpr uint8_t kValueDouble = 2;
constexpr uint8_t kValueString = 3;

void EncodeAttribute(const AttributeRef& attr, std::string* dst) {
  PutLengthPrefixed(dst, attr.table);
  PutLengthPrefixed(dst, attr.column);
}

void EncodeValue(const Value& value, std::string* dst) {
  switch (value.type()) {
    case DataType::kNull:
      dst->push_back(static_cast<char>(kValueNull));
      break;
    case DataType::kInt64:
      dst->push_back(static_cast<char>(kValueInt));
      PutFixed64(dst, static_cast<uint64_t>(value.as_int()));
      break;
    case DataType::kDouble:
      dst->push_back(static_cast<char>(kValueDouble));
      PutDouble(dst, value.as_double());
      break;
    case DataType::kString:
      dst->push_back(static_cast<char>(kValueString));
      PutLengthPrefixed(dst, value.as_string());
      break;
  }
}

bool DecodeAttribute(Decoder* in, AttributeRef* attr) {
  std::string_view table, column;
  if (!in->GetLengthPrefixed(&table)) return false;
  if (!in->GetLengthPrefixed(&column)) return false;
  attr->table = std::string(table);
  attr->column = std::string(column);
  return true;
}

bool DecodeValue(Decoder* in, Value* value) {
  uint8_t tag;
  if (!in->GetByte(&tag)) return false;
  switch (tag) {
    case kValueNull:
      *value = Value::Null();
      return true;
    case kValueInt: {
      uint64_t bits;
      if (!in->GetFixed64(&bits)) return false;
      *value = Value::Int(static_cast<int64_t>(bits));
      return true;
    }
    case kValueDouble: {
      double d;
      if (!in->GetDouble(&d)) return false;
      *value = Value::Real(d);
      return true;
    }
    case kValueString: {
      std::string_view s;
      if (!in->GetLengthPrefixed(&s)) return false;
      *value = Value::Str(std::string(s));
      return true;
    }
    default:
      return false;
  }
}

bool DecodePreference(Decoder* in, std::vector<AtomicPreference>* out) {
  uint8_t tag;
  if (!in->GetByte(&tag)) return false;
  AttributeRef attr;
  if (!DecodeAttribute(in, &attr)) return false;
  switch (tag) {
    case kPrefSelection: {
      Value value;
      double doi;
      if (!DecodeValue(in, &value) || !in->GetDouble(&doi)) return false;
      out->push_back(AtomicPreference::Selection(std::move(attr),
                                                 std::move(value), doi));
      return true;
    }
    case kPrefJoin: {
      AttributeRef target;
      double doi;
      if (!DecodeAttribute(in, &target) || !in->GetDouble(&doi)) return false;
      out->push_back(
          AtomicPreference::Join(std::move(attr), std::move(target), doi));
      return true;
    }
    case kPrefNear: {
      Value target;
      double width, doi;
      if (!DecodeValue(in, &target) || !in->GetDouble(&width) ||
          !in->GetDouble(&doi)) {
        return false;
      }
      out->push_back(AtomicPreference::NearSelection(
          std::move(attr), std::move(target), width, doi));
      return true;
    }
    default:
      return false;
  }
}

void EncodePreferences(const std::vector<AtomicPreference>& preferences,
                       std::string* dst) {
  PutFixed32(dst, static_cast<uint32_t>(preferences.size()));
  for (const AtomicPreference& pref : preferences) {
    EncodePreference(pref, dst);
  }
}

bool DecodePreferences(Decoder* in, std::vector<AtomicPreference>* out) {
  uint32_t count;
  if (!in->GetFixed32(&count)) return false;
  // Each preference needs at least its tag byte; an insane count is a
  // framing error, not a reason to try a multi-gigabyte reserve.
  if (count > in->remaining()) return false;
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!DecodePreference(in, out)) return false;
  }
  return true;
}

}  // namespace

ProfileMutation ProfileMutation::Put(std::string user_id,
                                     UserProfile profile) {
  ProfileMutation m;
  m.kind = Kind::kPut;
  m.user_id = std::move(user_id);
  m.profile = std::move(profile);
  return m;
}

ProfileMutation ProfileMutation::Upsert(
    std::string user_id, std::vector<AtomicPreference> preferences) {
  ProfileMutation m;
  m.kind = Kind::kUpsert;
  m.user_id = std::move(user_id);
  m.preferences = std::move(preferences);
  return m;
}

ProfileMutation ProfileMutation::Remove(std::string user_id) {
  ProfileMutation m;
  m.kind = Kind::kRemove;
  m.user_id = std::move(user_id);
  return m;
}

void Replay(ProfileMutation* mutation, std::optional<UserProfile>* profile) {
  switch (mutation->kind) {
    case ProfileMutation::Kind::kPut:
      *profile = std::move(mutation->profile);
      return;
    case ProfileMutation::Kind::kUpsert:
      if (!profile->has_value()) profile->emplace();
      for (const AtomicPreference& preference : mutation->preferences) {
        (*profile)->AddOrUpdate(preference);
      }
      return;
    case ProfileMutation::Kind::kRemove:
      profile->reset();
      return;
  }
}

void EncodePreference(const AtomicPreference& preference, std::string* dst) {
  switch (preference.kind()) {
    case AtomicPreference::Kind::kSelection:
      dst->push_back(static_cast<char>(kPrefSelection));
      EncodeAttribute(preference.attribute(), dst);
      EncodeValue(preference.value(), dst);
      PutDouble(dst, preference.doi());
      break;
    case AtomicPreference::Kind::kJoin:
      dst->push_back(static_cast<char>(kPrefJoin));
      EncodeAttribute(preference.attribute(), dst);
      EncodeAttribute(preference.target(), dst);
      PutDouble(dst, preference.doi());
      break;
    case AtomicPreference::Kind::kNear:
      dst->push_back(static_cast<char>(kPrefNear));
      EncodeAttribute(preference.attribute(), dst);
      EncodeValue(preference.value(), dst);
      PutDouble(dst, preference.width());
      PutDouble(dst, preference.doi());
      break;
  }
}

void EncodeProfile(const UserProfile& profile, std::string* dst) {
  EncodePreferences(profile.preferences(), dst);
}

Result<UserProfile> DecodeProfile(std::string_view data) {
  Decoder in(data);
  std::vector<AtomicPreference> preferences;
  if (!DecodePreferences(&in, &preferences) || !in.empty()) {
    return Status::ParseError("corrupt profile body");
  }
  UserProfile profile;
  for (AtomicPreference& preference : preferences) {
    if (Status status = profile.Add(std::move(preference)); !status.ok()) {
      return Status::ParseError("corrupt profile body: " + status.message());
    }
  }
  return profile;
}

void EncodeMutation(const ProfileMutation& mutation, std::string* dst) {
  dst->push_back(static_cast<char>(mutation.kind));
  PutLengthPrefixed(dst, mutation.user_id);
  switch (mutation.kind) {
    case ProfileMutation::Kind::kPut:
      EncodeProfile(mutation.profile, dst);
      break;
    case ProfileMutation::Kind::kUpsert:
      EncodePreferences(mutation.preferences, dst);
      break;
    case ProfileMutation::Kind::kRemove:
      break;
  }
}

Result<ProfileMutation> DecodeMutation(std::string_view data) {
  Decoder in(data);
  auto corrupt = [] {
    return Status::ParseError("corrupt profile mutation record");
  };

  uint8_t kind_byte;
  std::string_view user;
  if (!in.GetByte(&kind_byte) || !in.GetLengthPrefixed(&user)) {
    return corrupt();
  }

  ProfileMutation mutation;
  mutation.user_id = std::string(user);
  switch (kind_byte) {
    case static_cast<uint8_t>(ProfileMutation::Kind::kPut): {
      mutation.kind = ProfileMutation::Kind::kPut;
      std::vector<AtomicPreference> prefs;
      if (!DecodePreferences(&in, &prefs)) return corrupt();
      for (AtomicPreference& pref : prefs) {
        mutation.profile.AddOrUpdate(std::move(pref));
      }
      break;
    }
    case static_cast<uint8_t>(ProfileMutation::Kind::kUpsert): {
      mutation.kind = ProfileMutation::Kind::kUpsert;
      if (!DecodePreferences(&in, &mutation.preferences)) return corrupt();
      break;
    }
    case static_cast<uint8_t>(ProfileMutation::Kind::kRemove):
      mutation.kind = ProfileMutation::Kind::kRemove;
      break;
    default:
      return corrupt();
  }
  if (!in.empty()) return corrupt();
  return mutation;
}

bool PreferencesEqual(const AtomicPreference& a, const AtomicPreference& b) {
  if (a.kind() != b.kind()) return false;
  // SameCondition lets Int(7) equal Real(7.0); a stored literal must
  // come back with its type.
  if (!a.is_join() && a.value().type() != b.value().type()) return false;
  if (!a.SameCondition(b)) return false;
  if (a.doi() != b.doi()) return false;
  if (a.is_near() && a.width() != b.width()) return false;
  return true;
}

bool ProfilesEqual(const UserProfile& a, const UserProfile& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.preferences().size(); ++i) {
    if (!PreferencesEqual(a.preferences()[i], b.preferences()[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace storage
}  // namespace qp
