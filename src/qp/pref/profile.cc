#include "qp/pref/profile.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "qp/pref/doi.h"
#include "qp/query/sql_lexer.h"
#include "qp/util/string_util.h"

namespace qp {

namespace {

/// The number rules of a stored preference, which Add and Validate both
/// enforce: its degree is in [-1, 1] (so not NaN), not zero, and not
/// negative on a join; a DOUBLE literal or near target, and a near width,
/// is finite. The text format has no spelling for an infinity or a NaN,
/// and a NaN literal never equals itself, so SameCondition could not
/// find it again.
Status CheckNumbers(const AtomicPreference& preference) {
  if (!IsValidSignedDoi(preference.doi())) {
    return Status::InvalidArgument("degree of interest out of [-1, 1]: " +
                                   std::to_string(preference.doi()));
  }
  if (preference.doi() == 0.0) {
    return Status::InvalidArgument(
        "zero-valued preferences are not stored: " + preference.ToString());
  }
  if (preference.is_join() && preference.doi() < 0.0) {
    return Status::InvalidArgument(
        "join preferences are structural and cannot be negative: " +
        preference.ToString());
  }
  if (!preference.is_join() &&
      preference.value().type() == DataType::kDouble &&
      !std::isfinite(preference.value().as_double())) {
    return Status::InvalidArgument("literal is not finite: " +
                                   preference.ToString());
  }
  if (preference.is_near() && !std::isfinite(preference.width())) {
    return Status::InvalidArgument("near width is not finite: " +
                                   preference.ToString());
  }
  return Status::Ok();
}

}  // namespace

size_t UserProfile::FindCondition(const AtomicPreference& preference,
                                  size_t hash) const {
  for (size_t i = 0; i < hashes_.size(); ++i) {
    if (hashes_[i] == hash && preferences_[i].SameCondition(preference)) {
      return i;
    }
  }
  return kNotFound;
}

Status UserProfile::Add(AtomicPreference preference) {
  QP_RETURN_IF_ERROR(CheckNumbers(preference));
  const size_t hash = preference.ConditionHash();
  if (FindCondition(preference, hash) != kNotFound) {
    return Status::AlreadyExists("preference already stored: " +
                                 preference.ConditionString());
  }
  preferences_.push_back(std::move(preference));
  hashes_.push_back(hash);
  return Status::Ok();
}

void UserProfile::AddOrUpdate(AtomicPreference preference) {
  const size_t hash = preference.ConditionHash();
  if (size_t i = FindCondition(preference, hash); i != kNotFound) {
    preferences_[i] = std::move(preference);
    return;
  }
  preferences_.push_back(std::move(preference));
  hashes_.push_back(hash);
}

size_t UserProfile::NumSelections() const {
  size_t n = 0;
  for (const auto& p : preferences_) {
    if (p.is_selection()) ++n;
  }
  return n;
}

size_t UserProfile::NumJoins() const {
  return preferences_.size() - NumSelections();
}

const AtomicPreference* UserProfile::FindJoin(const AttributeRef& from,
                                              const AttributeRef& to) const {
  for (const auto& p : preferences_) {
    if (p.is_join() && p.attribute() == from && p.target() == to) return &p;
  }
  return nullptr;
}

const AtomicPreference* UserProfile::FindSelection(const AttributeRef& attr,
                                                   const Value& value) const {
  for (const auto& p : preferences_) {
    if (p.is_selection() && p.attribute() == attr && p.value() == value) {
      return &p;
    }
  }
  return nullptr;
}

Result<ResolvedPreference> ResolvePreference(const Schema& schema,
                                             const AtomicPreference& p) {
  QP_RETURN_IF_ERROR(CheckNumbers(p));
  ResolvedPreference resolved;
  if (p.is_join()) {
    Result<AttributeId> from = schema.ResolveAttribute(p.attribute());
    if (!from.ok()) {
      return Status::NotFound("unknown attribute in preference: " +
                              p.attribute().ToString());
    }
    Result<AttributeId> to = schema.ResolveAttribute(p.target());
    if (!to.ok()) {
      return Status::NotFound("unknown attribute in preference: " +
                              p.target().ToString());
    }
    std::optional<JoinId> join = schema.FindJoinId(*from, *to);
    if (!join.has_value()) {
      return Status::InvalidArgument(
          "join preference does not match any declared schema join: " +
          p.ToString());
    }
    resolved.attribute = *from;
    resolved.join = *join;
    resolved.target_table = to->table;
    return resolved;
  }
  QP_ASSIGN_OR_RETURN(resolved.attribute,
                      schema.ResolveAttribute(p.attribute()));
  const DataType type =
      schema.tables()[resolved.attribute.table]
          .column(resolved.attribute.column)
          .type;
  if (p.is_near()) {
    if (type != DataType::kInt64 && type != DataType::kDouble) {
      return Status::InvalidArgument(
          "near preference requires a numeric attribute: " + p.ToString());
    }
    if (p.value().type() != DataType::kInt64 &&
        p.value().type() != DataType::kDouble) {
      return Status::InvalidArgument(
          "near preference requires a numeric target: " + p.ToString());
    }
    if (!(p.width() > 0.0)) {
      return Status::InvalidArgument(
          "near preference requires a positive width: " + p.ToString());
    }
  } else if (!p.value().is_null() && p.value().type() != type) {
    return Status::InvalidArgument("selection preference type mismatch: " +
                                   p.ToString() + " (column is " +
                                   DataTypeName(type) + ")");
  }
  return resolved;
}

Status UserProfile::Validate(const Schema& schema) const {
  for (const auto& p : preferences_) {
    QP_RETURN_IF_ERROR(ResolvePreference(schema, p).status());
  }
  return Status::Ok();
}

std::string UserProfile::Serialize() const {
  std::string out;
  for (const auto& p : preferences_) {
    out += p.Serialize();
    out += "\n";
  }
  return out;
}

namespace {

/// Parses one profile entry from `tokens` starting at *pos:
///   '[' T '.' c '=' (T '.' c | literal) ',' NUMBER ']'
Result<AtomicPreference> ParseEntry(const std::vector<Token>& tokens,
                                    size_t* pos) {
  auto error = [&](const std::string& msg) {
    return Status::ParseError("profile: " + msg + " (near offset " +
                              std::to_string(tokens[*pos].offset) + ")");
  };
  auto expect_symbol = [&](std::string_view s) -> Status {
    if (!tokens[*pos].IsSymbol(s)) {
      return error("expected '" + std::string(s) + "', got '" +
                   tokens[*pos].text + "'");
    }
    ++*pos;
    return Status::Ok();
  };
  auto expect_ident = [&]() -> Result<std::string> {
    if (tokens[*pos].kind != TokenKind::kIdent) {
      return error("expected identifier, got '" + tokens[*pos].text + "'");
    }
    return tokens[(*pos)++].text;
  };

  // The lexer makes '-' a symbol, so a sign is its own token. It is
  // converted with the digits, which keeps INT64_MIN and -0.0 exact.
  auto signed_number = [&]() -> Result<std::string> {
    std::string text;
    if (tokens[*pos].IsSymbol("-")) {
      text = "-";
      ++*pos;
    }
    if (tokens[*pos].kind != TokenKind::kNumber) {
      return error("expected number, got '" + tokens[*pos].text + "'");
    }
    text += tokens[(*pos)++].text;
    return text;
  };
  // A literal is a double when written with a point, else an int64.
  auto parse_literal = [&]() -> Result<Value> {
    QP_ASSIGN_OR_RETURN(std::string text, signed_number());
    if (text.find('.') != std::string::npos) {
      return Value::Real(std::strtod(text.c_str(), nullptr));
    }
    errno = 0;
    const long long v = std::strtoll(text.c_str(), nullptr, 10);
    if (errno == ERANGE) return error("integer out of range: " + text);
    return Value::Int(v);
  };
  // Widths and degrees are doubles however they are written.
  auto parse_real = [&]() -> Result<double> {
    QP_ASSIGN_OR_RETURN(std::string text, signed_number());
    return std::strtod(text.c_str(), nullptr);
  };

  QP_RETURN_IF_ERROR(expect_symbol("["));
  // Soft preference entry: [ near(T.c, target, width), doi ].
  if (tokens[*pos].IsKeyword("near") && tokens[*pos + 1].IsSymbol("(")) {
    *pos += 2;
    QP_ASSIGN_OR_RETURN(std::string table, expect_ident());
    QP_RETURN_IF_ERROR(expect_symbol("."));
    QP_ASSIGN_OR_RETURN(std::string column, expect_ident());
    QP_RETURN_IF_ERROR(expect_symbol(","));
    QP_ASSIGN_OR_RETURN(Value target, parse_literal());
    QP_RETURN_IF_ERROR(expect_symbol(","));
    QP_ASSIGN_OR_RETURN(double width, parse_real());
    QP_RETURN_IF_ERROR(expect_symbol(")"));
    QP_RETURN_IF_ERROR(expect_symbol(","));
    QP_ASSIGN_OR_RETURN(double doi, parse_real());
    QP_RETURN_IF_ERROR(expect_symbol("]"));
    return AtomicPreference::NearSelection(
        {std::move(table), std::move(column)}, std::move(target), width,
        doi);
  }

  QP_ASSIGN_OR_RETURN(std::string table, expect_ident());
  QP_RETURN_IF_ERROR(expect_symbol("."));
  QP_ASSIGN_OR_RETURN(std::string column, expect_ident());
  QP_RETURN_IF_ERROR(expect_symbol("="));

  AttributeRef left{std::move(table), std::move(column)};
  bool is_join = tokens[*pos].kind == TokenKind::kIdent;
  AttributeRef right;
  Value value;
  if (is_join) {
    QP_ASSIGN_OR_RETURN(right.table, expect_ident());
    QP_RETURN_IF_ERROR(expect_symbol("."));
    QP_ASSIGN_OR_RETURN(right.column, expect_ident());
  } else if (tokens[*pos].kind == TokenKind::kString) {
    value = Value::Str(tokens[(*pos)++].text);
  } else if (tokens[*pos].kind == TokenKind::kNumber ||
             tokens[*pos].IsSymbol("-")) {
    QP_ASSIGN_OR_RETURN(value, parse_literal());
  } else {
    return error("expected attribute or literal after '='");
  }

  QP_RETURN_IF_ERROR(expect_symbol(","));
  if (!tokens[*pos].IsSymbol("-") &&
      tokens[*pos].kind != TokenKind::kNumber) {
    return error("expected degree of interest, got '" + tokens[*pos].text +
                 "'");
  }
  QP_ASSIGN_OR_RETURN(double doi, parse_real());
  QP_RETURN_IF_ERROR(expect_symbol("]"));

  if (is_join) {
    return AtomicPreference::Join(std::move(left), std::move(right), doi);
  }
  return AtomicPreference::Selection(std::move(left), std::move(value), doi);
}

}  // namespace

Result<UserProfile> UserProfile::Parse(std::string_view text) {
  // Strip comment lines before tokenizing.
  std::string filtered;
  for (const std::string& line : Split(text, '\n')) {
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    filtered.append(stripped);
    filtered.push_back('\n');
  }
  QP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(filtered));

  UserProfile profile;
  size_t pos = 0;
  while (tokens[pos].kind != TokenKind::kEnd) {
    QP_ASSIGN_OR_RETURN(AtomicPreference pref, ParseEntry(tokens, &pos));
    QP_RETURN_IF_ERROR(profile.Add(std::move(pref)));
  }
  return profile;
}

}  // namespace qp
