#include "qp/relational/value.h"

#include <cassert>
#include <functional>

#include "qp/util/string_util.h"

namespace qp {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

DataType Value::type() const {
  switch (rep_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kInt64;
    case 2:
      return DataType::kDouble;
    default:
      return DataType::kString;
  }
}

int64_t Value::as_int() const {
  assert(std::holds_alternative<int64_t>(rep_));
  return std::get<int64_t>(rep_);
}

double Value::as_double() const {
  assert(std::holds_alternative<double>(rep_));
  return std::get<double>(rep_);
}

const std::string& Value::as_string() const {
  assert(std::holds_alternative<std::string>(rep_));
  return std::get<std::string>(rep_);
}

double Value::AsNumeric() const {
  if (std::holds_alternative<int64_t>(rep_)) {
    return static_cast<double>(std::get<int64_t>(rep_));
  }
  assert(std::holds_alternative<double>(rep_));
  return std::get<double>(rep_);
}

size_t Value::Hash() const {
  switch (rep_.index()) {
    case 0:
      return 0x9b3f1d2cULL;
    case 1: {
      // Hash ints through double when the value is exactly representable,
      // so 2 and 2.0 (which compare equal) hash alike. The range check
      // keeps the cast back defined: INT64_MAX rounds to 2^63, which no
      // int64 holds.
      int64_t v = std::get<int64_t>(rep_);
      double d = static_cast<double>(v);
      if (d < 0x1p63 && static_cast<int64_t>(d) == v) {
        return std::hash<double>{}(d);
      }
      return std::hash<int64_t>{}(v);
    }
    case 2:
      return std::hash<double>{}(std::get<double>(rep_));
    default:
      return std::hash<std::string>{}(std::get<std::string>(rep_));
  }
}

std::string Value::ToString() const {
  switch (rep_.index()) {
    case 0:
      return "NULL";
    case 1:
      return std::to_string(std::get<int64_t>(rep_));
    case 2:
      return FormatDouble(std::get<double>(rep_));
    default:
      return "'" + std::get<std::string>(rep_) + "'";
  }
}

std::string Value::ToSqlLiteral() const {
  if (std::holds_alternative<std::string>(rep_)) {
    std::string out = "'";
    for (char c : std::get<std::string>(rep_)) {
      if (c == '\'') out += "''";
      else out += c;
    }
    out += "'";
    return out;
  }
  return ToString();
}

bool operator==(const Value& a, const Value& b) {
  if (a.rep_.index() == b.rep_.index()) return a.rep_ == b.rep_;
  // Cross-type numeric comparison.
  bool a_num = std::holds_alternative<int64_t>(a.rep_) ||
               std::holds_alternative<double>(a.rep_);
  bool b_num = std::holds_alternative<int64_t>(b.rep_) ||
               std::holds_alternative<double>(b.rep_);
  if (a_num && b_num) return a.AsNumeric() == b.AsNumeric();
  return false;
}

bool operator<(const Value& a, const Value& b) {
  // Total order for ORDER BY / sorting: NULL < numbers < strings.
  auto rank = [](const Value& v) {
    switch (v.rep_.index()) {
      case 0:
        return 0;
      case 1:
      case 2:
        return 1;
      default:
        return 2;
    }
  };
  int ra = rank(a);
  int rb = rank(b);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;  // NULL == NULL for ordering purposes.
  if (ra == 1) return a.AsNumeric() < b.AsNumeric();
  return a.as_string() < b.as_string();
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace qp
