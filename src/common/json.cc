#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cfloat>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "common/string_util.h"

namespace mlake {

bool Json::AsBool() const {
  MLAKE_CHECK(is_bool()) << "Json::AsBool on " << static_cast<int>(type_);
  return bool_;
}

double Json::AsDouble() const {
  MLAKE_CHECK(is_number()) << "Json::AsDouble on non-number";
  return number_;
}

int64_t Json::AsInt64() const {
  MLAKE_CHECK(is_number()) << "Json::AsInt64 on non-number";
  return static_cast<int64_t>(std::llround(number_));
}

const std::string& Json::AsString() const {
  MLAKE_CHECK(is_string()) << "Json::AsString on non-string";
  return string_;
}

const Json::Array& Json::AsArray() const {
  MLAKE_CHECK(is_array()) << "Json::AsArray on non-array";
  return array_;
}

Json::Array& Json::AsArray() {
  MLAKE_CHECK(is_array()) << "Json::AsArray on non-array";
  return array_;
}

const Json::Object& Json::AsObject() const {
  MLAKE_CHECK(is_object()) << "Json::AsObject on non-object";
  return object_;
}

Json::Object& Json::AsObject() {
  MLAKE_CHECK(is_object()) << "Json::AsObject on non-object";
  return object_;
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::Set(std::string_view key, Json value) {
  if (is_null()) type_ = Type::kObject;
  MLAKE_CHECK(is_object()) << "Json::Set on non-object";
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
  return *this;
}

std::string Json::GetString(std::string_view key, std::string fallback) const {
  const Json* v = Find(key);
  if (v == nullptr || !v->is_string()) return fallback;
  return v->string_;
}

double Json::GetDouble(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  return v->number_;
}

int64_t Json::GetInt64(std::string_view key, int64_t fallback) const {
  const Json* v = Find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  return v->AsInt64();
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json* v = Find(key);
  if (v == nullptr || !v->is_bool()) return fallback;
  return v->bool_;
}

Json& Json::Append(Json value) {
  if (is_null()) type_ = Type::kArray;
  MLAKE_CHECK(is_array()) << "Json::Append on non-array";
  array_.push_back(std::move(value));
  return *this;
}

size_t Json::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  return 0;
}

namespace {

void EscapeStringTo(std::string* out, const std::string& s) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

/// Byte-identical to printf's "%lld" for exact integers below 2^53 and
/// "%.17g" otherwise: the standard specifies to_chars' general format
/// "as if by printf in the C locale", minus the locale.
void NumberTo(std::string* out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no NaN/Inf; serialize as null like most tolerant emitters.
    out->append("null");
    return;
  }
  char buf[32];
  std::to_chars_result r;
  double rounded = std::nearbyint(d);
  if (rounded == d && std::fabs(d) < 9.007199254740992e15) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general,
                      17);
  }
  out->append(buf, r.ptr);
}

/// strtod's value for a well-formed decimal that from_chars reports out
/// of range (it does so only when the correctly rounded result is 0 or
/// infinite): +-inf when the leading nonzero digit's decimal exponent is
/// positive (overflow needs >= 308), +-0 otherwise (underflow needs
/// <= -324). The exponent saturates, so no digit count overflows it.
double OutOfRangeValue(std::string_view token) {
  const bool negative = token.front() == '-';
  size_t i = negative ? 1 : 0;
  int64_t lead = 0;  // decimal exponent of the leading nonzero digit
  bool seen_nonzero = false;
  for (; i < token.size() && token[i] >= '0' && token[i] <= '9'; ++i) {
    if (seen_nonzero) {
      lead = std::min<int64_t>(lead + 1, 1'000'000'000);
    } else if (token[i] != '0') {
      seen_nonzero = true;
    }
  }
  if (i < token.size() && token[i] == '.') {
    for (++i; i < token.size() && token[i] >= '0' && token[i] <= '9'; ++i) {
      if (!seen_nonzero) {
        lead = std::max<int64_t>(lead - 1, -1'000'000'000);
        if (token[i] != '0') seen_nonzero = true;
      }
    }
  }
  int64_t exponent = 0;
  if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
    ++i;
    const bool negative_exponent = i < token.size() && token[i] == '-';
    if (i < token.size() && (token[i] == '-' || token[i] == '+')) ++i;
    for (; i < token.size(); ++i) {
      exponent = std::min<int64_t>(exponent * 10 + (token[i] - '0'),
                                   1'000'000'000);
    }
    if (negative_exponent) exponent = -exponent;
  }
  double magnitude = lead + exponent > 0 ? HUGE_VAL : 0.0;
  return negative ? -magnitude : magnitude;
}

void Indent(std::string* out, int indent, int depth) {
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      NumberTo(out, number_);
      return;
    case Type::kString:
      EscapeStringTo(out, string_);
      return;
    case Type::kArray: {
      if (array_.empty()) {
        out->append("[]");
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (indent > 0) Indent(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (indent > 0) Indent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out->append("{}");
        return;
      }
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (indent > 0) Indent(out, indent, depth + 1);
        EscapeStringTo(out, object_[i].first);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (indent > 0) Indent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    Json value;
    MLAKE_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status Error(const std::string& what) {
    return Status::Corruption(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        MLAKE_RETURN_NOT_OK(ParseString(&s));
        *out = Json(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", Json(true), out);
      case 'f':
        return ParseLiteral("false", Json(false), out);
      case 'n':
        return ParseLiteral("null", Json(nullptr), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view lit, Json value, Json* out) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return Error("invalid literal");
    }
    pos_ += lit.size();
    *out = std::move(value);
    return Status::OK();
  }

  /// Accepts exactly the tokens strtod accepts in full, with the same
  /// values, but without a per-number allocation or the locale.
  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("invalid value");
    std::string_view token = text_.substr(start, pos_ - start);
    // strtod takes one leading '+'; from_chars takes none.
    if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
      token.remove_prefix(1);
    }
    double d = 0.0;
    auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (end != token.data() + token.size()) return Error("invalid number");
    if (ec == std::errc::result_out_of_range) {
      d = OutOfRangeValue(token);
    } else if (ec != std::errc()) {
      return Error("invalid number");
    }
    *out = Json(d);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("bad hex digit in \\u escape");
              }
            }
            // UTF-8 encode (BMP only; surrogate pairs are passed through
            // as two separately-encoded code units, adequate for mlake's
            // ASCII-dominated metadata).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(Json* out, int depth) {
    Consume('[');
    *out = Json::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      Json element;
      MLAKE_RETURN_NOT_OK(ParseValue(&element, depth + 1));
      out->Append(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Status ParseObject(Json* out, int depth) {
    Consume('{');
    *out = Json::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      MLAKE_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      Json value;
      MLAKE_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Set(key, std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  Parser parser(text);
  return parser.ParseDocument();
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kNumber:
      return a.number_ == b.number_;
    case Json::Type::kString:
      return a.string_ == b.string_;
    case Json::Type::kArray:
      return a.array_ == b.array_;
    case Json::Type::kObject:
      return a.object_ == b.object_;
  }
  return false;
}

Json FloatsToJson(const std::vector<float>& vec) {
  Json arr = Json::MakeArray();
  for (float x : vec) arr.Append(Json(static_cast<double>(x)));
  return arr;
}

Result<std::vector<float>> FloatsFromJson(const Json& arr,
                                          std::string_view what,
                                          StatusCode code) {
  auto fail = [&](const char* why) {
    return Status(code, std::string(what) + " " + why);
  };
  if (!arr.is_array()) return fail("must be a float array");
  std::vector<float> out;
  out.reserve(arr.size());
  for (const Json& x : arr.AsArray()) {
    if (!x.is_number()) return fail("must hold numbers only");
    const double d = x.AsDouble();
    // Also false for NaN.
    if (!(std::fabs(d) <= static_cast<double>(FLT_MAX))) {
      return fail("holds a value outside float range");
    }
    out.push_back(static_cast<float>(d));
  }
  return out;
}

}  // namespace mlake
