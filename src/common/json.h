#ifndef MLAKE_COMMON_JSON_H_
#define MLAKE_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mlake {

/// A JSON document node.
///
/// Objects preserve insertion order (model cards render in a stable,
/// human-reviewable field order). Numbers are stored as double; integer
/// accessors round-trip values up to 2^53 exactly, which covers every
/// counter in mlake.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  /// Constructs null.
  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), number_(d) {}
  Json(int i) : type_(Type::kNumber), number_(i) {}
  Json(int64_t i) : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(uint64_t i) : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), string_(s) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}

  /// Factory helpers for composite construction.
  static Json MakeArray() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json MakeObject() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; aborts on type mismatch (programming error).
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt64() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  /// --- Object helpers ---

  /// Returns the member value, or nullptr when absent. Requires object.
  const Json* Find(std::string_view key) const;

  /// Sets (replacing any existing member with the same key). Requires
  /// object (a null value silently becomes an object for builder
  /// ergonomics).
  Json& Set(std::string_view key, Json value);

  /// Member presence.
  bool Contains(std::string_view key) const { return Find(key) != nullptr; }

  /// Typed lookups with defaults; tolerate absent members and wrong types.
  std::string GetString(std::string_view key, std::string fallback = "") const;
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  int64_t GetInt64(std::string_view key, int64_t fallback = 0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  /// --- Array helpers ---

  /// Appends. Requires array (a null value silently becomes an array).
  Json& Append(Json value);
  size_t size() const;

  /// Serializes. `indent` 0 produces compact output; > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

  /// Parses a JSON document. Returns Corruption on malformed input.
  static Result<Json> Parse(std::string_view text);

  /// Deep structural equality (number equality is exact).
  friend bool operator==(const Json& a, const Json& b);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// A float vector as a JSON number array. FloatsFromJson reads it back
/// bit-equal: every float widens to a double and narrows back without
/// loss, and Dump/Parse round-trip doubles exactly (17 significant
/// digits out, std::from_chars back).
Json FloatsToJson(const std::vector<float>& vec);

/// Reads a JSON number array back as floats. Every element must be a
/// finite number with |x| <= FLT_MAX: narrowing a larger double is
/// undefined behaviour, and an inf (what the parser makes of `1e400`)
/// would poison every distance it touches. Errors carry `code` and name
/// `what` — InvalidArgument for request bodies, Corruption for stored
/// or replicated bytes.
Result<std::vector<float>> FloatsFromJson(
    const Json& arr, std::string_view what,
    StatusCode code = StatusCode::kInvalidArgument);

}  // namespace mlake

#endif  // MLAKE_COMMON_JSON_H_
