// Minimal JSON document model and recursive-descent parser, for the
// tooling side of the observability layer: `mpa_cli report` reads run
// manifests back, `mpa_cli trace summarize` reads span/Chrome trace
// files, and the tests validate every JSON export structurally.
//
// Scope is deliberately small: parse a complete UTF-8 document into an
// immutable DOM (objects are key-ordered maps, duplicate keys keep the
// last value). Document layout stays with each producer — exports are
// hand-written streams so their field order is part of the contract —
// but every JSON export encodes its strings with json_escape() and its
// doubles with json_number(), so all of them agree on outside input.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mpa {

class JsonValue {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors throw DataError when the value has another type.
  bool as_bool() const;
  double as_number() const;
  /// The number's source text parsed as u64 — exact for integer fields
  /// (seeds, nanosecond timestamps) that a double would round. Only
  /// plain digits within uint64_t are accepted: a sign, fraction,
  /// exponent or out-of-range value throws DataError.
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Object member that must exist (throws DataError otherwise).
  const JsonValue& at(const std::string& key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string text_;  ///< String payload, or a number's source text.
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Deepest array/object nesting parse_json accepts. The parser
/// recurses once per level, so an unbounded depth would let outside
/// input overflow the stack; the repo's own documents nest fewer than
/// 6 levels.
inline constexpr int kMaxJsonDepth = 256;

/// Parse one complete JSON document; throws DataError with a byte
/// offset on malformed input, trailing garbage, or nesting deeper than
/// kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

/// Escape `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters).
std::string json_escape(std::string_view s);

/// A double as a JSON number token: `%.12g`, with a non-finite value
/// written as `0` so the output always parses. The Prometheus writers
/// use it for sample values too.
std::string json_number(double v);

}  // namespace mpa
