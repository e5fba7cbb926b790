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

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/number.hpp"

namespace mpa {

class JsonValue {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors throw DataError when the value has another type.
  bool as_bool() const;
  double as_number() const;
  /// The number as an integer T, exactly, or DataError: a uint64_t
  /// from its source text by the integer rule (util/number.hpp), so
  /// "1e3", "1.5" and "-0" are refused; an int or uint32_t, which a
  /// double holds exactly, as a whole value within T (5.0 reads as 5).
  template <std::integral T>
  T as_integer() const;
  std::uint64_t as_u64() const { return as_integer<std::uint64_t>(); }
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Object member that must exist (throws DataError otherwise).
  const JsonValue& at(const std::string& key) const;

 private:
  friend class JsonParser;
  friend class JsonFields;

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

/// The members of one JSON object, read for a named source ("request",
/// "run manifest"): each DataError names the source and the member, as
/// in "run manifest: threads: number 4294967297 is not an integer in
/// [-2147483648, 2147483647]".
class JsonFields {
 public:
  JsonFields(const JsonValue& obj, std::string_view source) : obj_(obj), source_(source) {}

  /// Member `key` as a T: std::string, double, or an integer read by
  /// JsonValue::as_integer. Absent or mistyped is a DataError; the
  /// second form returns `fallback` when the member is absent.
  template <typename T>
  T get(const std::string& key) const {
    const JsonValue* v = obj_.find(key);
    if (v == nullptr) throw error(key, "json: missing");
    return read<T>(*v, key);
  }
  template <typename T>
  T get(const std::string& key, T fallback) const {
    const JsonValue* v = obj_.find(key);
    return v == nullptr ? fallback : read<T>(*v, key);
  }
  /// Member `key`, a number, times `scale` rounded to the nearest T
  /// (µs -> ns); a product outside T is a DataError.
  template <std::integral T>
  T scaled(const std::string& key, double scale) const {
    if (const std::optional<T> v = mpa::scaled<T>(get<double>(key), scale)) return *v;
    throw error(key, "json: number " + obj_.find(key)->text_ + " scaled by " +
                         json_number(scale) + " is outside " + range_text<T>());
  }

 private:
  template <typename T>
  T read(const JsonValue& v, const std::string& key) const {
    try {
      if constexpr (std::same_as<T, std::string>) return v.as_string();
      else if constexpr (std::same_as<T, double>) return v.as_number();
      else return v.as_integer<T>();
    } catch (const DataError& e) {
      throw error(key, e.what());
    }
  }
  /// `why`, a "json: <reason>" message, naming the source and member.
  DataError error(const std::string& key, std::string_view why) const {
    return DataError(std::string(source_) + ": " + key + std::string(why.substr(4)));
  }

  const JsonValue& obj_;
  std::string_view source_;
};

}  // namespace mpa
