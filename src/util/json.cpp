#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

namespace mpa {
namespace {

std::string type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return "bool";
    case JsonValue::Type::kNumber: return "number";
    case JsonValue::Type::kString: return "string";
    case JsonValue::Type::kArray: return "array";
    case JsonValue::Type::kObject: return "object";
  }
  return "?";
}

void expect_type(const JsonValue& v, JsonValue::Type want) {
  if (v.type() != want)
    throw DataError("json: expected " + type_name(want) + ", got " + type_name(v.type()));
}

}  // namespace

bool JsonValue::as_bool() const {
  expect_type(*this, Type::kBool);
  return bool_;
}

double JsonValue::as_number() const {
  expect_type(*this, Type::kNumber);
  return num_;
}

template <std::integral T>
T JsonValue::as_integer() const {
  expect_type(*this, Type::kNumber);
  if constexpr (std::numeric_limits<T>::digits > std::numeric_limits<double>::digits) {
    if (const std::optional<T> v = parse_whole<T>(text_)) return *v;
  } else if (std::trunc(num_) == num_) {
    if (const std::optional<T> v = scaled<T>(num_, 1.0)) return *v;
  }
  throw DataError("json: number " + text_ + " is not an integer in " + range_text<T>());
}

template int JsonValue::as_integer<int>() const;
template std::uint32_t JsonValue::as_integer<std::uint32_t>() const;
template std::uint64_t JsonValue::as_integer<std::uint64_t>() const;

const std::string& JsonValue::as_string() const {
  expect_type(*this, Type::kString);
  return text_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  expect_type(*this, Type::kArray);
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  expect_type(*this, Type::kObject);
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw DataError("json: missing key '" + key + "'");
  return *v;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw DataError("json: " + why + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void consume(char want) {
    if (peek() != want) fail(std::string("expected '") + want + "'");
    ++pos_;
  }

  bool try_consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxJsonDepth)
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return parse_string_value();
    if (try_consume("true")) {
      JsonValue v;
      v.type_ = JsonValue::Type::kBool;
      v.bool_ = true;
      return v;
    }
    if (try_consume("false")) {
      JsonValue v;
      v.type_ = JsonValue::Type::kBool;
      return v;
    }
    if (try_consume("null")) return JsonValue();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  JsonValue parse_object() {
    consume('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      consume(':');
      v.object_[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      consume('}');
      return v;
    }
  }

  JsonValue parse_array() {
    consume('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      consume(']');
      return v;
    }
  }

  JsonValue parse_string_value() {
    JsonValue v;
    v.type_ = JsonValue::Type::kString;
    v.text_ = parse_string();
    return v;
  }

  std::string parse_string() {
    consume('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are out of
          // scope for our exports; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.text_ = std::string(text_.substr(start, pos_ - start));
    // The number rule: a token that is not a finite double (1e999,
    // -1e999, the underflow 1e-400) is refused, not read as inf or 0.
    const std::optional<double> num = parse_whole<double>(v.text_);
    if (!num) fail("number " + v.text_ + " is not a finite double");
    v.num_ = *num;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< Open arrays/objects around the current value.
};

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace mpa
