#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "util/error.hpp"

namespace mpa {

std::vector<std::string_view> split_views(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  out.reserve(static_cast<std::size_t>(std::count(s.begin(), s.end(), sep)) + 1);
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_line_views(std::string_view s) {
  std::vector<std::string_view> lines = split_views(s, '\n');
  for (auto& line : lines)
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return lines;
}

std::vector<std::string_view> split_ws_views(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  std::size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::size_t indent_of(std::string_view line) {
  std::size_t n = 0;
  while (n < line.size() && (line[n] == ' ' || line[n] == '\t')) ++n;
  return n;
}

std::string format_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s == "-0") s = "0";
  return s;
}

std::string format_sci(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", digits, v);
  return std::string(buf);
}

std::ostream& operator<<(std::ostream& os, CsvField field) {
  if (std::none_of(field.text.begin(), field.text.end(),
                   [](char c) { return c == ',' || c == '"' || c == '\r' || c == '\n'; }))
    return os << field.text;
  os << '"';
  for (char c : field.text) {
    if (c == '"') os << '"';
    os << c;
  }
  return os << '"';
}

bool CsvReader::next(std::vector<std::string>& row) {
  while (pos_ < text_.size()) {
    std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
    std::size_t n = 0;
    while (true) {
      if (n == row.size()) row.emplace_back();
      std::string& field = row[n++];
      field.clear();
      if (pos_ < text_.size() && text_[pos_] == '"') {
        // Quoted: runs to the closing quote; "" inside is one quote.
        while (true) {
          const std::size_t close = text_.find('"', ++pos_);
          require_data(close != std::string_view::npos, "csv: unterminated quoted field");
          field.append(text_.substr(pos_, close - pos_));
          pos_ = close + 1;
          if (pos_ >= text_.size() || text_[pos_] != '"') break;
          field += '"';
        }
        if (pos_ > eol) eol = std::min(text_.find('\n', pos_), text_.size());
      }
      // Unquoted text up to the separator (after a closing quote there
      // is normally none); a CR ending the record is not data.
      const std::size_t end = std::min(text_.find(',', pos_), eol);
      std::string_view rest = text_.substr(pos_, end - pos_);
      if (end == eol && rest.ends_with('\r')) rest.remove_suffix(1);
      field.append(rest);
      pos_ = end + 1;
      if (end == eol) break;
    }
    row.resize(n);
    if (n > 1 || !trim(row.front()).empty()) return true;
  }
  return false;
}

}  // namespace mpa
