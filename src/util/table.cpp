#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mpa {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  require(!headers_.empty(), "TextTable: need at least one column");
}

TextTable& TextTable::row() {
  rows_.emplace_back();
  return *this;
}

TextTable& TextTable::add(std::string cell) {
  require(!rows_.empty(), "TextTable::add: call row() first");
  require(rows_.back().size() < headers_.size(), "TextTable::add: row overflow");
  rows_.back().push_back(std::move(cell));
  return *this;
}

TextTable& TextTable::add(const char* cell) {
  return add(std::string(cell));
}
TextTable& TextTable::add(double v, int digits) {
  return add(format_double(v, digits));
}
TextTable& TextTable::add(int v) {
  return add(std::to_string(v));
}
TextTable& TextTable::add(std::size_t v) {
  return add(std::to_string(v));
}

std::string TextTable::str() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c) widths[c] = std::max(widths[c], r[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& s = c < cells.size() ? cells[c] : std::string();
      os << s << std::string(widths[c] - s.size(), ' ');
      if (c + 1 < headers_.size()) os << "  ";
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void TextTable::print(std::ostream& os) const {
  os << str();
}

}  // namespace mpa
