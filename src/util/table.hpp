// A tiny column-aligned text table used by the benchmark harnesses to
// print rows in the same layout as the paper's tables and figure data.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mpa {

/// Builder for an aligned text table. Cells are strings; numeric
/// convenience overloads format through format_double.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Start a new row; subsequent add() calls fill it left to right.
  TextTable& row();
  TextTable& add(std::string cell);
  TextTable& add(const char* cell);
  TextTable& add(double v, int digits = 4);
  TextTable& add(int v);
  TextTable& add(std::size_t v);

  /// Render with single-space-padded columns and a dashed header rule.
  std::string str() const;

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mpa
