// The case table: one row per (network, month), with all inferred
// practice metrics and the health outcome (§5.1.1: "we compute the mean
// value of each management practice and health metric on a monthly
// basis for each network, giving us ~11K data points").
#pragma once

#include <array>
#include <string_view>
#include <string>
#include <vector>

#include "metrics/practices.hpp"

namespace mpa {

/// One analysis case: a network observed for one month.
struct Case {
  std::string network_id;
  int month = 0;
  std::array<double, kNumPractices> practice{};
  double tickets = 0;  ///< Health outcome: non-maintenance tickets.

  double operator[](Practice p) const { return practice[static_cast<std::size_t>(p)]; }
  double& operator[](Practice p) { return practice[static_cast<std::size_t>(p)]; }
};

/// A collection of cases with column-extraction helpers.
class CaseTable {
 public:
  CaseTable() = default;
  explicit CaseTable(std::vector<Case> cases) : cases_(std::move(cases)) {}

  void add(Case c) { cases_.push_back(std::move(c)); }
  const std::vector<Case>& cases() const { return cases_; }
  std::size_t size() const { return cases_.size(); }
  bool empty() const { return cases_.empty(); }
  const Case& operator[](std::size_t i) const { return cases_[i]; }

  /// One practice column across all cases.
  std::vector<double> column(Practice p) const;

  /// The health (tickets) column.
  std::vector<double> tickets() const;

  /// Rows whose month is in [first, last] inclusive.
  CaseTable filter_months(int first, int last) const;

  /// Rows for one month.
  CaseTable month(int m) const { return filter_months(m, m); }

  /// Distinct network ids, in first-appearance order.
  std::vector<std::string> network_ids() const;

  /// CSV dump (header + one row per case) for external tooling and the
  /// bench-side dataset cache.
  std::string to_csv() const;

  /// Parse a table previously produced by to_csv(). Each numeric cell
  /// must parse whole: practices and tickets as finite doubles, the
  /// month as an integer in [0, kMaxMonths). A table with rows must
  /// carry to_csv()'s header. Throws DataError naming the row and
  /// column of the first cell that breaks a rule.
  static CaseTable from_csv(std::string_view csv);

 private:
  std::vector<Case> cases_;
};

}  // namespace mpa
