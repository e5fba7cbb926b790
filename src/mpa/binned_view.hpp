// A month-major binned view of the case table: every practice column
// and the health column discretized exactly once (bounds fitted on the
// full table, §5.1.1), with rows permuted so each month occupies one
// contiguous block. Per-month per-column slices are then zero-copy
// spans, which is what the dependence kernels, the bootstrap-CI
// resampler, and the benches consume — no re-slicing, no per-month
// vector copies.
//
// Months are ordered ascending and the original row order is preserved
// within a month (a stable grouping), so iteration over the view visits
// cases in the same order the previous map-of-row-indices
// implementation did — results stay bit-identical.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "metrics/case_table.hpp"
#include "stats/binning.hpp"

namespace mpa {

class BinnedCaseView {
 public:
  /// Fits one binner per practice plus one for health on the full
  /// table (§5.1.1: 10 equal-width bins between the 5th and 95th
  /// percentiles), bins every column, and groups rows month-major. The
  /// table must be non-empty.
  explicit BinnedCaseView(const CaseTable& table);

  /// Distinct months, ascending.
  std::size_t num_months() const { return month_begin_.size() - 1; }
  /// Cases in month block `mi`.
  std::size_t month_size(std::size_t mi) const {
    return month_begin_[mi + 1] - month_begin_[mi];
  }

  /// Binned values of one practice for one month block (contiguous).
  std::span<const int> practice_month(Practice p, std::size_t mi) const {
    return column_month(static_cast<std::size_t>(p), mi);
  }
  /// Binned health values for one month block (contiguous).
  std::span<const int> health_month(std::size_t mi) const {
    return column_month(kNumPractices, mi);
  }

  /// Bin counts (dense-kernel cardinalities).
  int practice_cardinality(Practice p) const {
    return practice_binners_[static_cast<std::size_t>(p)].num_bins();
  }
  int health_cardinality() const { return health_binner_.num_bins(); }

  const Binner& binner(Practice p) const {
    return practice_binners_[static_cast<std::size_t>(p)];
  }
  const Binner& health_binner() const { return health_binner_; }

 private:
  std::span<const int> column_month(std::size_t c, std::size_t mi) const {
    return {cols_[c].data() + month_begin_[mi], month_size(mi)};
  }

  std::vector<Binner> practice_binners_;
  Binner health_binner_{0, 0, 1};
  /// kNumPractices + 1 binned columns (the last is health), each with
  /// every row, permuted month-major, so one column's month block is
  /// one contiguous span.
  std::vector<std::vector<int>> cols_;
  std::vector<std::size_t> month_begin_;  ///< num_months + 1 offsets.
};

}  // namespace mpa
