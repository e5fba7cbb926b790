#include "mpa/binned_view.hpp"

#include <map>

#include "util/error.hpp"

namespace mpa {
namespace {

// §5.1.1: 10 equal-width bins, clamped at the 5th/95th percentiles.
constexpr int kBins = 10;
constexpr double kLoPct = 5.0;
constexpr double kHiPct = 95.0;

}  // namespace

BinnedCaseView::BinnedCaseView(const CaseTable& table) {
  require(!table.empty(), "BinnedCaseView: empty case table");
  const std::size_t n = table.size();

  practice_binners_.reserve(kNumPractices);
  for (Practice p : all_practices())
    practice_binners_.push_back(Binner::fit(table.column(p), kBins, kLoPct, kHiPct));
  health_binner_ = Binner::fit(table.tickets(), kBins, kLoPct, kHiPct);

  // Stable month-major permutation: months ascending, original order
  // preserved within each month.
  std::map<int, std::vector<std::size_t>> rows_by_month;
  for (std::size_t i = 0; i < n; ++i) rows_by_month[table[i].month].push_back(i);
  std::vector<std::size_t> perm;
  perm.reserve(n);
  month_begin_.push_back(0);
  for (const auto& [m, rows] : rows_by_month) {
    perm.insert(perm.end(), rows.begin(), rows.end());
    month_begin_.push_back(perm.size());
  }

  // Bin every column once and scatter through the permutation into the
  // per-column buffers.
  cols_.resize(kNumPractices + 1);
  for (int j = 0; j <= kNumPractices; ++j) {
    const bool health = j == kNumPractices;
    const std::vector<int> binned =
        health ? health_binner_.bin_all(table.tickets())
               : practice_binners_[static_cast<std::size_t>(j)].bin_all(
                     table.column(static_cast<Practice>(j)));
    auto& col = cols_[static_cast<std::size_t>(j)];
    col.resize(n);
    for (std::size_t r = 0; r < n; ++r) col[r] = binned[perm[r]];
  }
}

}  // namespace mpa
