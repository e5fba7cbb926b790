#include "stats/binning.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mpa {
namespace {

/// percentile_sorted(sorted(v), p) without the sort: selection finds
/// the order statistic at the rank's floor, and the next one is the
/// smallest value after it. Reorders `v`.
double select_percentile(std::span<double> v, double p) {
  require(p >= 0 && p <= 100, "percentile: p out of range");
  if (v.size() == 1) return v[0];
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const auto after = v.begin() + static_cast<std::ptrdiff_t>(lo) + 1;
  const double next = after == v.end() ? v[lo] : *std::min_element(after, v.end());
  return v[lo] * (1 - frac) + next * frac;
}

}  // namespace

Binner Binner::fit(std::span<const double> values, int num_bins, double lo_pct, double hi_pct) {
  require(num_bins >= 1, "Binner::fit: need at least one bin");
  require(lo_pct <= hi_pct, "Binner::fit: lo_pct > hi_pct");
  if (values.empty()) return Binner(0, 0, 1);
  std::vector<double> v(values.begin(), values.end());
  const double lo = select_percentile(v, lo_pct);
  const double hi = select_percentile(v, hi_pct);
  if (!(hi > lo)) return Binner(lo, lo, 1);  // degenerate: single bin
  return Binner(lo, hi, num_bins);
}

Binner::Binner(double lo, double hi, int num_bins) : lo_(lo), hi_(hi), num_bins_(num_bins) {
  require(num_bins >= 1, "Binner: need at least one bin");
  require(hi >= lo, "Binner: hi < lo");
  if (hi == lo) num_bins_ = 1;
}

int Binner::bin(double value) const {
  if (num_bins_ == 1 || value <= lo_) return 0;
  if (value >= hi_) return num_bins_ - 1;
  const double width = (hi_ - lo_) / num_bins_;
  int b = static_cast<int>((value - lo_) / width);
  if (b >= num_bins_) b = num_bins_ - 1;  // guard FP edge at hi_
  return b;
}

std::vector<int> Binner::bin_all(std::span<const double> values) const {
  std::vector<int> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(bin(v));
  return out;
}

double Binner::bin_lower(int b) const {
  require(b >= 0 && b < num_bins_, "Binner::bin_lower: bin out of range");
  if (num_bins_ == 1) return lo_;
  return lo_ + (hi_ - lo_) / num_bins_ * b;
}

}  // namespace mpa
