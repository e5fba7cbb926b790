#include "stats/binning.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace mpa {

Binner Binner::fit(std::span<const double> values, int num_bins, double lo_pct, double hi_pct) {
  require(num_bins >= 1, "Binner::fit: need at least one bin");
  require(lo_pct <= hi_pct, "Binner::fit: lo_pct > hi_pct");
  if (values.empty()) return Binner(0, 0, 1);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double lo = percentile_sorted(sorted, lo_pct);
  const double hi = percentile_sorted(sorted, hi_pct);
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
