#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mpa {

double mean(std::span<const double> v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(std::span<const double> v) {
  if (v.size() < 2) return 0;
  const double m = mean(v);
  double s = 0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double stddev(std::span<const double> v) {
  return std::sqrt(variance(v));
}

double percentile(std::span<const double> v, double p) {
  require(!v.empty(), "percentile: empty input");
  std::vector<double> sorted(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  require(!sorted.empty(), "percentile: empty input");
  require(p >= 0 && p <= 100, "percentile: p out of range");
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> v) {
  return percentile(v, 50);
}

double pearson(std::span<const double> x, std::span<const double> y) {
  require(x.size() == y.size(), "pearson: length mismatch");
  require(!x.empty(), "pearson: empty input");
  const double mx = mean(x), my = mean(y);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0 || syy == 0) return 0;
  return sxy / std::sqrt(sxx * syy);
}

BoxStats box_stats(std::span<const double> v, double whisker_iqr) {
  require(!v.empty(), "box_stats: empty input");
  std::vector<double> sorted(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end());
  BoxStats b;
  b.q25 = percentile_sorted(sorted, 25);
  b.q50 = percentile_sorted(sorted, 50);
  b.q75 = percentile_sorted(sorted, 75);
  b.mean = mean(v);
  const double iqr = b.q75 - b.q25;
  const double lo_limit = b.q25 - whisker_iqr * iqr;
  const double hi_limit = b.q75 + whisker_iqr * iqr;
  b.lo_whisker = b.q50;
  b.hi_whisker = b.q50;
  bool first = true;
  for (double x : v) {
    if (x < lo_limit || x > hi_limit) continue;
    if (first) {
      b.lo_whisker = b.hi_whisker = x;
      first = false;
    } else {
      b.lo_whisker = std::min(b.lo_whisker, x);
      b.hi_whisker = std::max(b.hi_whisker, x);
    }
  }
  return b;
}

}  // namespace mpa
