// Descriptive statistics shared by the analyses and report printers.
#pragma once

#include <span>
#include <vector>

namespace mpa {

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> v);

/// Population variance; 0 for fewer than 2 elements.
double variance(std::span<const double> v);

/// Population standard deviation.
double stddev(std::span<const double> v);

/// Linear-interpolated percentile, p in [0, 100]. Requires non-empty v.
double percentile(std::span<const double> v, double p);

/// percentile() of data already sorted ascending, without the copy and
/// sort: callers reading several percentiles sort once.
double percentile_sorted(std::span<const double> sorted, double p);

/// Median (50th percentile). Requires non-empty v.
double median(std::span<const double> v);

/// Pearson correlation coefficient; 0 if either side is constant.
/// Requires equal, non-zero lengths.
double pearson(std::span<const double> x, std::span<const double> y);

/// Five-number-ish box summary used by the figure benches: 25th, 50th,
/// 75th percentiles plus whiskers at the most extreme datapoints within
/// `whisker_iqr` x IQR of the box (the paper's figures use 2x).
struct BoxStats {
  double q25 = 0, q50 = 0, q75 = 0;
  double lo_whisker = 0, hi_whisker = 0;
  double mean = 0;
};

BoxStats box_stats(std::span<const double> v, double whisker_iqr = 2.0);

}  // namespace mpa
