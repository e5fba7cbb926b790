// Tests for the clamped equal-width binning strategy (§5.1.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "stats/binning.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

TEST(Binning, ClampsBelowAndAbovePercentiles) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);  // 0..100
  const Binner b = Binner::fit(v, 10);  // bounds = [5, 95]
  EXPECT_DOUBLE_EQ(b.lo(), 5.0);
  EXPECT_DOUBLE_EQ(b.hi(), 95.0);
  EXPECT_EQ(b.bin(-100), 0);
  EXPECT_EQ(b.bin(0), 0);
  EXPECT_EQ(b.bin(5), 0);
  EXPECT_EQ(b.bin(95), 9);
  EXPECT_EQ(b.bin(1e9), 9);
}

TEST(Binning, EqualWidthInteriors) {
  const Binner b(0, 100, 10);
  EXPECT_EQ(b.bin(9.9), 0);
  EXPECT_EQ(b.bin(10), 1);
  EXPECT_EQ(b.bin(55), 5);
  EXPECT_EQ(b.bin(99.9), 9);
  for (int k = 0; k < 10; ++k) EXPECT_DOUBLE_EQ(b.bin_lower(k), 10.0 * k);
}

TEST(Binning, MonotoneProperty) {
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(i * 0.37);
  const Binner b = Binner::fit(v, 10);
  int prev = 0;
  for (double x = -10; x < 200; x += 0.5) {
    const int bin = b.bin(x);
    EXPECT_GE(bin, prev);
    EXPECT_GE(bin, 0);
    EXPECT_LT(bin, 10);
    prev = bin;
  }
}

TEST(Binning, DegenerateConstantData) {
  const std::vector<double> v(50, 7.0);
  const Binner b = Binner::fit(v, 10);
  EXPECT_EQ(b.num_bins(), 1);
  EXPECT_EQ(b.bin(7), 0);
  EXPECT_EQ(b.bin(-1), 0);
  EXPECT_EQ(b.bin(100), 0);
}

TEST(Binning, EmptyData) {
  const Binner b = Binner::fit({}, 10);
  EXPECT_EQ(b.num_bins(), 1);
  EXPECT_EQ(b.bin(3), 0);
}

TEST(Binning, BinAllMatchesBin) {
  std::vector<double> v{1, 5, 9, 2, 8};
  const Binner b = Binner::fit(v, 5, 0, 100);
  const auto bins = b.bin_all(v);
  ASSERT_EQ(bins.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(bins[i], b.bin(v[i]));
}

TEST(Binning, Rejects) {
  EXPECT_THROW(Binner::fit(std::vector<double>{1, 2}, 0), PreconditionError);
  EXPECT_THROW(Binner(5, 4, 3), PreconditionError);
  const Binner b(0, 10, 5);
  EXPECT_THROW(b.bin_lower(-1), PreconditionError);
  EXPECT_THROW(b.bin_lower(5), PreconditionError);
}

// Fit finds its bounds by selection; they are the bits of the sorted
// column's percentiles, for every pair of the percentiles below.
TEST(Binning, FitBoundsEqualSortedPercentiles) {
  Rng rng(5);
  std::vector<std::vector<double>> columns = {{4.5}, std::vector<double>(37, 2.0)};
  std::vector<double> two_valued;
  for (int i = 0; i < 41; ++i) two_valued.push_back(rng.bernoulli(0.3) ? 7.0 : -1.5);
  columns.push_back(two_valued);
  std::vector<std::size_t> sizes = {101, 1000, 3400};
  for (std::size_t n = 2; n <= 64; ++n) sizes.push_back(n);
  for (std::size_t n : sizes) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
      v.push_back(i % 3 == 0 ? std::floor(rng.uniform(0, 10)) : rng.normal() * 100);
    columns.push_back(v);
  }
  const double pcts[] = {0, 5, 50, 95, 100};
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const auto& column : columns) {
    std::vector<double> sorted = column;
    std::sort(sorted.begin(), sorted.end());
    for (double lo_pct : pcts)
      for (double hi_pct : pcts) {
        if (lo_pct > hi_pct) continue;
        SCOPED_TRACE(std::to_string(column.size()) + " values, " + std::to_string(lo_pct) +
                     "-" + std::to_string(hi_pct));
        const double lo = percentile_sorted(sorted, lo_pct);
        const double hi = percentile_sorted(sorted, hi_pct);
        const Binner b = Binner::fit(column, 10, lo_pct, hi_pct);
        EXPECT_EQ(bits(b.lo()), bits(lo));
        EXPECT_EQ(bits(b.hi()), bits(hi > lo ? hi : lo));
        EXPECT_EQ(b.num_bins(), hi > lo ? 10 : 1);
      }
  }
}

// Property sweep: every value lands in a valid bin for various bin counts.
class BinnerSweep : public ::testing::TestWithParam<int> {};

TEST_P(BinnerSweep, AllValuesInRange) {
  const int bins = GetParam();
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back((i * 7919) % 997 * 0.1);
  const Binner b = Binner::fit(v, bins);
  for (double x : v) {
    const int k = b.bin(x);
    EXPECT_GE(k, 0);
    EXPECT_LT(k, b.num_bins());
  }
  // Bins jointly cover the data: first and last bin are populated.
  const auto all = b.bin_all(v);
  EXPECT_NE(std::count(all.begin(), all.end(), 0), 0);
  EXPECT_NE(std::count(all.begin(), all.end(), b.num_bins() - 1), 0);
}

INSTANTIATE_TEST_SUITE_P(BinCounts, BinnerSweep, ::testing::Values(1, 2, 5, 10, 32));

}  // namespace
}  // namespace mpa
