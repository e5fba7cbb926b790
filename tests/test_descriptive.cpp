// Tests for descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace mpa {
namespace {

const std::vector<double> kV{1, 2, 3, 4, 5};

TEST(Descriptive, MeanVarianceStd) {
  EXPECT_DOUBLE_EQ(mean(kV), 3.0);
  EXPECT_DOUBLE_EQ(variance(kV), 2.0);
  EXPECT_DOUBLE_EQ(stddev(kV), std::sqrt(2.0));
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(variance(std::vector<double>{7}), 0.0);
}

TEST(Descriptive, Percentiles) {
  EXPECT_DOUBLE_EQ(percentile(kV, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(kV, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(kV, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(kV, 25), 2.0);
  EXPECT_DOUBLE_EQ(median(kV), 3.0);
  // Interpolation between ranks.
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{0, 10}, 25), 2.5);
  // Single element.
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{42}, 90), 42.0);
}

TEST(Descriptive, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{5, 1, 3, 2, 4}, 50), 3.0);
}

TEST(Descriptive, PercentileRejects) {
  EXPECT_THROW(percentile({}, 50), PreconditionError);
  EXPECT_THROW(percentile(kV, -1), PreconditionError);
  EXPECT_THROW(percentile(kV, 101), PreconditionError);
}

TEST(Descriptive, Pearson) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> yneg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, yneg), -1.0, 1e-12);
  const std::vector<double> yconst{5, 5, 5, 5};
  EXPECT_EQ(pearson(x, yconst), 0.0);
  EXPECT_THROW(pearson(x, std::vector<double>{1}), PreconditionError);
}

TEST(Descriptive, BoxStats) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  v.push_back(1000);  // outlier beyond 2x IQR
  const BoxStats b = box_stats(v);
  EXPECT_NEAR(b.q50, 51, 1.5);
  EXPECT_LT(b.q25, b.q50);
  EXPECT_LT(b.q50, b.q75);
  EXPECT_LT(b.hi_whisker, 1000);  // outlier excluded
  EXPECT_GE(b.lo_whisker, 1);
  EXPECT_GT(b.mean, b.q50);  // outlier pulls the mean
}

}  // namespace
}  // namespace mpa
