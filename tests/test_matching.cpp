// Tests for propensity-score matching and balance diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/matching.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

// Build a confounded scenario: confounder z drives treatment
// probability; within z-levels treatment is random.
void make_confounded(Rng& rng, int n, Matrix* treated, Matrix* untreated) {
  for (int i = 0; i < n; ++i) {
    const double z = rng.uniform(0, 1);
    const double noise = rng.normal(0, 0.2);
    const bool is_treated = rng.bernoulli(0.2 + 0.6 * z);
    (is_treated ? treated : untreated)->push_back({z, z * 2 + noise});
  }
}

TEST(Balance, StatBasics) {
  const std::vector<double> t{1, 2, 3, 4};
  const std::vector<double> u{1, 2, 3, 4};
  const BalanceStat same = balance_stat(t, u);
  EXPECT_DOUBLE_EQ(same.std_diff_of_means, 0.0);
  EXPECT_DOUBLE_EQ(same.variance_ratio, 1.0);
  EXPECT_TRUE(same.ok());

  const std::vector<double> shifted{11, 12, 13, 14};
  const BalanceStat bad = balance_stat(shifted, u);
  EXPECT_GT(bad.std_diff_of_means, 5);
  EXPECT_FALSE(bad.ok());
}

TEST(Balance, DegenerateVariances) {
  const std::vector<double> constant{2, 2, 2};
  const std::vector<double> varying{1, 2, 3};
  EXPECT_TRUE(balance_stat(constant, constant).ok());
  const BalanceStat b = balance_stat(constant, varying);
  EXPECT_FALSE(b.ok());  // zero treated variance vs nonzero untreated
  EXPECT_TRUE(std::isinf(balance_stat(std::vector<double>{3, 3}, constant).std_diff_of_means));
}

TEST(Matching, PairsTreatedToNearbyScores) {
  Rng rng(42);
  Matrix treated, untreated;
  make_confounded(rng, 4000, &treated, &untreated);
  const MatchResult res = propensity_match(treated, untreated);
  ASSERT_GT(res.pairs.size(), 100u);
  // Every pair's score distance is small.
  for (const auto& p : res.pairs) EXPECT_LT(p.score_diff, 0.2);
  // Matched confounders balance out.
  EXPECT_TRUE(res.propensity_balance.ok());
  EXPECT_LT(res.worst_abs_std_diff(), 0.25);
  EXPECT_GE(res.variance_ratio_pass_fraction(), 0.99);
}

TEST(Matching, UnmatchedRawMeansDifferButMatchedDoNot) {
  Rng rng(7);
  Matrix treated, untreated;
  make_confounded(rng, 4000, &treated, &untreated);
  // Raw group means of z differ substantially (confounding).
  double mt = 0, mu = 0;
  for (const auto& r : treated) mt += r[0];
  for (const auto& r : untreated) mu += r[0];
  mt /= treated.size();
  mu /= untreated.size();
  EXPECT_GT(mt - mu, 0.1);
  // After matching, the matched-sample difference collapses.
  const MatchResult res = propensity_match(treated, untreated);
  EXPECT_LT(std::abs(res.confounder_balance[0].std_diff_of_means), 0.25);
}

TEST(Matching, MaxReuseHonored) {
  Rng rng(10);
  Matrix treated, untreated;
  make_confounded(rng, 2000, &treated, &untreated);
  MatchOptions opts;
  opts.max_reuse = 1;
  const MatchResult res = propensity_match(treated, untreated, opts);
  EXPECT_EQ(res.untreated_matched_distinct, res.pairs.size());
  opts.max_reuse = 3;
  const MatchResult res3 = propensity_match(treated, untreated, opts);
  EXPECT_GE(res3.pairs.size(), res.pairs.size());
  EXPECT_LE(res3.pairs.size(), 3 * res3.untreated_matched_distinct);
}

TEST(Matching, CommonSupportTrimsOutliers) {
  // One treated case far outside the untreated score range is dropped.
  Matrix treated{{0.5}, {100.0}};
  Matrix untreated{{0.4}, {0.45}, {0.55}, {0.6}, {0.35}, {0.65}};
  MatchOptions opts;
  opts.caliper_sd = 0;  // disable caliper to isolate support trimming
  const MatchResult res = propensity_match(treated, untreated, opts);
  EXPECT_EQ(res.pairs.size(), 1u);
  EXPECT_EQ(res.pairs[0].treated_index, 0u);
}

TEST(Matching, CaliperDropsDistantPairs) {
  Rng rng(11);
  Matrix treated, untreated;
  make_confounded(rng, 1000, &treated, &untreated);
  MatchOptions loose;
  loose.caliper_sd = 0;  // off
  MatchOptions tight = loose;
  tight.caliper_sd = 0.05;
  const auto nl = propensity_match(treated, untreated, loose).pairs.size();
  const auto nt = propensity_match(treated, untreated, tight).pairs.size();
  EXPECT_LE(nt, nl);
}

TEST(Matching, ScoreOrderingSane) {
  Rng rng(12);
  Matrix treated, untreated;
  make_confounded(rng, 1500, &treated, &untreated);
  const MatchResult res = propensity_match(treated, untreated);
  // Treated scores should average above untreated scores (z drives
  // treatment up).
  double st = 0, su = 0;
  for (double s : res.treated_scores) st += s;
  for (double s : res.untreated_scores) su += s;
  EXPECT_GT(st / res.treated_scores.size(), su / res.untreated_scores.size());
}

TEST(Matching, RejectsEmptyOrRagged) {
  EXPECT_THROW(propensity_match({}, {{1.0}}), PreconditionError);
  EXPECT_THROW(propensity_match({{1.0}}, {}), PreconditionError);
  EXPECT_THROW(propensity_match({{1.0}, {1.0, 2.0}}, {{1.0}}), PreconditionError);
}

TEST(ExactMatching, CountsOnlyIdenticalRows) {
  const Matrix treated{{1, 2}, {3, 4}, {5, 6}};
  const Matrix untreated{{1, 2}, {9, 9}};
  EXPECT_EQ(exact_match_count(treated, untreated), 1u);
  EXPECT_EQ(exact_match_count(treated, {}), 0u);
}

// Sweep sample sizes: matching must never produce more pairs than
// treated cases and must preserve balance on well-overlapped data.
class MatchingSweep : public ::testing::TestWithParam<int> {};

TEST_P(MatchingSweep, PairsBounded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Matrix treated, untreated;
  make_confounded(rng, GetParam(), &treated, &untreated);
  if (treated.empty() || untreated.empty()) GTEST_SKIP();
  const MatchResult res = propensity_match(treated, untreated);
  EXPECT_LE(res.pairs.size(), treated.size());
  EXPECT_LE(res.untreated_matched_distinct, untreated.size());
  for (const auto& p : res.pairs) {
    EXPECT_LT(p.treated_index, treated.size());
    EXPECT_LT(p.untreated_index, untreated.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatchingSweep, ::testing::Values(50, 200, 1000, 5000));

}  // namespace
}  // namespace mpa
