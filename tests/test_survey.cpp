// Tests for the operator-survey simulator (Figure 2).
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "simulation/survey.hpp"

namespace mpa {
namespace {

TEST(Survey, ElevenPracticesInFigureOrder) {
  Rng rng(1);
  const auto results = simulate_survey(1, rng);
  ASSERT_EQ(results.size(), 11u);
  EXPECT_EQ(results.front().practice, "No. of devices");
  EXPECT_EQ(results[5].practice, "No. of change events");
  EXPECT_EQ(results.back().practice, "Frac. events w/ ACL change");
}

TEST(Survey, TotalsMatchOperatorCount) {
  Rng rng(1);
  const auto results = simulate_survey(51, rng);
  ASSERT_EQ(results.size(), 11u);
  for (const auto& r : results) EXPECT_EQ(r.total(), 51);
}

TEST(Survey, ChangeEventsIsTheOnlyMajorityConsensus) {
  // "We see clear consensus in just one case — number of change events."
  Rng rng(2);
  const auto results = simulate_survey(51, rng);
  int majorities = 0;
  for (const auto& r : results) {
    if (r.has_majority_consensus()) {
      ++majorities;
      EXPECT_EQ(r.practice, "No. of change events");
      EXPECT_EQ(r.consensus(), Opinion::kHigh);
    }
  }
  EXPECT_LE(majorities, 1);
}

TEST(Survey, AclChangeSkewsLow) {
  // The paper's punchline: operators mostly rate ACL-change impact low,
  // yet the causal analysis finds it impactful (Table 7 vs Figure 2).
  Rng rng(3);
  const auto results = simulate_survey(510, rng);  // larger draw for stability
  for (const auto& r : results) {
    if (r.practice != "Frac. events w/ ACL change") continue;
    EXPECT_GT(r.counts[static_cast<int>(Opinion::kLow)],
              r.counts[static_cast<int>(Opinion::kHigh)]);
  }
}

TEST(Survey, SomeOperatorsAreUnsure) {
  Rng rng(4);
  const auto results = simulate_survey(51, rng);
  int not_sure_total = 0;
  for (const auto& r : results) not_sure_total += r.counts[static_cast<int>(Opinion::kNotSure)];
  EXPECT_GT(not_sure_total, 0);
}

TEST(Survey, OpinionNames) {
  EXPECT_EQ(to_string(Opinion::kNoImpact), "no impact");
  EXPECT_EQ(to_string(Opinion::kHigh), "high");
  EXPECT_EQ(to_string(Opinion::kNotSure), "not sure");
}

TEST(Survey, RejectsZeroOperators) {
  Rng rng(1);
  EXPECT_THROW(simulate_survey(0, rng), PreconditionError);
}

}  // namespace
}  // namespace mpa
