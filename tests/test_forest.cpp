// Tests for random forests (plain / balanced / weighted).
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "learn/forest.hpp"

namespace mpa {
namespace {

Dataset noisy_threshold(int n, Rng& rng, double minority_frac = 0.5) {
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 5;
  d.feature_names = {"a", "b", "c", "d", "e"};
  for (int i = 0; i < n; ++i) {
    std::vector<int> x;
    for (int j = 0; j < 5; ++j) x.push_back(static_cast<int>(rng.uniform_int(0, 4)));
    const bool minority_region = x[0] >= 4 && x[1] >= 3;
    int y;
    if (minority_region) {
      y = 1;
    } else {
      y = rng.bernoulli(minority_frac * 0.05) ? 1 : 0;
    }
    d.x.push_back(std::move(x));
    d.y.push_back(y);
    d.w.push_back(1);
  }
  return d;
}

TEST(Forest, BeatsChanceOnStructuredData) {
  Rng rng(1);
  const Dataset d = noisy_threshold(800, rng);
  const RandomForest forest = RandomForest::fit(d, rng);
  EXPECT_EQ(forest.size(), 25u);
  int correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    if (forest.predict(d.x[i]) == d.y[i]) ++correct;
  EXPECT_GT(correct / static_cast<double>(d.size()), 0.85);
}

TEST(Forest, DeterministicGivenSeed) {
  Rng gen(2);
  const Dataset d = noisy_threshold(300, gen);
  Rng r1(77), r2(77);
  const RandomForest f1 = RandomForest::fit(d, r1);
  const RandomForest f2 = RandomForest::fit(d, r2);
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(f1.predict(d.x[i]), f2.predict(d.x[i]));
}

TEST(Forest, BalancedVariantImprovesMinorityRecall) {
  Rng rng(3);
  const Dataset d = noisy_threshold(2000, rng);
  const ForestOptions plain;
  ForestOptions balanced;
  balanced.variant = ForestVariant::kBalanced;
  Rng r1(5), r2(5);
  const RandomForest fp = RandomForest::fit(d, r1, plain);
  const RandomForest fb = RandomForest::fit(d, r2, balanced);
  auto minority_recall = [&](const RandomForest& f) {
    int hit = 0, total = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (d.y[i] != 1) continue;
      ++total;
      if (f.predict(d.x[i]) == 1) ++hit;
    }
    return total == 0 ? 0.0 : static_cast<double>(hit) / total;
  };
  EXPECT_GE(minority_recall(fb), minority_recall(fp));
}

TEST(Forest, WeightedVariantRuns) {
  Rng rng(4);
  const Dataset d = noisy_threshold(500, rng);
  ForestOptions opts;
  opts.variant = ForestVariant::kWeighted;
  const RandomForest f = RandomForest::fit(d, rng, opts);
  // Sanity: still classifies the strong minority region correctly.
  EXPECT_EQ(f.predict(std::vector<int>{4, 4, 0, 0, 0}), 1);
}

TEST(Forest, Rejects) {
  Rng rng(1);
  EXPECT_THROW(RandomForest::fit(Dataset{}, rng), PreconditionError);
}

}  // namespace
}  // namespace mpa
