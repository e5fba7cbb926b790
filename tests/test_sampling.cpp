// Tests for minority-class oversampling.
#include <gtest/gtest.h>

#include <algorithm>

#include "feature_rows.hpp"
#include "util/error.hpp"

#include "learn/decision_tree.hpp"
#include "learn/sampling.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

Dataset tiny(int n0, int n1, int n2 = 0) {
  Dataset d;
  d.num_classes = n2 > 0 ? 5 : 2;
  d.feature_bins = 2;
  d.feature_names = {"f"};
  auto push = [&](int cls, int count) {
    for (int i = 0; i < count; ++i) {
      d.x.push_back(std::vector<int>{i % 2});
      d.y.push_back(cls);
      d.w.push_back(1);
    }
  };
  push(0, n0);
  push(1, n1);
  push(2, n2);
  return d;
}

TEST(Oversample, ReplicatesRequestedClasses) {
  const Dataset d = tiny(10, 4);
  const Dataset o = oversample(d, {{1, 2}});
  EXPECT_EQ(o.size(), 10u + 8u);
  int c1 = 0;
  for (int y : o.y)
    if (y == 1) ++c1;
  EXPECT_EQ(c1, 8);
}

TEST(Oversample, MultiplicityOneIsIdentity) {
  const Dataset d = tiny(5, 5);
  const Dataset o = oversample(d, {{0, 1}, {1, 1}});
  EXPECT_TRUE(same_rows(o.x, d.x));
  EXPECT_EQ(o.y, d.y);
}

TEST(Oversample, AbsentClassesUntouched) {
  const Dataset d = tiny(5, 3);
  const Dataset o = oversample(d, {{7, 3}});  // class 7 doesn't exist
  EXPECT_EQ(o.size(), d.size());
}

TEST(Oversample, PreservesFeatureVectors) {
  const Dataset d = tiny(2, 2);
  const Dataset o = oversample(d, {{1, 3}});
  // Copies are exact duplicates of originals.
  int copies = 0;
  for (std::size_t i = 0; i < o.size(); ++i)
    if (o.y[i] == 1) {
      ++copies;
      EXPECT_TRUE(std::ranges::equal(o.x[i], d.x[2]) || std::ranges::equal(o.x[i], d.x[3]));
    }
  EXPECT_EQ(copies, 6);
  EXPECT_EQ(o.num_classes, d.num_classes);
  EXPECT_EQ(o.feature_names, d.feature_names);
}

TEST(Oversample, RejectsZeroMultiplicity) {
  const Dataset d = tiny(2, 2);
  EXPECT_THROW(oversample(d, {{1, 0}}), PreconditionError);
}

TEST(PaperRecipe, TwoClass) {
  const auto r = paper_oversampling_recipe(2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.at(1), 2);  // unhealthy x2
}

TEST(PaperRecipe, FiveClass) {
  const auto r = paper_oversampling_recipe(5);
  EXPECT_EQ(r.at(1), 3);  // good x3
  EXPECT_EQ(r.at(2), 3);  // moderate x3
  EXPECT_EQ(r.at(3), 2);  // poor x2
  EXPECT_EQ(r.count(0), 0u);  // excellent untouched
  EXPECT_EQ(r.count(4), 0u);  // very poor untouched
  EXPECT_THROW(paper_oversampling_recipe(4), PreconditionError);
}

TEST(Oversample, EquivalentToSampleWeights) {
  // Duplicating a class k times is the same training signal as weighting
  // its samples by k: the fitted trees must agree everywhere.
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 3;
  d.feature_names = {"a", "b"};
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const int a = static_cast<int>(rng.uniform_int(0, 2));
    const int b = static_cast<int>(rng.uniform_int(0, 2));
    d.x.push_back(std::vector<int>{a, b});
    d.y.push_back(rng.bernoulli(a == 2 ? 0.8 : 0.1) ? 1 : 0);
    d.w.push_back(1);
  }
  const Dataset dup = oversample(d, {{1, 3}});
  Dataset weighted = d;
  for (std::size_t i = 0; i < weighted.size(); ++i)
    if (weighted.y[i] == 1) weighted.w[i] = 3;
  TreeOptions opts;
  opts.min_weight_frac = 0.02;
  const DecisionTree t_dup = DecisionTree::fit(dup, opts);
  const DecisionTree t_w = DecisionTree::fit(weighted, opts);
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b) {
      const std::vector<int> x{a, b};
      EXPECT_EQ(t_dup.predict(x), t_w.predict(x)) << "at (" << a << "," << b << ")";
    }
}

}  // namespace
}  // namespace mpa
