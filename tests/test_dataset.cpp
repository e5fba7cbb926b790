// Tests for learning-dataset construction and health classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "feature_rows.hpp"
#include "util/error.hpp"

#include "learn/baselines.hpp"
#include "learn/dataset.hpp"
#include "learn/forest.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

TEST(HealthClasses, TwoClassBoundary) {
  EXPECT_EQ(health_class_2(0), 0);
  EXPECT_EQ(health_class_2(1), 0);
  EXPECT_EQ(health_class_2(2), 1);
  EXPECT_EQ(health_class_2(100), 1);
}

TEST(HealthClasses, FiveClassBoundaries) {
  EXPECT_EQ(health_class_5(0), 0);
  EXPECT_EQ(health_class_5(2), 0);   // excellent <= 2
  EXPECT_EQ(health_class_5(3), 1);   // good 3-5
  EXPECT_EQ(health_class_5(5), 1);
  EXPECT_EQ(health_class_5(6), 2);   // moderate 6-8
  EXPECT_EQ(health_class_5(8), 2);
  EXPECT_EQ(health_class_5(9), 3);   // poor 9-11
  EXPECT_EQ(health_class_5(11), 3);
  EXPECT_EQ(health_class_5(12), 4);  // very poor >= 12
}

TEST(HealthClasses, Names) {
  EXPECT_EQ(health_class_names(2), (std::vector<std::string>{"healthy", "unhealthy"}));
  EXPECT_EQ(health_class_names(5).size(), 5u);
  EXPECT_EQ(health_class_names(5)[4], "very poor");
  EXPECT_THROW(health_class_names(3), PreconditionError);
}

CaseTable small_table() {
  CaseTable t;
  for (int n = 0; n < 20; ++n) {
    Case c;
    c.network_id = "n" + std::to_string(n);
    c.month = n % 4;
    c[Practice::kNumDevices] = n;
    c[Practice::kNumChangeEvents] = n * 2;
    c.tickets = n % 7;
    t.add(c);
  }
  return t;
}

TEST(Dataset, BuiltFromCaseTable) {
  const CaseTable t = small_table();
  const Dataset d = make_dataset(t, 2);
  EXPECT_EQ(d.size(), 20u);
  EXPECT_EQ(d.num_features(), static_cast<std::size_t>(kNumPractices));
  EXPECT_EQ(d.feature_bins, kFeatureBins);
  for (const int b : d.x.values()) {
    EXPECT_GE(b, 0);
    EXPECT_LT(b, kFeatureBins);
  }
  for (std::size_t i = 0; i < d.size(); ++i)
    EXPECT_EQ(d.y[i], health_class_2(t[i].tickets));
  EXPECT_DOUBLE_EQ(d.total_weight(), 20.0);
}

TEST(Dataset, FiveClassLabels) {
  const Dataset d = make_dataset(small_table(), 5);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(d.y[i], 0);
    EXPECT_LT(d.y[i], 5);
  }
  EXPECT_THROW(make_dataset(small_table(), 3), PreconditionError);
}

TEST(Dataset, ClassWeightsAndMajority) {
  Dataset d;
  d.num_classes = 2;
  d.x = feature_rows({{0}, {0}, {0}});
  d.y = {0, 0, 1};
  d.w = {1, 1, 5};
  const auto cw = d.class_weights();
  EXPECT_DOUBLE_EQ(cw[0], 2);
  EXPECT_DOUBLE_EQ(cw[1], 5);
  EXPECT_EQ(d.majority_class(), 1);  // by weight, not count
}

TEST(Dataset, Subset) {
  const Dataset d = make_dataset(small_table(), 2);
  const std::vector<std::size_t> idx{0, 5, 19};
  const Dataset s = d.subset(idx);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.y[1], d.y[5]);
  EXPECT_TRUE(std::ranges::equal(s.x[2], d.x[19]));
  EXPECT_THROW(d.subset(std::vector<std::size_t>{99}), PreconditionError);
}

// Every learner's fit checks its input by one contract before it
// indexes rows by feature or its buffers by label.
TEST(Dataset, EveryLearnerRejectsAStrayLabelAndANarrowRow) {
  Dataset good;
  good.feature_names = {"f0", "f1"};
  for (int i = 0; i < 8; ++i) {
    good.x.push_back(std::vector<int>{i % 2, i / 2 % 2});
    good.y.push_back(i % 2);
    good.w.push_back(1);
  }
  Dataset stray_label = good;
  stray_label.y[5] = 7;
  Dataset narrow = good;
  narrow.feature_names.push_back("f2");

  Rng rng(1);
  const std::vector<std::pair<std::string, std::function<void(const Dataset&)>>> learners = {
      {"DecisionTree", [](const Dataset& d) { (void)DecisionTree::fit(d); }},
      {"MajorityClassifier", [](const Dataset& d) { (void)MajorityClassifier::fit(d); }},
      {"LinearSvm", [&](const Dataset& d) { (void)LinearSvm::fit(d, rng); }},
      {"RandomForest (balanced)",
       [&](const Dataset& d) { (void)RandomForest::fit(d, rng, {ForestVariant::kBalanced}); }},
  };
  for (const auto& [name, fit] : learners) {
    EXPECT_NO_THROW(fit(good)) << name;
    EXPECT_THROW(fit(stray_label), PreconditionError) << name << ": label 7 of 2 classes";
    EXPECT_THROW(fit(narrow), PreconditionError) << name << ": rows narrower than feature_names";
  }
}

TEST(FeatureMatrix, RowViewsAgree) {
  FeatureMatrix m;
  m.push_back(std::vector<int>{1, 2, 3});
  m.push_back(std::vector<int>{4, 5, 6});
  m.push_back(std::vector<int>{7, 8, 9});
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.width(), 3u);
  EXPECT_FALSE(m.empty());
  for (std::size_t i = 0; i < m.size(); ++i)
    for (std::size_t f = 0; f < m.width(); ++f)
      EXPECT_EQ(m[i][f], static_cast<int>(i * m.width() + f + 1));
  // values() holds the same rows as operator[], one after another.
  EXPECT_EQ(m.values().size(), 9u);
  for (std::size_t i = 0; i < m.size(); ++i)
    EXPECT_TRUE(std::ranges::equal(m.values().subspan(i * m.width(), m.width()), m[i]));
}

TEST(FeatureMatrix, RejectsInconsistentWidth) {
  FeatureMatrix m;
  m.push_back(std::vector<int>{1, 2});
  EXPECT_THROW(m.push_back(std::vector<int>{1, 2, 3}), PreconditionError);
}

TEST(FeatureMatrix, EqualityAndBraceConstruction) {
  const FeatureMatrix a = feature_rows({{0, 1}, {1, 0}});
  FeatureMatrix b;
  b.push_back(std::vector<int>{0, 1});
  b.push_back(std::vector<int>{1, 0});
  EXPECT_TRUE(same_rows(a, b));
  b.push_back(std::vector<int>{1, 1});
  EXPECT_FALSE(same_rows(a, b));
  const FeatureMatrix empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(same_rows(empty, FeatureMatrix{}));
}

TEST(FeatureSpace, ConsistentDiscretization) {
  const CaseTable t = small_table();
  const FeatureSpace space = FeatureSpace::fit(t);
  // Binning a case twice gives identical results; reusing the space on
  // a different table applies the *trained* bounds.
  const auto b1 = space.bin_case(t[3]);
  const auto b2 = space.bin_case(t[3]);
  EXPECT_EQ(b1, b2);
  const Dataset d1 = make_dataset(t, 2, &space);
  const Dataset d2 = make_dataset(t, 2);
  EXPECT_TRUE(same_rows(d1.x, d2.x));  // same table -> same bins either way
}

TEST(FeatureSpace, TrainedBoundsClampNewData) {
  const CaseTable t = small_table();
  const FeatureSpace space = FeatureSpace::fit(t);
  Case extreme;
  extreme[Practice::kNumDevices] = 1e9;
  const auto bins = space.bin_case(extreme);
  EXPECT_EQ(bins[static_cast<int>(Practice::kNumDevices)], kFeatureBins - 1);
}

}  // namespace
}  // namespace mpa
