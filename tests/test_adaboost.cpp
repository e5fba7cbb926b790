// Tests for SAMME AdaBoost and the paper's reweighted-tree variant.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "learn/adaboost.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

// A dataset where depth-1 stumps are weak but boosting stumps helps:
// y = majority of three binary features.
Dataset majority_vote_data(int n, Rng& rng) {
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 2;
  d.feature_names = {"a", "b", "c"};
  for (int i = 0; i < n; ++i) {
    std::vector<int> x;
    for (int j = 0; j < 3; ++j) x.push_back(rng.bernoulli(0.5) ? 1 : 0);
    d.x.push_back(x);
    d.y.push_back(x[0] + x[1] + x[2] >= 2 ? 1 : 0);
    d.w.push_back(1);
  }
  return d;
}

double train_accuracy(const Dataset& d, const std::function<int(std::span<const int>)>& f) {
  int correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    if (f(d.x[i]) == d.y[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(d.size());
}

TEST(AdaBoost, BoostedStumpsBeatSingleStump) {
  Rng rng(1);
  const Dataset d = majority_vote_data(600, rng);
  TreeOptions stump;
  stump.max_depth = 1;
  stump.min_weight_frac = 0;
  const DecisionTree single = DecisionTree::fit(d, stump);
  BoostOptions bo;
  bo.iterations = 15;
  bo.tree = stump;
  const AdaBoostClassifier boosted = AdaBoostClassifier::fit(d, bo);
  const double acc_single =
      train_accuracy(d, [&](std::span<const int> x) { return single.predict(x); });
  const double acc_boost =
      train_accuracy(d, [&](std::span<const int> x) { return boosted.predict(x); });
  EXPECT_GT(acc_boost, acc_single + 0.05);
  EXPECT_GT(acc_boost, 0.95);
  EXPECT_GT(boosted.rounds(), 1u);
}

TEST(AdaBoost, PerfectLearnerStopsEarly) {
  // A single deep tree solves this exactly; boosting should stop after
  // round 1 with that tree.
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 2;
  d.feature_names = {"f"};
  for (int i = 0; i < 20; ++i) {
    d.x.push_back(std::vector<int>{i % 2});
    d.y.push_back(i % 2);
    d.w.push_back(1);
  }
  BoostOptions bo;
  bo.iterations = 15;
  bo.tree.min_weight_frac = 0;
  const AdaBoostClassifier model = AdaBoostClassifier::fit(d, bo);
  EXPECT_EQ(model.rounds(), 1u);
  EXPECT_EQ(model.predict(std::vector<int>{1}), 1);
  EXPECT_EQ(model.predict(std::vector<int>{0}), 0);
}

TEST(AdaBoost, MultiClassSamme) {
  // Three classes determined by one ternary feature; SAMME must handle
  // K > 2 (its alpha includes the log(K-1) term).
  Dataset d;
  d.num_classes = 3;
  d.feature_bins = 3;
  d.feature_names = {"f"};
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const int b = static_cast<int>(rng.uniform_int(0, 2));
    d.x.push_back(std::vector<int>{b});
    d.y.push_back(b);
    d.w.push_back(1);
  }
  BoostOptions bo;
  bo.tree.min_weight_frac = 0;
  const AdaBoostClassifier model = AdaBoostClassifier::fit(d, bo);
  for (int b = 0; b < 3; ++b) EXPECT_EQ(model.predict(std::vector<int>{b}), b);
}

TEST(AdaBoost, SingleClassFallsBackGracefully) {
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 2;
  d.feature_names = {"f"};
  for (int i = 0; i < 10; ++i) {
    d.x.push_back(std::vector<int>{i % 2});
    d.y.push_back(0);
    d.w.push_back(1);
  }
  const AdaBoostClassifier model = AdaBoostClassifier::fit(d);
  EXPECT_EQ(model.predict(std::vector<int>{0}), 0);
  EXPECT_GE(model.rounds(), 1u);
}

TEST(AdaBoost, RejectsEmpty) {
  EXPECT_THROW(AdaBoostClassifier::fit(Dataset{}), PreconditionError);
}

}  // namespace
}  // namespace mpa
