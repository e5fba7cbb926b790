// Tests for the C4.5-style decision tree.
#include <gtest/gtest.h>

#include <cmath>

#include "feature_rows.hpp"
#include "util/error.hpp"

#include "learn/decision_tree.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

Dataset xor_like() {
  // y = a xor b: needs two levels of splits. Cell counts are slightly
  // asymmetric — perfectly balanced XOR has zero single-feature
  // information gain, which no greedy tree (C4.5 included) can split.
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 2;
  d.feature_names = {"f0", "f1"};
  const int reps[2][2] = {{12, 10}, {10, 8}};
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b)
      for (int rep = 0; rep < reps[a][b]; ++rep) {
        d.x.push_back(std::vector<int>{a, b});
        d.y.push_back(a ^ b);
        d.w.push_back(1);
      }
  return d;
}

Dataset single_feature(int n, int bins) {
  // y = 1 iff bin >= bins/2.
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = bins;
  d.feature_names = {"f0"};
  Rng rng(1);
  for (int i = 0; i < n; ++i) {
    const int b = static_cast<int>(rng.uniform_int(0, bins - 1));
    d.x.push_back(std::vector<int>{b});
    d.y.push_back(b >= bins / 2 ? 1 : 0);
    d.w.push_back(1);
  }
  return d;
}

TEST(DecisionTree, LearnsSeparableData) {
  const Dataset d = single_feature(200, 5);
  TreeOptions opts;
  opts.min_weight_frac = 0.0;
  const DecisionTree tree = DecisionTree::fit(d, opts);
  for (std::size_t i = 0; i < d.size(); ++i)
    EXPECT_EQ(tree.predict(d.x[i]), d.y[i]);
  EXPECT_EQ(tree.root_feature(), 0);
}

TEST(DecisionTree, LearnsXor) {
  TreeOptions opts;
  opts.min_weight_frac = 0.0;
  const Dataset d = xor_like();
  const DecisionTree tree = DecisionTree::fit(d, opts);
  for (std::size_t i = 0; i < d.size(); ++i)
    EXPECT_EQ(tree.predict(d.x[i]), d.y[i]);
  EXPECT_EQ(tree.depth(), 2);
}

TEST(DecisionTree, PureNodeBecomesLeaf) {
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 3;
  d.feature_names = {"f0"};
  for (int i = 0; i < 10; ++i) {
    d.x.push_back(std::vector<int>{i % 3});
    d.y.push_back(1);
    d.w.push_back(1);
  }
  const DecisionTree tree = DecisionTree::fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.depth(), 0);
  EXPECT_EQ(tree.root_feature(), -1);
  EXPECT_EQ(tree.predict(std::vector<int>{0}), 1);
}

TEST(DecisionTree, PruningShrinksTree) {
  // Noisy labels: without pruning the tree memorizes; with the paper's
  // 1% threshold it stays small.
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 5;
  d.feature_names = {"a", "b", "c", "d"};
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    std::vector<int> x;
    for (int j = 0; j < 4; ++j) x.push_back(static_cast<int>(rng.uniform_int(0, 4)));
    d.x.push_back(x);
    d.y.push_back(rng.bernoulli(x[0] >= 2 ? 0.9 : 0.1) ? 1 : 0);
    d.w.push_back(1);
  }
  TreeOptions unpruned;
  unpruned.min_weight_frac = 0;
  TreeOptions pruned;
  pruned.min_weight_frac = 0.05;
  const auto big = DecisionTree::fit(d, unpruned);
  const auto small = DecisionTree::fit(d, pruned);
  EXPECT_LT(small.node_count(), big.node_count());
  EXPECT_GT(big.node_count(), 10u);
}

TEST(DecisionTree, MaxDepthCapsGrowth) {
  TreeOptions opts;
  opts.min_weight_frac = 0;
  opts.max_depth = 1;
  const DecisionTree stump = DecisionTree::fit(xor_like(), opts);
  EXPECT_LE(stump.depth(), 1);
}

TEST(DecisionTree, WeightsShiftMajority) {
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 2;
  d.feature_names = {"f"};
  // Three class-0 samples, one heavily-weighted class-1 sample, all
  // indistinguishable by features.
  d.x = feature_rows({{0}, {0}, {0}, {0}});
  d.y = {0, 0, 0, 1};
  d.w = {1, 1, 1, 10};
  const DecisionTree tree = DecisionTree::fit(d);
  EXPECT_EQ(tree.predict(std::vector<int>{0}), 1);
}

TEST(DecisionTree, DescribeRendersStructure) {
  const Dataset d = single_feature(100, 5);
  TreeOptions opts;
  opts.min_weight_frac = 0;
  const DecisionTree tree = DecisionTree::fit(d, opts);
  const std::vector<std::string> classes{"healthy", "unhealthy"};
  const std::string out = tree.describe(d.feature_names, classes, 3);
  EXPECT_NE(out.find("f0"), std::string::npos);
  EXPECT_NE(out.find("healthy"), std::string::npos);
  EXPECT_NE(out.find("very low"), std::string::npos);  // 5-bin labels
}

TEST(DecisionTree, PathsToExtractsRules) {
  const Dataset d = single_feature(200, 5);
  TreeOptions opts;
  opts.min_weight_frac = 0;
  const DecisionTree tree = DecisionTree::fit(d, opts);
  const auto rules = tree.paths_to(1);
  ASSERT_FALSE(rules.empty());
  // Every rule's conditions, applied as a feature vector, must predict
  // the rule's label.
  for (const auto& rule : rules) {
    std::vector<int> x(1, 0);
    for (const auto& [feature, bin] : rule.conditions) x[static_cast<std::size_t>(feature)] = bin;
    EXPECT_EQ(tree.predict(x), rule.label);
    EXPECT_EQ(rule.label, 1);
  }
  // Labels y=1 live in bins >= 2 (bins/2 of 5): at least those rules.
  EXPECT_GE(rules.size(), 3u);
  // Rules for the other class are disjoint.
  for (const auto& rule : tree.paths_to(0)) EXPECT_EQ(rule.label, 0);
}

TEST(DecisionTree, FormatRuleReadable) {
  DecisionTree::Rule rule;
  rule.conditions = {{0, 3}, {1, 0}};
  rule.label = 1;
  const std::vector<std::string> features{"No. of devices", "No. of roles"};
  const std::vector<std::string> classes{"healthy", "unhealthy"};
  EXPECT_EQ(DecisionTree::format_rule(rule, features, classes),
            "No. of devices=high AND No. of roles=very low -> unhealthy");
}

TEST(DecisionTree, RejectsEmptyAndUnfitted) {
  EXPECT_THROW(DecisionTree::fit(Dataset{}), PreconditionError);
  // A stray bin or label, or a row without a bin for every feature
  // name, would index past fit's buffers.
  Dataset d;
  d.feature_names = {"f0", "f1"};
  d.x = feature_rows({{0, 4}, {4, 0}, {1, 2}});
  d.y = {0, 1, 1};
  d.w = {1, 1, 1};
  EXPECT_NO_THROW(DecisionTree::fit(d));
  for (const int stray : {-1, d.feature_bins}) {
    Dataset bad = d;
    bad.x = feature_rows({{0, 4}, {4, stray}, {1, 2}});
    EXPECT_THROW(DecisionTree::fit(bad), PreconditionError) << "bin " << stray;
  }
  for (const int stray : {-1, d.num_classes}) {
    Dataset bad = d;
    bad.y[2] = stray;
    EXPECT_THROW(DecisionTree::fit(bad), PreconditionError) << "label " << stray;
  }
  Dataset narrow = d;
  narrow.feature_names.push_back("f2");
  EXPECT_THROW(DecisionTree::fit(narrow), PreconditionError);
  const DecisionTree t;
  EXPECT_THROW(t.predict(std::vector<int>{0}), PreconditionError);
}

// The leaf label fit reports for each training row is predict's, on
// pruned, unpruned and depth-capped trees, 2 and 5 classes, and rows
// reweighted as a boosting round leaves them.
TEST(DecisionTree, FitReportsEachTrainingRowsLeaf) {
  Rng rng(8);
  for (int classes : {2, 5}) {
    Dataset d;
    d.num_classes = classes;
    d.feature_bins = 5;
    d.feature_names = {"f0", "f1", "f2", "f3", "f4", "f5"};
    for (int i = 0; i < 600; ++i) {
      std::vector<int> x;
      for (int f = 0; f < 6; ++f) x.push_back(static_cast<int>(rng.uniform_int(0, 4)));
      const int signal = (x[0] + x[1] * x[2]) % classes;
      d.x.push_back(x);
      d.y.push_back(rng.bernoulli(0.2) ? static_cast<int>(rng.uniform_int(0, classes - 1))
                                       : signal);
      d.w.push_back(rng.bernoulli(0.3) ? std::exp(rng.uniform(0, 3)) : 1.0);
    }
    for (const auto& [frac, depth] : {std::pair{0.0, 0}, std::pair{0.01, 0}, std::pair{0.1, 0},
                                      std::pair{0.0, 2}}) {
      SCOPED_TRACE(std::to_string(classes) + " classes, min weight " + std::to_string(frac) +
                   ", depth " + std::to_string(depth));
      TreeOptions opts;
      opts.min_weight_frac = frac;
      opts.max_depth = depth;
      std::vector<int> labels;
      const DecisionTree tree = DecisionTree::fit(d, opts, &labels);
      EXPECT_GT(tree.leaf_count(), 1u);
      ASSERT_EQ(labels.size(), d.size());
      for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(labels[i], tree.predict(d.x[i])) << i;
    }
  }
}

// A fit large enough to build its subtrees as pool tasks keeps the
// serial pre-order: the same rendering, predictions and leaf labels
// with no pool and on 1-, 2- and 8-thread pools. The digest pins the
// serial fit itself.
TEST(DecisionTree, PooledFitKeepsSerialPreOrder) {
  Rng rng(21);
  Dataset d;
  d.num_classes = 5;
  d.feature_bins = 5;
  for (int f = 0; f < 12; ++f) d.feature_names.push_back("f" + std::to_string(f));
  for (int i = 0; i < 3000; ++i) {
    std::vector<int> x;
    for (int f = 0; f < 12; ++f) x.push_back(static_cast<int>(rng.uniform_int(0, 4)));
    const int signal = (x[0] + x[1] * x[2] + x[3]) % 5;
    d.x.push_back(x);
    d.y.push_back(rng.bernoulli(0.25) ? static_cast<int>(rng.uniform_int(0, 4)) : signal);
    d.w.push_back(rng.bernoulli(0.3) ? std::exp(rng.uniform(0, 2)) : 1.0);
  }
  TreeOptions opts;
  opts.min_weight_frac = 0.002;
  const std::vector<std::string> classes{"c0", "c1", "c2", "c3", "c4"};
  const auto render = [&](const DecisionTree& t) {
    return t.describe(d.feature_names, classes, 64);
  };
  const auto predictions = [&](const DecisionTree& t) {
    std::vector<int> out;
    for (std::size_t i = 0; i < d.size(); ++i) out.push_back(t.predict(d.x[i]));
    return out;
  };

  std::vector<int> want_labels;
  const DecisionTree want = DecisionTree::fit(d, opts, &want_labels);
  const std::vector<int> want_predictions = predictions(want);
  Fnv digest;
  digest.str(render(want));
  for (const int label : want_predictions) digest.u64(static_cast<std::uint64_t>(label));
  for (const int label : want_labels) digest.u64(static_cast<std::uint64_t>(label));
  EXPECT_GT(want.node_count(), 500u);
  EXPECT_EQ(digest.value(), 0x0dd3b6965f2be3dbULL);

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    std::vector<int> labels;
    const DecisionTree got = DecisionTree::fit(d, opts, &labels, &pool);
    EXPECT_GT(pool.stats().jobs, 0u);  // the subtrees were pool tasks
    EXPECT_EQ(got.node_count(), want.node_count());
    EXPECT_EQ(render(got), render(want));
    EXPECT_EQ(predictions(got), want_predictions);
    EXPECT_EQ(labels, want_labels);
  }
}

TEST(DecisionTree, StrayBinsClampInPredict) {
  const Dataset d = single_feature(100, 5);
  const DecisionTree tree = DecisionTree::fit(d);
  // A bin index beyond training range routes to the last child rather
  // than crashing.
  EXPECT_NO_THROW(tree.predict(std::vector<int>{7}));
}

}  // namespace
}  // namespace mpa
