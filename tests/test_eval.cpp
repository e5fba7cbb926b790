// Tests for evaluation metrics and cross-validation.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "learn/eval.hpp"

namespace mpa {
namespace {

Dataset labeled(const std::vector<int>& labels) {
  Dataset d;
  d.num_classes = 1 + *std::max_element(labels.begin(), labels.end());
  if (d.num_classes < 2) d.num_classes = 2;
  d.feature_bins = 2;
  d.feature_names = {"f"};
  for (std::size_t i = 0; i < labels.size(); ++i) {
    d.x.push_back(std::vector<int>{static_cast<int>(i % 2)});
    d.y.push_back(labels[i]);
    d.w.push_back(1);
  }
  return d;
}

TEST(Evaluate, PerfectPredictor) {
  const Dataset d = labeled({0, 1, 0, 1});
  const EvalResult r = evaluate(d, [&](std::span<const int> x) { return x[0]; });
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(r.precision[0], 1.0);
  EXPECT_DOUBLE_EQ(r.recall[1], 1.0);
  EXPECT_EQ(r.confusion[0][0], 2);
  EXPECT_EQ(r.confusion[1][1], 2);
  EXPECT_EQ(r.confusion[0][1], 0);
}

TEST(Evaluate, ConstantPredictorPrecisionRecall) {
  const Dataset d = labeled({0, 0, 0, 1});
  const EvalResult r = evaluate(d, [](std::span<const int>) { return 0; });
  EXPECT_DOUBLE_EQ(r.accuracy, 0.75);
  EXPECT_DOUBLE_EQ(r.precision[0], 0.75);
  EXPECT_DOUBLE_EQ(r.recall[0], 1.0);
  EXPECT_DOUBLE_EQ(r.precision[1], 0.0);  // nothing predicted as 1
  EXPECT_DOUBLE_EQ(r.recall[1], 0.0);
}

TEST(Evaluate, ToStringIncludesClassNames) {
  const Dataset d = labeled({0, 1});
  const EvalResult r = evaluate(d, [](std::span<const int>) { return 0; });
  const std::vector<std::string> names{"healthy", "unhealthy"};
  const std::string s = r.to_string(names);
  EXPECT_NE(s.find("healthy"), std::string::npos);
  EXPECT_NE(s.find("accuracy"), std::string::npos);
}

TEST(CrossValidate, StratifiedFoldsCoverEverySample) {
  // A memorizing trainer that fails on unseen rows would score 0 if any
  // test row leaked into training; a constant trainer scores the class
  // prior. Here we check the plumbing: every sample appears in the
  // pooled confusion matrix exactly once.
  std::vector<int> labels;
  for (int i = 0; i < 50; ++i) labels.push_back(i % 2);
  const Dataset d = labeled(labels);
  Rng rng(1);
  const EvalResult r = cross_validate(
      d, 5,
      [](Rng&) -> Trainer {
        return [](const Dataset&) -> Predictor { return [](std::span<const int>) { return 0; }; };
      },
      rng);
  int total = 0;
  for (const auto& row : r.confusion)
    for (int c : row) total += c;
  EXPECT_EQ(total, 50);
  EXPECT_DOUBLE_EQ(r.accuracy, 0.5);
}

TEST(CrossValidate, TransformAppliedToTrainOnly) {
  // The transform doubles class-1 rows. If it leaked into test folds,
  // the confusion total would exceed the dataset size.
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) labels.push_back(i < 30 ? 0 : 1);
  const Dataset d = labeled(labels);
  Rng rng(2);
  std::size_t seen_train_sizes = 0;
  const EvalResult r = cross_validate(
      d, 4,
      [&](Rng&) -> Trainer {
        return [&](const Dataset& train) -> Predictor {
          seen_train_sizes = std::max(seen_train_sizes, train.size());
          return [](std::span<const int>) { return 0; };
        };
      },
      rng, [](const Dataset& train) {
        Dataset out = train;
        for (std::size_t i = 0; i < train.size(); ++i) {
          if (train.y[i] == 1) {
            out.x.push_back(train.x[i]);
            out.y.push_back(1);
            out.w.push_back(1);
          }
        }
        return out;
      });
  int total = 0;
  for (const auto& row : r.confusion)
    for (int c : row) total += c;
  EXPECT_EQ(total, 40);
  // Train folds were enlarged by the transform (30 + extra class-1).
  EXPECT_GT(seen_train_sizes, 30u);
}

TEST(CrossValidate, LearnsWhenModelIsReal) {
  // Feature exactly predicts label; k-fold of a tree-free 1-NN-ish
  // trainer: just test a trainer that thresholds on the feature.
  std::vector<int> labels;
  for (int i = 0; i < 60; ++i) labels.push_back(i % 2);
  const Dataset d = labeled(labels);  // x = i%2 = y
  Rng rng(3);
  const EvalResult r = cross_validate(
      d, 5,
      [](Rng&) -> Trainer {
        return [](const Dataset&) -> Predictor {
          return [](std::span<const int> x) { return x[0]; };
        };
      },
      rng);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
}

TEST(CrossValidate, Rejects) {
  const Dataset d = labeled({0, 1});
  Rng rng(1);
  const TrainerFactory t = [](Rng&) -> Trainer {
    return [](const Dataset&) -> Predictor { return [](std::span<const int>) { return 0; }; };
  };
  EXPECT_THROW(cross_validate(d, 1, t, rng), PreconditionError);
  EXPECT_THROW(cross_validate(d, 3, t, rng), PreconditionError);  // too few samples
  EXPECT_THROW(evaluate(Dataset{}, [](std::span<const int>) { return 0; }), PreconditionError);
}

}  // namespace
}  // namespace mpa
