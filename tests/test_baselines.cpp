// Tests for the majority and SVM baselines.
#include <gtest/gtest.h>

#include "feature_rows.hpp"
#include "util/error.hpp"

#include "learn/baselines.hpp"

namespace mpa {
namespace {

TEST(Majority, PredictsDominantClass) {
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 2;
  d.feature_names = {"f"};
  d.x = feature_rows({{0}, {1}, {0}});
  d.y = {1, 1, 0};
  d.w = {1, 1, 1};
  const auto m = MajorityClassifier::fit(d);
  EXPECT_EQ(m.predict(std::vector<int>{0}), 1);
  EXPECT_EQ(m.predict(std::vector<int>{1}), 1);
}

TEST(Majority, RespectsWeights) {
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 2;
  d.feature_names = {"f"};
  d.x = feature_rows({{0}, {1}});
  d.y = {0, 1};
  d.w = {1, 9};
  EXPECT_EQ(MajorityClassifier::fit(d).predict(std::vector<int>{0}), 1);
}

TEST(Majority, RejectsEmpty) {
  EXPECT_THROW(MajorityClassifier::fit(Dataset{}), PreconditionError);
}

Dataset linearly_separable(int n, Rng& rng) {
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 5;
  d.feature_names = {"a", "b"};
  for (int i = 0; i < n; ++i) {
    const int a = static_cast<int>(rng.uniform_int(0, 4));
    const int b = static_cast<int>(rng.uniform_int(0, 4));
    d.x.push_back(std::vector<int>{a, b});
    d.y.push_back(a + b >= 4 ? 1 : 0);
    d.w.push_back(1);
  }
  return d;
}

TEST(Svm, LearnsLinearBoundary) {
  Rng rng(1);
  const Dataset d = linearly_separable(500, rng);
  const LinearSvm svm = LinearSvm::fit(d, rng);
  int correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    if (svm.predict(d.x[i]) == d.y[i]) ++correct;
  EXPECT_GT(correct / static_cast<double>(d.size()), 0.9);
}

TEST(Svm, MulticlassOneVsRest) {
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
  const LinearSvm svm = LinearSvm::fit(d, rng);
  // One-vs-rest with a single ordinal feature separates at least the
  // extreme classes (the middle class is not linearly separable).
  EXPECT_EQ(svm.predict(std::vector<int>{0}), 0);
  EXPECT_EQ(svm.predict(std::vector<int>{2}), 2);
}

TEST(Svm, RejectsEmpty) {
  Rng rng(1);
  EXPECT_THROW(LinearSvm::fit(Dataset{}, rng), PreconditionError);
}

}  // namespace
}  // namespace mpa
