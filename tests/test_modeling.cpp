// Tests for the health-modeling layer (model zoo, CV, online protocol).
#include <gtest/gtest.h>

#include "util/error.hpp"

#include <cmath>

#include "mpa/modeling.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

// Tickets strongly determined by two practices, plus mild noise — a
// learnable world with paper-like skew.
CaseTable learnable_table(int networks, int months, Rng& rng) {
  CaseTable t;
  for (int n = 0; n < networks; ++n) {
    const double devices = rng.uniform(0, 100);
    for (int m = 0; m < months; ++m) {
      const double events = rng.uniform(0, 40);
      Case c;
      c.network_id = "n" + std::to_string(n);
      c.month = m;
      c[Practice::kNumDevices] = devices;
      c[Practice::kNumChangeEvents] = events;
      c[Practice::kNumVlans] = rng.uniform(0, 50);
      c.tickets = std::floor(devices / 25 + events / 10 + rng.uniform(0, 0.8));
      t.add(c);
    }
  }
  return t;
}

TEST(Modeling, KindNames) {
  EXPECT_EQ(to_string(ModelKind::kDecisionTree), "DT");
  EXPECT_EQ(to_string(ModelKind::kDtBoostOversample), "DT+AB+OS");
  EXPECT_EQ(to_string(ModelKind::kForestBalanced), "RF-balanced");
}

TEST(Modeling, OversamplingFlag) {
  EXPECT_FALSE(uses_oversampling(ModelKind::kDecisionTree));
  EXPECT_FALSE(uses_oversampling(ModelKind::kDtBoost));
  EXPECT_TRUE(uses_oversampling(ModelKind::kDtOversample));
  EXPECT_TRUE(uses_oversampling(ModelKind::kDtBoostOversample));
}

TEST(Modeling, TreeBeatsMajorityOnLearnableData) {
  Rng rng(1);
  const CaseTable t = learnable_table(120, 6, rng);
  Rng eval_rng(2);
  const EvalResult dt = evaluate_model_cv(t, 2, ModelKind::kDecisionTree, eval_rng);
  const EvalResult mj = evaluate_model_cv(t, 2, ModelKind::kMajority, eval_rng);
  EXPECT_GT(dt.accuracy, mj.accuracy + 0.02);
  EXPECT_GT(dt.accuracy, 0.9);
}

TEST(Modeling, AllKindsProduceValidAccuracy) {
  Rng rng(3);
  const CaseTable t = learnable_table(60, 5, rng);
  Rng eval_rng(4);
  for (ModelKind kind : {ModelKind::kMajority, ModelKind::kSvm, ModelKind::kDecisionTree,
                         ModelKind::kDtBoost, ModelKind::kDtOversample,
                         ModelKind::kDtBoostOversample, ModelKind::kForestPlain,
                         ModelKind::kForestBalanced, ModelKind::kForestWeighted}) {
    const EvalResult r = evaluate_model_cv(t, 2, kind, eval_rng);
    EXPECT_GE(r.accuracy, 0.0) << to_string(kind);
    EXPECT_LE(r.accuracy, 1.0) << to_string(kind);
    EXPECT_EQ(r.precision.size(), 2u) << to_string(kind);
  }
}

TEST(Modeling, FiveClassModelsRun) {
  Rng rng(5);
  const CaseTable t = learnable_table(100, 6, rng);
  Rng eval_rng(6);
  const EvalResult r = evaluate_model_cv(t, 5, ModelKind::kDtBoostOversample, eval_rng);
  EXPECT_EQ(r.precision.size(), 5u);
  EXPECT_GT(r.accuracy, 0.4);
}

// Boosted-tree CV, whose tree fits nest inside the folds on a pool,
// answers bit for bit the same with no pool and on 1-, 2- and 8-thread
// pools; the digest pins the serial answers.
TEST(Modeling, CvBitIdenticalWithAndWithoutPools) {
  Rng rng(13);
  const CaseTable t = learnable_table(150, 6, rng);
  const auto cv_digest = [&](ThreadPool* pool) {
    ModelingOptions opts;
    opts.pool = pool;
    Fnv h;
    for (int classes : {2, 5}) {
      Rng eval_rng(14);
      const EvalResult r =
          evaluate_model_cv(t, classes, ModelKind::kDtBoostOversample, eval_rng, opts);
      h.bytes(&r.accuracy, sizeof r.accuracy);
      for (const auto& row : r.confusion)
        for (int n : row) h.u64(static_cast<std::uint64_t>(n));
    }
    return h.value();
  };
  const std::uint64_t want = cv_digest(nullptr);
  EXPECT_EQ(want, 0x24a22f1630634790ULL);
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(cv_digest(&pool), want) << threads << " threads";
  }
}

TEST(Modeling, FinalTreeRootIsInformative) {
  Rng rng(7);
  const CaseTable t = learnable_table(150, 6, rng);
  const DecisionTree tree = fit_final_tree(t, 2);
  // Root must split on one of the two driving practices.
  const int root = tree.root_feature();
  EXPECT_TRUE(root == static_cast<int>(Practice::kNumDevices) ||
              root == static_cast<int>(Practice::kNumChangeEvents))
      << "root feature " << root;
}

TEST(Modeling, OnlinePredictionLearnsFromHistory) {
  Rng rng(8);
  const CaseTable t = learnable_table(100, 10, rng);
  Rng eval_rng(9);
  const double acc =
      online_prediction_accuracy(t, 2, 3, ModelKind::kDecisionTree, eval_rng, 4, 9);
  EXPECT_GT(acc, 0.7);
  const double acc_majority =
      online_prediction_accuracy(t, 2, 3, ModelKind::kMajority, eval_rng, 4, 9);
  EXPECT_GT(acc, acc_majority);
}

TEST(Modeling, OnlinePredictionSkipsEmptyWindows) {
  Rng rng(10);
  const CaseTable t = learnable_table(30, 3, rng);  // months 0..2 only
  Rng eval_rng(11);
  // Asking for months beyond the data returns 0 (no valid windows).
  EXPECT_EQ(online_prediction_accuracy(t, 2, 3, ModelKind::kDecisionTree, eval_rng, 50, 60), 0);
}

TEST(Modeling, OnlineRejectsZeroHistory) {
  Rng rng(12);
  const CaseTable t = learnable_table(20, 3, rng);
  EXPECT_THROW(online_prediction_accuracy(t, 2, 0, ModelKind::kDecisionTree, rng, 1, 2),
               PreconditionError);
}

}  // namespace
}  // namespace mpa
