// Whole-pipeline integration tests: synthetic OSP -> inference ->
// dependence -> causal -> prediction. These validate that the analytics
// recover the generator's wired-in ground truth from raw artifacts only.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/session.hpp"
#include "mpa/mpa.hpp"
#include "simulation/osp_generator.hpp"
#include "stats/descriptive.hpp"

namespace mpa {
namespace {

// One shared medium-size dataset for all integration tests (generation
// and inference dominate the cost; build once).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    OspOptions opts;
    opts.num_networks = 200;
    opts.num_months = 12;
    opts.seed = 2024;
    data_ = new OspDataset(generate_osp(opts));
    InferenceOptions iopts;
    iopts.num_months = opts.num_months;
    table_ = new CaseTable(
        infer_case_table(data_->inventory, data_->snapshots, data_->tickets, iopts));
  }
  static void TearDownTestSuite() {
    delete table_;
    delete data_;
    table_ = nullptr;
    data_ = nullptr;
  }

  static OspDataset* data_;
  static CaseTable* table_;
};

OspDataset* PipelineTest::data_ = nullptr;
CaseTable* PipelineTest::table_ = nullptr;

TEST_F(PipelineTest, CaseTableShape) {
  EXPECT_EQ(table_->size(), 200u * 12u);
  EXPECT_EQ(table_->network_ids().size(), 200u);
}

TEST_F(PipelineTest, InferredDesignMetricsMatchGroundTruth) {
  // Month-0 inferred device/model/role counts must equal the design's.
  const CaseTable m0 = table_->month(0);
  for (std::size_t n = 0; n < data_->designs.size(); ++n) {
    const NetworkDesign& d = data_->designs[n];
    const Case* row = nullptr;
    for (const auto& c : m0.cases())
      if (c.network_id == d.net.network_id) row = &c;
    ASSERT_NE(row, nullptr);
    EXPECT_DOUBLE_EQ((*row)[Practice::kNumDevices], static_cast<double>(d.devices.size()));
    EXPECT_DOUBLE_EQ((*row)[Practice::kNumWorkloads], static_cast<double>(d.net.workloads.size()));
    std::set<std::string> models;
    for (const auto& dev : d.devices) models.insert(dev.model);
    EXPECT_DOUBLE_EQ((*row)[Practice::kNumModels], static_cast<double>(models.size()));
  }
}

TEST_F(PipelineTest, InferredEventsTrackTrueEvents) {
  // Snapshot loss and grouping noise make inference approximate, but
  // inferred monthly event counts must correlate strongly with the
  // generator's ground truth.
  std::vector<double> inferred, truth;
  for (std::size_t n = 0; n < data_->designs.size(); ++n) {
    const std::string& id = data_->designs[n].net.network_id;
    for (const auto& c : table_->cases()) {
      if (c.network_id != id) continue;
      inferred.push_back(c[Practice::kNumChangeEvents]);
      truth.push_back(data_->true_ops[n][static_cast<std::size_t>(c.month)].events);
    }
  }
  EXPECT_GT(pearson(inferred, truth), 0.9);
}

TEST_F(PipelineTest, HealthSkewMatchesPaperShape) {
  const auto tickets = table_->tickets();
  int healthy = 0;
  for (double t : tickets)
    if (t <= 1) ++healthy;
  const double frac = healthy / static_cast<double>(tickets.size());
  // Paper: 64.8% healthy. Allow generous slack for the smaller sample.
  EXPECT_GT(frac, 0.5);
  EXPECT_LT(frac, 0.8);
}

TEST_F(PipelineTest, DependenceRecoversWiredPractices) {
  const DependenceAnalysis dep(*table_);
  const auto top = dep.top_practices(10);
  auto in_top = [&](Practice p) {
    return std::any_of(top.begin(), top.end(),
                       [&](const PracticeMi& pm) { return pm.practice == p; });
  };
  // The strongest wired effects must surface in the top 10.
  EXPECT_TRUE(in_top(Practice::kNumChangeEvents));
  EXPECT_TRUE(in_top(Practice::kNumChangeTypes));
  EXPECT_TRUE(in_top(Practice::kNumDevices));
}

TEST_F(PipelineTest, CausalAnalysisFindsWiredEffects) {
  // At this reduced test scale individual 1:2 contrasts are power-
  // limited, so assert that a clear majority of the strongly-wired
  // practices shows a positive low-bin signal (p < 0.05 with more
  // "more tickets" pairs). The strict paper-scale reproduction (1e-3
  // threshold, 850 networks) lives in bench/table07_causal_low.
  int found = 0, tested = 0;
  for (Practice p : {Practice::kNumChangeEvents, Practice::kNumChangeTypes,
                     Practice::kFracEventsAcl, Practice::kNumDevices}) {
    const CausalResult res = causal_analysis(*table_, p);
    const ComparisonResult* low = res.low_bins();
    if (low == nullptr || low->pairs < 50) continue;
    ++tested;
    if (low->outcome.p_value < 0.05 && low->outcome.n_pos > low->outcome.n_neg) ++found;
  }
  EXPECT_GE(tested, 3);
  EXPECT_GE(found, 2) << "only " << found << " of " << tested
                      << " wired practices showed a positive low-bin effect";
}

TEST_F(PipelineTest, CausalAnalysisRejectsNonCausalComplexity) {
  // Intra-device complexity has NO wired effect — it correlates with
  // health only through confounders. The matched design must not flag
  // its low-bin comparison as strongly causal (Table 7's null row).
  const CausalResult res = causal_analysis(*table_, Practice::kIntraDeviceComplexity);
  const ComparisonResult* low = res.low_bins();
  ASSERT_NE(low, nullptr);
  EXPECT_FALSE(low->causal && low->outcome.p_value < 1e-6);
}

TEST_F(PipelineTest, TwoClassTreeBeatsMajority) {
  Rng rng(5);
  const EvalResult dt = evaluate_model_cv(*table_, 2, ModelKind::kDecisionTree, rng);
  const EvalResult mj = evaluate_model_cv(*table_, 2, ModelKind::kMajority, rng);
  EXPECT_GT(dt.accuracy, mj.accuracy + 0.05);
}

TEST_F(PipelineTest, OversamplingLiftsMinorityRecall) {
  Rng rng(6);
  const EvalResult plain = evaluate_model_cv(*table_, 5, ModelKind::kDecisionTree, rng);
  const EvalResult os = evaluate_model_cv(*table_, 5, ModelKind::kDtOversample, rng);
  // Figure 8's shape: oversampling improves recall for the middle
  // (good/moderate) classes. Compare their mean recall.
  const double mid_plain = (plain.recall[1] + plain.recall[2]) / 2;
  const double mid_os = (os.recall[1] + os.recall[2]) / 2;
  // Allow a small tolerance: at this scale the lift can be modest; the
  // fig08 bench demonstrates the full-scale effect.
  EXPECT_GE(mid_os, mid_plain - 0.03);
}

TEST_F(PipelineTest, LintMetricsPopulateCaseTable) {
  bool any_issue = false;
  for (const auto& c : table_->cases()) {
    const double issues = c[Practice::kLintIssues];
    const double errors = c[Practice::kLintErrors];
    const double rules = c[Practice::kLintRulesHit];
    const double density = c[Practice::kLintDensity];
    EXPECT_GE(issues, 0.0);
    EXPECT_LE(errors, issues);
    EXPECT_LE(rules, issues);
    if (issues > 0) {
      any_issue = true;
      EXPECT_GT(density, 0.0);
      EXPECT_GE(rules, 1.0);
    }
    // The generator wires consistent references and routing, so the
    // only expected findings are hygiene/info; nothing at error level.
    EXPECT_DOUBLE_EQ(errors, 0.0);
  }
  EXPECT_TRUE(any_issue) << "lint metrics never fired on the synthetic fleet";
}

TEST_F(PipelineTest, LintMetricsSurviveCsvRoundTrip) {
  const CaseTable parsed = CaseTable::from_csv(table_->to_csv());
  ASSERT_EQ(parsed.size(), table_->size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed[i][Practice::kLintIssues], (*table_)[i][Practice::kLintIssues]);
    EXPECT_DOUBLE_EQ(parsed[i][Practice::kLintRulesHit], (*table_)[i][Practice::kLintRulesHit]);
    // Densities are ratios, so they round-trip at CSV precision only.
    EXPECT_NEAR(parsed[i][Practice::kLintDensity], (*table_)[i][Practice::kLintDensity], 1e-5);
  }
}

TEST_F(PipelineTest, LintMetricsSurviveSessionMemoizationAndInvalidation) {
  OspOptions gopts;
  gopts.num_networks = 30;
  gopts.num_months = 4;
  gopts.seed = 77;
  const auto open = [&gopts] {
    OspDataset data = generate_osp(gopts);
    SessionOptions sopts;
    sopts.threads = 2;
    sopts.inference.num_months = gopts.num_months;
    return AnalysisSession(std::move(data.inventory), std::move(data.snapshots),
                           std::move(data.tickets), std::move(sopts));
  };
  AnalysisSession session = open();
  const std::string before = session.case_table().to_csv();
  EXPECT_NE(before.find("No._of_lint_issues"), std::string::npos);
  bool any = false;
  for (const auto& c : session.case_table().cases())
    if (c[Practice::kLintIssues] > 0) any = true;
  EXPECT_TRUE(any);
  // A fresh session over the same data rebuilds the lint columns exactly.
  EXPECT_EQ(open().case_table().to_csv(), before);
}

TEST_F(PipelineTest, LintMetricsFeedDependenceAndCausal) {
  const DependenceAnalysis dep(*table_);
  bool ranked = false;
  for (const PracticeMi& pm : dep.mi_ranking()) {
    if (pm.practice != Practice::kLintIssues) continue;
    ranked = true;
    EXPECT_GE(pm.avg_monthly_mi, 0.0);
  }
  EXPECT_TRUE(ranked) << "dependence analysis skipped the lint-issue practice";
  const CausalResult res = causal_analysis(*table_, Practice::kLintIssues);
  EXPECT_FALSE(res.comparisons.empty());
}

TEST_F(PipelineTest, OnlinePredictionReasonable) {
  Rng rng(7);
  const double acc2 =
      online_prediction_accuracy(*table_, 2, 3, ModelKind::kDecisionTree, rng, 4, 9);
  EXPECT_GT(acc2, 0.6);
}

}  // namespace
}  // namespace mpa
