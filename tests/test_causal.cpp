// Tests for the matched-design causal analysis.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "mpa/causal.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

// Synthetic world: treatment practice T causes tickets; confounder Z
// drives both T and tickets; placebo P is pure noise.
CaseTable causal_world(int n, Rng& rng, double treatment_effect) {
  CaseTable t;
  for (int i = 0; i < n; ++i) {
    const double z = rng.uniform(0, 10);
    const double treatment = z + rng.uniform(0, 10);  // confounded with z
    const double placebo = rng.uniform(0, 10);
    Case c;
    c.network_id = "n" + std::to_string(i);
    c.month = i % 5;
    c[Practice::kNumChangeEvents] = treatment;
    c[Practice::kNumDevices] = z;
    c[Practice::kNumVlans] = placebo;
    c.tickets = std::max(0.0, treatment_effect * treatment + 0.8 * z + rng.normal(0, 1.0));
    t.add(c);
  }
  return t;
}

TEST(Causal, DetectsRealEffect) {
  Rng rng(1);
  const CaseTable t = causal_world(4000, rng, 0.8);
  const CausalResult res = causal_analysis(t, Practice::kNumChangeEvents);
  ASSERT_FALSE(res.comparisons.empty());
  const ComparisonResult* low = res.low_bins();
  ASSERT_NE(low, nullptr);
  EXPECT_EQ(low->label(), "1:2");
  EXPECT_GT(low->pairs, 50u);
  EXPECT_GT(low->outcome.n_pos, low->outcome.n_neg);
  EXPECT_LT(low->outcome.p_value, 1e-3);
  EXPECT_TRUE(low->causal);
}

TEST(Causal, PlaceboNotFlagged) {
  Rng rng(2);
  const CaseTable t = causal_world(4000, rng, 0.8);
  const CausalResult res = causal_analysis(t, Practice::kNumVlans);
  for (const auto& cmp : res.comparisons) {
    if (!cmp.balanced) continue;
    EXPECT_GT(cmp.outcome.p_value, 1e-3)
        << "placebo flagged causal at " << cmp.label();
  }
}

TEST(Causal, ConfoundedButNonCausalPracticeRejected) {
  // kNumDevices (z) DOES cause tickets here, so instead test a variable
  // correlated with tickets only through z: add one.
  Rng rng(3);
  CaseTable t;
  for (int i = 0; i < 4000; ++i) {
    const double z = rng.uniform(0, 10);
    Case c;
    c.network_id = "n" + std::to_string(i);
    c.month = i % 5;
    c[Practice::kNumDevices] = z;
    // Mirror of z + noise: correlates with tickets but has no effect of
    // its own once z is matched.
    c[Practice::kIntraDeviceComplexity] = z + rng.normal(0, 1.5);
    c[Practice::kNumChangeEvents] = rng.uniform(0, 10);
    c.tickets = std::max(0.0, z + rng.normal(0, 1.0));
    t.add(c);
  }
  const CausalResult res = causal_analysis(t, Practice::kIntraDeviceComplexity);
  const ComparisonResult* low = res.low_bins();
  ASSERT_NE(low, nullptr);
  // Either the matching exposes no significant effect, or balance fails;
  // it must NOT be declared causal.
  EXPECT_FALSE(low->causal && low->outcome.p_value < 1e-6);
}

TEST(Causal, ComparisonPointsCoverAdjacentBins) {
  Rng rng(4);
  const CaseTable t = causal_world(2000, rng, 0.5);
  const CausalResult res = causal_analysis(t, Practice::kNumChangeEvents);
  EXPECT_LE(res.comparisons.size(), 4u);
  for (std::size_t i = 0; i < res.comparisons.size(); ++i) {
    EXPECT_EQ(res.comparisons[i].untreated_bin, static_cast<int>(i));
    EXPECT_GT(res.comparisons[i].untreated_cases, 0u);
    EXPECT_GT(res.comparisons[i].treated_cases, 0u);
    EXPECT_LE(res.comparisons[i].pairs, res.comparisons[i].treated_cases);
  }
}

// Every analysis practice confounded with one common cause: the propensity
// fits run over all 32 confounder columns, and the largest comparison
// point holds most of the rows. No pool and 1-, 2- and 8-thread pools
// give the same bits; the digest pins the serial answers.
TEST(Causal, BitIdenticalWithAndWithoutPools) {
  Rng rng(6);
  CaseTable t;
  for (int i = 0; i < 3000; ++i) {
    const double z = rng.uniform(0, 10);
    Case c;
    c.network_id = "n" + std::to_string(i);
    c.month = i % 5;
    int k = 0;
    for (Practice p : analysis_practices()) c[p] = rng.uniform(0, 4) + (k++ % 3) * z * z;
    c.tickets = std::max(0.0, 0.3 * c[Practice::kNumChangeEvents] + z + rng.normal(0, 1.0));
    t.add(c);
  }
  const auto causal_digest = [&](ThreadPool* pool) {
    CausalOptions opts;
    opts.pool = pool;
    Fnv h;
    for (Practice p : {Practice::kNumChangeEvents, Practice::kNumDevices}) {
      const CausalResult r = causal_analysis(t, p, opts);
      for (const ComparisonResult& c : r.comparisons) {
        h.u64(static_cast<std::uint64_t>(c.untreated_bin));
        h.u64(c.untreated_cases);
        h.u64(c.treated_cases);
        h.u64(c.pairs);
        h.u64(c.untreated_matched);
        for (const double v : {c.propensity_balance.std_diff_of_means,
                               c.propensity_balance.variance_ratio, c.worst_abs_std_diff,
                               c.vr_pass_fraction, c.outcome.p_value})
          h.bytes(&v, sizeof v);
        h.u64(static_cast<std::uint64_t>(c.outcome.n_pos));
        h.u64(static_cast<std::uint64_t>(c.outcome.n_neg));
        h.u64(c.causal ? 1 : 0);
      }
    }
    return h.value();
  };
  const std::uint64_t want = causal_digest(nullptr);
  EXPECT_EQ(want, 0x22df11909bcc5c8fULL);
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(causal_digest(&pool), want) << threads << " threads";
  }
}

TEST(Causal, LabelsMatchPaperNotation) {
  ComparisonResult c;
  c.untreated_bin = 0;
  EXPECT_EQ(c.label(), "1:2");
  c.untreated_bin = 3;
  EXPECT_EQ(c.label(), "4:5");
}

TEST(Causal, RejectsEmptyTable) {
  EXPECT_THROW(causal_analysis(CaseTable{}, Practice::kNumDevices), PreconditionError);
}

TEST(Causal, StricterThresholdReducesCausalFindings) {
  Rng rng(5);
  const CaseTable t = causal_world(3000, rng, 0.15);  // weak effect
  CausalOptions strict;
  strict.p_threshold = 1e-12;
  const CausalResult res = causal_analysis(t, Practice::kNumChangeEvents, strict);
  for (const auto& cmp : res.comparisons) {
    if (cmp.outcome.p_value > 1e-12) {
      EXPECT_FALSE(cmp.causal);
    }
  }
}

}  // namespace
}  // namespace mpa
