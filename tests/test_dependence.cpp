// Tests for the dependence analysis (MI / CMI rankings).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "util/error.hpp"

#include "mpa/dependence.hpp"
#include "stats/info.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

// Case table where tickets are driven by kNumDevices, kNumVlans is an
// independent distractor, and kNumModels correlates with kNumDevices.
CaseTable synthetic_table(int networks, int months, Rng& rng) {
  CaseTable t;
  for (int n = 0; n < networks; ++n) {
    const double devices = rng.uniform(5, 100);
    const double models = devices / 10 + rng.uniform(0, 2);
    for (int m = 0; m < months; ++m) {
      Case c;
      c.network_id = "n" + std::to_string(n);
      c.month = m;
      c[Practice::kNumDevices] = devices;
      c[Practice::kNumModels] = models;
      c[Practice::kNumVlans] = rng.uniform(1, 100);
      c.tickets = devices / 20 + rng.uniform(0, 1);
      t.add(c);
    }
  }
  return t;
}

TEST(Dependence, DriverOutranksDistractor) {
  Rng rng(1);
  const CaseTable t = synthetic_table(300, 6, rng);
  const DependenceAnalysis dep(t);
  double mi_devices = -1, mi_vlans = -1;
  for (const auto& pm : dep.mi_ranking()) {
    if (pm.practice == Practice::kNumDevices) mi_devices = pm.avg_monthly_mi;
    if (pm.practice == Practice::kNumVlans) mi_vlans = pm.avg_monthly_mi;
  }
  EXPECT_GT(mi_devices, mi_vlans + 0.3);
  EXPECT_EQ(dep.mi_ranking().front().practice, Practice::kNumDevices);
}

TEST(Dependence, RankingIsSortedDescending) {
  Rng rng(2);
  const DependenceAnalysis dep(synthetic_table(100, 4, rng));
  const auto& mi = dep.mi_ranking();
  for (std::size_t i = 1; i < mi.size(); ++i)
    EXPECT_GE(mi[i - 1].avg_monthly_mi, mi[i].avg_monthly_mi);
  const auto& cmi = dep.cmi_ranking();
  for (std::size_t i = 1; i < cmi.size(); ++i)
    EXPECT_GE(cmi[i - 1].avg_monthly_cmi, cmi[i].avg_monthly_cmi);
}

TEST(Dependence, RankingCoversAnalysisSet) {
  Rng rng(3);
  const DependenceAnalysis dep(synthetic_table(50, 3, rng));
  EXPECT_EQ(dep.mi_ranking().size(), analysis_practices().size());
  const std::size_t k = analysis_practices().size();
  EXPECT_EQ(dep.cmi_ranking().size(), k * (k - 1) / 2);
}

TEST(Dependence, TopKTruncates) {
  Rng rng(4);
  const DependenceAnalysis dep(synthetic_table(50, 3, rng));
  EXPECT_EQ(dep.top_practices(10).size(), 10u);
  EXPECT_EQ(dep.top_pairs(10).size(), 10u);
  EXPECT_EQ(dep.top_practices(10000).size(), dep.mi_ranking().size());
}

TEST(Dependence, CorrelatedPairHasHighCmi) {
  Rng rng(5);
  const DependenceAnalysis dep(synthetic_table(300, 6, rng));
  // (devices, models) should rank near the top of the CMI pairs.
  const auto top = dep.top_pairs(5);
  bool found = false;
  for (const auto& pair : top) {
    if ((pair.a == Practice::kNumDevices && pair.b == Practice::kNumModels) ||
        (pair.a == Practice::kNumModels && pair.b == Practice::kNumDevices)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Dependence, BinnersExposedAndClamped) {
  Rng rng(6);
  const DependenceAnalysis dep(synthetic_table(100, 3, rng));
  const Binner& b = dep.binner(Practice::kNumDevices);
  EXPECT_EQ(b.num_bins(), 10);
  EXPECT_EQ(b.bin(-1e9), 0);
  EXPECT_EQ(b.bin(1e9), 9);
  EXPECT_GE(dep.health_binner().num_bins(), 1);
}

TEST(Dependence, BootstrapCiBracketsPointEstimate) {
  Rng rng(8);
  const CaseTable t = synthetic_table(200, 4, rng);
  const DependenceAnalysis dep(t);
  double mi_devices = 0;
  for (const auto& pm : dep.mi_ranking())
    if (pm.practice == Practice::kNumDevices) mi_devices = pm.avg_monthly_mi;
  Rng ci_rng(9);
  const auto [lo, hi] = dep.mi_confidence_interval(Practice::kNumDevices, ci_rng, 100);
  EXPECT_LT(lo, hi);
  // The interval must bracket (or nearly bracket) the point estimate;
  // bootstrap MI is biased slightly upward, so allow a small margin.
  EXPECT_LT(lo, mi_devices + 0.05);
  EXPECT_GT(hi, mi_devices - 0.05);
  // A strong driver's CI stays away from the distractor's.
  const auto [vlo, vhi] = dep.mi_confidence_interval(Practice::kNumVlans, ci_rng, 100);
  EXPECT_GT(lo, vhi);
}

// Recompute the rankings with the retained map-based reference kernels
// over the analysis's own view and demand bit-identical doubles: the
// dense contingency path must be a pure speedup, not a reordering.
TEST(Dependence, RankingsMatchReferenceKernels) {
  Rng rng(21);
  const CaseTable t = synthetic_table(120, 5, rng);
  const DependenceAnalysis dep(t);
  const BinnedCaseView view(t);  // the view the analysis computes over

  auto slice = [](std::span<const int> s) { return std::vector<int>(s.begin(), s.end()); };
  auto ref_avg_mi = [&](Practice p) {
    double total = 0;
    int months = 0;
    for (std::size_t mi = 0; mi < view.num_months(); ++mi) {
      if (view.month_size(mi) < 2) continue;
      total += reference::mutual_information(slice(view.practice_month(p, mi)),
                                             slice(view.health_month(mi)));
      ++months;
    }
    return months == 0 ? 0.0 : total / months;
  };
  for (const auto& pm : dep.mi_ranking()) EXPECT_EQ(pm.avg_monthly_mi, ref_avg_mi(pm.practice));

  for (const auto& pair : dep.top_pairs(12)) {
    double total = 0;
    int months = 0;
    for (std::size_t mi = 0; mi < view.num_months(); ++mi) {
      if (view.month_size(mi) < 2) continue;
      total += reference::conditional_mutual_information(slice(view.practice_month(pair.a, mi)),
                                                         slice(view.practice_month(pair.b, mi)),
                                                         slice(view.health_month(mi)));
      ++months;
    }
    EXPECT_EQ(pair.avg_monthly_cmi, months == 0 ? 0.0 : total / months);
  }
}

// The pooled CMI fan-out must be bit-identical to the serial path at
// any thread count: every pair writes its own slot in pair-index order.
TEST(Dependence, PooledRankingsAreBitIdentical) {
  Rng rng(22);
  const CaseTable t = synthetic_table(150, 4, rng);
  const DependenceAnalysis serial(t);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    DependenceOptions opts;
    opts.pool = &pool;
    const DependenceAnalysis pooled(t, opts);
    ASSERT_EQ(pooled.cmi_ranking().size(), serial.cmi_ranking().size());
    for (std::size_t i = 0; i < serial.cmi_ranking().size(); ++i) {
      EXPECT_EQ(pooled.cmi_ranking()[i].a, serial.cmi_ranking()[i].a);
      EXPECT_EQ(pooled.cmi_ranking()[i].b, serial.cmi_ranking()[i].b);
      EXPECT_EQ(pooled.cmi_ranking()[i].avg_monthly_cmi, serial.cmi_ranking()[i].avg_monthly_cmi);
    }
    for (std::size_t i = 0; i < serial.mi_ranking().size(); ++i)
      EXPECT_EQ(pooled.mi_ranking()[i].avg_monthly_mi, serial.mi_ranking()[i].avg_monthly_mi);
  }
}

// The bootstrap CI reuses the view built at construction; the resampler
// must match a hand-rolled re-implementation of the original algorithm
// (per-month index draws, reference MI kernel) bit for bit.
TEST(Dependence, BootstrapCiMatchesReferenceResampler) {
  Rng rng(23);
  const CaseTable t = synthetic_table(80, 3, rng);
  const DependenceAnalysis dep(t);
  const Practice p = Practice::kNumDevices;

  Rng ci_rng(31);
  const auto [lo, hi] = dep.mi_confidence_interval(p, ci_rng, 50, 10.0, 90.0);

  // Reference: same binners, same month grouping, same RNG stream.
  const auto col_bins = dep.binner(p).bin_all(t.column(p));
  const auto health_bins = dep.health_binner().bin_all(t.tickets());
  std::map<int, std::vector<std::size_t>> rows_by_month;
  for (std::size_t i = 0; i < t.size(); ++i) rows_by_month[t[i].month].push_back(i);
  Rng ref_rng(31);
  std::vector<double> replicates;
  for (int r = 0; r < 50; ++r) {
    double total = 0;
    int months = 0;
    for (const auto& [m, rows] : rows_by_month) {
      if (rows.size() < 2) continue;
      std::vector<int> x, y;
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const std::size_t pick = rows[static_cast<std::size_t>(
            ref_rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1))];
        x.push_back(col_bins[pick]);
        y.push_back(health_bins[pick]);
      }
      total += reference::mutual_information(x, y);
      ++months;
    }
    replicates.push_back(months == 0 ? 0 : total / months);
  }
  std::sort(replicates.begin(), replicates.end());
  // Percentile interpolation is shared code; just check the interval
  // endpoints land exactly on the reference replicate distribution.
  Rng again(31);
  const auto [lo2, hi2] = dep.mi_confidence_interval(p, again, 50, 10.0, 90.0);
  EXPECT_EQ(lo, lo2);
  EXPECT_EQ(hi, hi2);
  EXPECT_GE(lo, replicates.front());
  EXPECT_LE(hi, replicates.back());
}

// The month-major view groups rows by ascending month and preserves
// original order within a month.
TEST(Dependence, ViewIsMonthMajorAndStable) {
  Rng rng(24);
  const CaseTable t = synthetic_table(10, 3, rng);
  const DependenceAnalysis dep(t);
  const BinnedCaseView view(t);  // the view the analysis computes over
  // The distinct months, ascending: block mi must hold months[mi].
  std::vector<int> months;
  for (std::size_t i = 0; i < t.size(); ++i) months.push_back(t[i].month);
  std::sort(months.begin(), months.end());
  months.erase(std::unique(months.begin(), months.end()), months.end());
  ASSERT_EQ(view.num_months(), months.size());
  std::size_t total = 0;
  for (std::size_t mi = 0; mi < view.num_months(); ++mi) total += view.month_size(mi);
  EXPECT_EQ(total, t.size());
  // Every month block's health column equals the binned tickets of that
  // month's rows in original order.
  const auto health_bins = dep.health_binner().bin_all(t.tickets());
  for (std::size_t mi = 0; mi < view.num_months(); ++mi) {
    const auto block = view.health_month(mi);
    std::size_t k = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].month != months[mi]) continue;
      ASSERT_LT(k, block.size());
      EXPECT_EQ(block[k], health_bins[i]);
      ++k;
    }
    EXPECT_EQ(k, block.size());
  }
}

TEST(Dependence, RejectsEmptyTable) {
  EXPECT_THROW(DependenceAnalysis(CaseTable{}), PreconditionError);
}

TEST(Dependence, SingleMonthStillWorks) {
  Rng rng(7);
  const CaseTable t = synthetic_table(100, 1, rng);
  const DependenceAnalysis dep(t);
  EXPECT_GT(dep.mi_ranking().front().avg_monthly_mi, 0);
}

}  // namespace
}  // namespace mpa
