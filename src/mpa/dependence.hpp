// Dependence analysis (§5.1): rank practices by average monthly mutual
// information with network health (Table 3), and practice pairs by
// conditional mutual information given health (Table 4).
//
// The analysis builds one month-major BinnedCaseView up front (every
// column binned once, months contiguous) and runs the dense contingency
// kernels over its zero-copy spans; the ~P^2/2 CMI pairs optionally fan
// out across a ThreadPool. Each pair's result is written to its own
// slot in pair-index order, so rankings are bit-identical at any thread
// count.
#pragma once

#include <utility>
#include <vector>

#include "metrics/case_table.hpp"
#include "mpa/binned_view.hpp"
#include "stats/binning.hpp"
#include "util/rng.hpp"

namespace mpa {

class ThreadPool;

struct DependenceOptions {
  /// Fan the CMI pairs out on this pool (null = serial). Results are
  /// bit-identical either way.
  ThreadPool* pool = nullptr;
  /// Record per-pair CMI compute time (pair_compute_seconds()); the
  /// engine enables this when observability is on.
  bool record_pair_times = false;
};

/// MI of one practice with health.
struct PracticeMi {
  Practice practice{};
  double avg_monthly_mi = 0;
};

/// CMI of a practice pair given health.
struct PairCmi {
  Practice a{};
  Practice b{};
  double avg_monthly_cmi = 0;
};

class DependenceAnalysis {
 public:
  /// Bins every column once (bounds fitted on the full table), then
  /// computes per-month MI/CMI and averages across months.
  explicit DependenceAnalysis(const CaseTable& table, const DependenceOptions& opts = {});

  /// All practices, sorted by MI with health, descending.
  const std::vector<PracticeMi>& mi_ranking() const { return mi_; }

  /// Top-k practices (Table 3).
  std::vector<PracticeMi> top_practices(std::size_t k) const;

  /// All practice pairs, sorted by CMI given health, descending.
  const std::vector<PairCmi>& cmi_ranking() const { return cmi_; }

  /// Top-k pairs (Table 4).
  std::vector<PairCmi> top_pairs(std::size_t k) const;

  /// Nonparametric bootstrap confidence interval for one practice's
  /// avg monthly MI over the analysis's own case table: months are
  /// kept fixed; cases are resampled with replacement within each
  /// month, directly into a scratch contingency table (no per-round
  /// copies). Reuses the month-major view built at construction.
  /// Returns the (lo_pct, hi_pct) percentile interval over `rounds`
  /// replicates.
  std::pair<double, double> mi_confidence_interval(Practice p, Rng& rng, int rounds = 200,
                                                   double lo_pct = 2.5,
                                                   double hi_pct = 97.5) const;

  /// The fitted binner for a practice (bench code reuses it for plots).
  const Binner& binner(Practice p) const { return view_.binner(p); }
  const Binner& health_binner() const { return view_.health_binner(); }

  /// Wall-time per CMI pair, in cmi-pair index order (empty unless
  /// DependenceOptions::record_pair_times was set).
  const std::vector<double>& pair_compute_seconds() const { return pair_seconds_; }

 private:
  BinnedCaseView view_;
  std::vector<PracticeMi> mi_;
  std::vector<PairCmi> cmi_;
  std::vector<double> pair_seconds_;
};

}  // namespace mpa
