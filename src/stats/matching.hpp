// Matched-design quasi-experiments via propensity scores (§5.2.3-5.2.4).
//
// "Each treated case is paired with an untreated case that results in
// the smallest absolute difference in their propensity scores. To
// obtain the best possible pairings, we match with replacement. We also
// follow the common practice of discarding treated (untreated) cases
// whose propensity score falls outside the range of propensity scores
// for untreated (treated) cases."
//
// Balance verification follows Stuart: for each confounder the absolute
// standardized difference of means should be < 0.25 and the variance
// ratio strictly between 0.5 and 2, the open interval (0.5, 2).
#pragma once

#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "stats/logistic.hpp"

namespace mpa {

/// One matched (treated, untreated) pair, indices into the original
/// treated / untreated matrices.
struct MatchedPair {
  std::size_t treated_index = 0;
  std::size_t untreated_index = 0;
  double score_diff = 0;  ///< |propensity(T) - propensity(U)|.
};

/// Balance diagnostics for one variable over the matched samples.
struct BalanceStat {
  double std_diff_of_means = 0;  ///< (meanT - meanU) / sdT.
  double variance_ratio = 1;     ///< varT / varU.

  bool ok(double mean_thresh = 0.25, double var_lo = 0.5, double var_hi = 2.0) const {
    return std::abs(std_diff_of_means) < mean_thresh && variance_ratio > var_lo &&
           variance_ratio < var_hi;
  }
};

struct MatchOptions {
  // Defaults below implement covariate matching within a wide
  // propensity caliper with limited replacement — the combination that
  // gave the best covariate balance on heavily-confounded practice
  // data (see DESIGN.md).
  /// Caliper: maximum allowed |score difference| for a pair, in units
  /// of the pooled propensity-score standard deviation (a standard
  /// matching refinement; Stuart 2010 recommends ~0.25 sd). Treated
  /// cases whose nearest neighbour is farther than the caliper are
  /// dropped. <= 0 disables.
  double caliper_sd = 0.25;
  /// Matching with *limited* replacement: each untreated case may be
  /// reused at most this many times (0 = unlimited, 1 = without
  /// replacement). Reuse of a few oddball untreated cases is the main
  /// way with-replacement matching destroys covariate balance.
  int max_reuse = 6;
  /// Covariate matching within the propensity caliper (Rubin & Thomas):
  /// among untreated candidates whose score lies within the caliper
  /// (the 128 nearest in score at most), pick the one minimizing
  /// standardized-Euclidean distance over the confounders instead of
  /// raw score distance. Markedly improves per-covariate balance when
  /// many cases share similar scores.
  bool covariates_within_caliper = true;
};

/// Full result of one matched design.
struct MatchResult {
  std::vector<MatchedPair> pairs;
  std::vector<double> treated_scores;    ///< Propensity per treated case.
  std::vector<double> untreated_scores;  ///< Propensity per untreated case.
  std::size_t treated_total = 0;         ///< Before common-support trimming.
  std::size_t untreated_total = 0;
  std::size_t untreated_matched_distinct = 0;  ///< Distinct untreated used.
  BalanceStat propensity_balance;        ///< Over matched scores.
  std::vector<BalanceStat> confounder_balance;  ///< Per confounder column.

  /// Largest |standardized difference of means| across confounders
  /// (infinity when any is degenerate-imbalanced; 0 when no pairs).
  double worst_abs_std_diff() const;
  /// Fraction of confounders whose variance ratio lies strictly
  /// between var_lo and var_hi, the open interval (var_lo, var_hi)
  /// (1 when there are no confounders).
  double variance_ratio_pass_fraction(double var_lo = 0.5, double var_hi = 2.0) const;
};

/// Run the full pipeline: fit propensity model on treated-vs-untreated,
/// trim to common support, k=1 nearest-neighbour match with
/// replacement, and compute balance diagnostics. Requires at least one
/// case on each side and rows of equal width (>= 1 confounder). The
/// propensity fit runs its sums on `fit_pool` (LogisticRegression::fit).
MatchResult propensity_match(const Matrix& treated, const Matrix& untreated,
                             const MatchOptions& opts = {}, ThreadPool* fit_pool = nullptr);

/// Balance of one variable given matched samples (exposed for tests
/// and for figure benches that inspect individual confounders).
BalanceStat balance_stat(std::span<const double> treated_values,
                         std::span<const double> untreated_values);

/// Number of treated cases with at least one exactly-equal untreated
/// row (the paper's "exact matching produces at most 17 pairs" probe).
std::size_t exact_match_count(const Matrix& treated, const Matrix& untreated);

/// k=1 nearest-neighbour matching on *Mahalanobis distance* over the
/// raw confounders — the other classical alternative the paper
/// mentions alongside exact matching (§5.2.3). Pooled covariance is
/// Cholesky-factored and points are whitened once, so matching is
/// O(T*U*d). A confounder constant over both groups separates no
/// cases and is left out of the distance (its balance is still
/// reported). `max_reuse` caps untreated reuse (0 = unlimited).
/// The returned MatchResult carries balance diagnostics but no
/// propensity scores (none exist for this method).
MatchResult mahalanobis_match(const Matrix& treated, const Matrix& untreated, int max_reuse = 1);

/// Cholesky factorization of a symmetric positive-definite matrix:
/// returns lower-triangular L with L*L^T = a, or false if `a` is not
/// positive definite to working precision. Exposed for tests.
bool cholesky(const Matrix& a, Matrix& l);

}  // namespace mpa
