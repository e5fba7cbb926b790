#include "stats/matching.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace mpa {
namespace {

/// Candidates scanned per treated case in covariate mode.
constexpr int kMaxCandidates = 128;

}  // namespace

BalanceStat balance_stat(std::span<const double> treated_values,
                         std::span<const double> untreated_values) {
  BalanceStat b;
  const double mt = mean(treated_values);
  const double mu = mean(untreated_values);
  const double vt = variance(treated_values);
  const double vu = variance(untreated_values);
  const double sdt = std::sqrt(vt);
  if (sdt < 1e-12) {
    b.std_diff_of_means = std::abs(mt - mu) < 1e-12 ? 0 : std::numeric_limits<double>::infinity();
  } else {
    b.std_diff_of_means = (mt - mu) / sdt;
  }
  if (vu < 1e-18) {
    b.variance_ratio = vt < 1e-18 ? 1 : std::numeric_limits<double>::infinity();
  } else {
    b.variance_ratio = vt / vu;
  }
  return b;
}

double MatchResult::worst_abs_std_diff() const {
  double worst = 0;
  for (const auto& b : confounder_balance)
    worst = std::max(worst, std::abs(b.std_diff_of_means));
  return worst;
}

double MatchResult::variance_ratio_pass_fraction(double var_lo, double var_hi) const {
  if (confounder_balance.empty()) return 1.0;
  std::size_t ok = 0;
  for (const auto& b : confounder_balance)
    if (b.variance_ratio > var_lo && b.variance_ratio < var_hi) ++ok;
  return static_cast<double>(ok) / static_cast<double>(confounder_balance.size());
}

MatchResult propensity_match(const Matrix& treated, const Matrix& untreated,
                             const MatchOptions& opts, ThreadPool* fit_pool) {
  require(!treated.empty() && !untreated.empty(),
          "propensity_match: need cases on both sides");
  const std::size_t d = treated[0].size();
  require(d >= 1, "propensity_match: need at least one confounder");

  MatchResult res;
  res.treated_total = treated.size();
  res.untreated_total = untreated.size();

  // 1. Fit the propensity model: treatment ~ confounders.
  Matrix all;
  all.reserve(treated.size() + untreated.size());
  std::vector<int> labels;
  labels.reserve(all.capacity());
  for (const auto& row : treated) {
    require(row.size() == d, "propensity_match: ragged treated matrix");
    all.push_back(row);
    labels.push_back(1);
  }
  for (const auto& row : untreated) {
    require(row.size() == d, "propensity_match: ragged untreated matrix");
    all.push_back(row);
    labels.push_back(0);
  }
  const auto model = LogisticRegression::fit(all, labels, fit_pool);
  res.treated_scores = model.predict_all(treated);
  res.untreated_scores = model.predict_all(untreated);

  // 2. Common-support trimming: treated must lie within the untreated
  // score range, and untreated within the treated one.
  const auto [umin, umax] =
      std::minmax_element(res.untreated_scores.begin(), res.untreated_scores.end());
  const auto [tmin, tmax] =
      std::minmax_element(res.treated_scores.begin(), res.treated_scores.end());
  const double t_lo = *umin, t_hi = *umax, u_lo = *tmin, u_hi = *tmax;

  // 3. k=1 nearest-neighbour matching on score, with replacement, via a
  // sorted index over eligible untreated scores.
  std::vector<std::pair<double, std::size_t>> pool;  // (score, untreated idx)
  for (std::size_t i = 0; i < untreated.size(); ++i) {
    const double s = res.untreated_scores[i];
    if (s >= u_lo && s <= u_hi) pool.emplace_back(s, i);
  }
  std::sort(pool.begin(), pool.end());
  if (pool.empty()) return res;  // nothing matchable

  std::set<std::size_t> used_untreated;
  std::vector<int> uses(pool.size(), 0);
  const int max_uses = opts.max_reuse > 0 ? opts.max_reuse : std::numeric_limits<int>::max();

  // Caliper in raw score units, from the pooled score sd.
  double caliper = std::numeric_limits<double>::infinity();
  if (opts.caliper_sd > 0) {
    std::vector<double> all_scores = res.treated_scores;
    all_scores.insert(all_scores.end(), res.untreated_scores.begin(),
                      res.untreated_scores.end());
    caliper = opts.caliper_sd * stddev(all_scores);
  }

  // Pooled per-confounder standard deviations for the standardized
  // covariate distance.
  std::vector<double> conf_sd(d, 1.0);
  if (opts.covariates_within_caliper) {
    std::vector<double> col;
    col.reserve(treated.size() + untreated.size());
    for (std::size_t j = 0; j < d; ++j) {
      col.clear();
      for (const auto& row : treated) col.push_back(row[j]);
      for (const auto& row : untreated) col.push_back(row[j]);
      const double sd = stddev(col);
      conf_sd[j] = sd > 1e-12 ? sd : 1.0;
    }
  }
  auto covariate_dist = [&](const std::vector<double>& a, const std::vector<double>& b) {
    double dist = 0;
    for (std::size_t j = 0; j < d; ++j) {
      const double delta = (a[j] - b[j]) / conf_sd[j];
      dist += delta * delta;
    }
    return dist;
  };

  for (std::size_t ti = 0; ti < treated.size(); ++ti) {
    const double s = res.treated_scores[ti];
    if (s < t_lo || s > t_hi) continue;
    const auto it = std::lower_bound(pool.begin(), pool.end(), std::make_pair(s, std::size_t{0}));
    const std::ptrdiff_t at = it - pool.begin();
    std::ptrdiff_t best = -1;
    double best_score_diff = std::numeric_limits<double>::infinity();

    if (opts.covariates_within_caliper) {
      // Collect eligible candidates within the caliper (bounded scan),
      // then pick the nearest in standardized covariate space.
      double best_cov = std::numeric_limits<double>::infinity();
      int scanned = 0;
      auto consider_cov = [&](std::ptrdiff_t k) {
        if (k < 0 || k >= static_cast<std::ptrdiff_t>(pool.size())) return false;
        const double diff = std::abs(pool[static_cast<std::size_t>(k)].first - s);
        if (diff > caliper) return false;  // outside caliper: stop this side
        if (uses[static_cast<std::size_t>(k)] < max_uses) {
          const double cd =
              covariate_dist(treated[ti], untreated[pool[static_cast<std::size_t>(k)].second]);
          if (cd < best_cov) {
            best_cov = cd;
            best = k;
            best_score_diff = diff;
          }
        }
        ++scanned;
        return scanned < kMaxCandidates;
      };
      for (std::ptrdiff_t k = at; consider_cov(k); ++k) {
      }
      for (std::ptrdiff_t k = at - 1; consider_cov(k); --k) {
      }
    } else {
      auto consider = [&](std::ptrdiff_t k) {
        if (k < 0 || k >= static_cast<std::ptrdiff_t>(pool.size())) return;
        if (uses[static_cast<std::size_t>(k)] >= max_uses) return;
        const double diff = std::abs(pool[static_cast<std::size_t>(k)].first - s);
        if (diff < best_score_diff) {
          best_score_diff = diff;
          best = k;
        }
      };
      // Scan outward from the insertion point until a candidate is
      // found; the scan is monotone in score distance, so the first hit
      // in each direction bounds the search.
      for (std::ptrdiff_t off = 0; off < static_cast<std::ptrdiff_t>(pool.size()); ++off) {
        consider(at + off);
        consider(at - 1 - off);
        if (best >= 0) break;
      }
    }
    if (best < 0 || best_score_diff > caliper) continue;
    const std::size_t ui = pool[static_cast<std::size_t>(best)].second;
    uses[static_cast<std::size_t>(best)]++;
    used_untreated.insert(ui);
    res.pairs.push_back(MatchedPair{ti, ui, best_score_diff});
  }
  res.untreated_matched_distinct = used_untreated.size();

  // 4. Balance diagnostics over the matched samples (untreated values
  // appear once per pair, reflecting matching with replacement).
  std::vector<double> st, su;
  st.reserve(res.pairs.size());
  su.reserve(res.pairs.size());
  for (const auto& p : res.pairs) {
    st.push_back(res.treated_scores[p.treated_index]);
    su.push_back(res.untreated_scores[p.untreated_index]);
  }
  res.propensity_balance = balance_stat(st, su);
  res.confounder_balance.resize(d);
  std::vector<double> ct(res.pairs.size()), cu(res.pairs.size());
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t k = 0; k < res.pairs.size(); ++k) {
      ct[k] = treated[res.pairs[k].treated_index][j];
      cu[k] = untreated[res.pairs[k].untreated_index][j];
    }
    res.confounder_balance[j] = balance_stat(ct, cu);
  }
  return res;
}

bool cholesky(const Matrix& a, Matrix& l) {
  const std::size_t n = a.size();
  l.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    require(a[i].size() == n, "cholesky: matrix not square");
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i][j];
      for (std::size_t k = 0; k < j; ++k) sum -= l[i][k] * l[j][k];
      if (i == j) {
        if (sum <= 1e-12) return false;
        l[i][i] = std::sqrt(sum);
      } else {
        l[i][j] = sum / l[j][j];
      }
    }
  }
  return true;
}

MatchResult mahalanobis_match(const Matrix& treated, const Matrix& untreated, int max_reuse) {
  require(!treated.empty() && !untreated.empty(),
          "mahalanobis_match: need cases on both sides");
  const std::size_t d = treated[0].size();
  require(d >= 1, "mahalanobis_match: need at least one confounder");

  MatchResult res;
  res.treated_total = treated.size();
  res.untreated_total = untreated.size();

  // Confounders that vary over the pooled cases. A constant one has no
  // variance to whiten by and separates no cases, so it is left out of
  // the distance.
  std::vector<std::size_t> cols;
  for (const Matrix* m : {&treated, &untreated})
    for (const auto& row : *m) require(row.size() == d, "mahalanobis_match: ragged matrix");
  for (std::size_t j = 0; j < d; ++j) {
    const auto differs = [&](const std::vector<double>& row) { return row[j] != treated[0][j]; };
    if (std::any_of(treated.begin(), treated.end(), differs) ||
        std::any_of(untreated.begin(), untreated.end(), differs))
      cols.push_back(j);
  }
  const std::size_t k = cols.size();

  // Pooled covariance over all cases, ridge-regularized so collinear
  // confounders stay factorable.
  const std::size_t n = treated.size() + untreated.size();
  std::vector<double> mu(k, 0.0);
  auto accumulate_mean = [&](const Matrix& m) {
    for (const auto& row : m)
      for (std::size_t a = 0; a < k; ++a) mu[a] += row[cols[a]];
  };
  accumulate_mean(treated);
  accumulate_mean(untreated);
  for (auto& v : mu) v /= static_cast<double>(n);

  Matrix cov(k, std::vector<double>(k, 0.0));
  auto accumulate_cov = [&](const Matrix& m) {
    for (const auto& row : m)
      for (std::size_t a = 0; a < k; ++a)
        for (std::size_t b = a; b < k; ++b)
          cov[a][b] += (row[cols[a]] - mu[a]) * (row[cols[b]] - mu[b]);
  };
  accumulate_cov(treated);
  accumulate_cov(untreated);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a; b < k; ++b) {
      cov[a][b] /= static_cast<double>(n);
      cov[b][a] = cov[a][b];
    }
    cov[a][a] += 1e-6 * (cov[a][a] + 1e-6);  // ridge
  }

  Matrix l;
  require(cholesky(cov, l), "mahalanobis_match: covariance not positive definite");

  // Whiten: z = L^-1 x via forward substitution; Mahalanobis distance
  // becomes Euclidean distance in z-space.
  auto whiten = [&](const std::vector<double>& x) {
    std::vector<double> z(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      double sum = x[cols[i]] - mu[i];
      for (std::size_t c = 0; c < i; ++c) sum -= l[i][c] * z[c];
      z[i] = sum / l[i][i];
    }
    return z;
  };
  Matrix zt, zu;
  zt.reserve(treated.size());
  zu.reserve(untreated.size());
  for (const auto& row : treated) zt.push_back(whiten(row));
  for (const auto& row : untreated) zu.push_back(whiten(row));

  const int max_uses = max_reuse > 0 ? max_reuse : std::numeric_limits<int>::max();
  std::vector<int> uses(untreated.size(), 0);
  std::set<std::size_t> used;
  for (std::size_t ti = 0; ti < zt.size(); ++ti) {
    std::ptrdiff_t best = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t ui = 0; ui < zu.size(); ++ui) {
      if (uses[ui] >= max_uses) continue;
      double dist = 0;
      for (std::size_t j = 0; j < k; ++j) {
        const double delta = zt[ti][j] - zu[ui][j];
        dist += delta * delta;
        if (dist >= best_dist) break;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = static_cast<std::ptrdiff_t>(ui);
      }
    }
    if (best < 0) continue;
    uses[static_cast<std::size_t>(best)]++;
    used.insert(static_cast<std::size_t>(best));
    res.pairs.push_back(
        MatchedPair{ti, static_cast<std::size_t>(best), std::sqrt(best_dist)});
  }
  res.untreated_matched_distinct = used.size();

  // Balance diagnostics on the raw confounders.
  res.confounder_balance.resize(d);
  std::vector<double> ct(res.pairs.size()), cu(res.pairs.size());
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t k = 0; k < res.pairs.size(); ++k) {
      ct[k] = treated[res.pairs[k].treated_index][j];
      cu[k] = untreated[res.pairs[k].untreated_index][j];
    }
    res.confounder_balance[j] = balance_stat(ct, cu);
  }
  return res;
}

std::size_t exact_match_count(const Matrix& treated, const Matrix& untreated) {
  std::set<std::vector<double>> pool(untreated.begin(), untreated.end());
  std::size_t n = 0;
  for (const auto& row : treated)
    if (pool.count(row)) ++n;
  return n;
}

}  // namespace mpa
