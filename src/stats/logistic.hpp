// L2-regularized logistic regression, used to estimate propensity
// scores (§5.2.3): the probability of a case receiving treatment given
// its observed confounding practices.
//
// Fitting is iteratively reweighted least squares (IRLS) over
// internally-standardized features, with a ridge term for stability
// when confounders are collinear (they strongly are, per Table 4).
#pragma once

#include <span>
#include <vector>

namespace mpa {

class ThreadPool;

/// Dense row-major matrix of samples (n rows) x features (d columns).
using Matrix = std::vector<std::vector<double>>;

class LogisticRegression {
 public:
  /// Fit P(y=1 | x). `labels` must be 0/1 and contain both classes.
  /// Rows of `features` must share one length d >= 1. With a `pool`,
  /// each iteration's weighted Gram matrix and gradient are computed
  /// as tasks on it, by column tiles; every cell is summed the same
  /// way, so the fit is the same at any thread count.
  static LogisticRegression fit(const Matrix& features, std::span<const int> labels,
                                ThreadPool* pool = nullptr);

  /// Predicted probability P(y=1 | x); x.size() must equal d.
  double predict_prob(std::span<const double> x) const;

  /// Probabilities for every row.
  std::vector<double> predict_all(const Matrix& features) const;

 private:
  std::vector<double> w_;         // intercept + d weights
  std::vector<double> feat_mean_; // standardization parameters
  std::vector<double> feat_sd_;
};

/// Solve the n x n row-major system `a` x = `b` (n = b.size(),
/// x.size() == n) by Gaussian elimination with partial pivoting,
/// overwriting `a` and `b`: the Newton step of LogisticRegression::fit.
/// Returns false if `a` is singular to working precision.
bool solve_linear_system(std::span<double> a, std::span<double> b, std::span<double> x);

}  // namespace mpa
