#include "stats/logistic.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "util/error.hpp"

namespace mpa {
namespace {

double sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// Register tile of the Hessian kernel: kTileRows x kTileCols cells
// whose sums stay in locals across every row of the design matrix.
constexpr std::size_t kTileRows = 2;
constexpr std::size_t kTileCols = 8;

// Two doubles that GCC and Clang add and multiply lane by lane, as one
// SSE2 instruction on baseline x86-64. Each lane is the same IEEE
// double operation as the scalar expression.
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kPairsPerTile = kTileCols / 2;

// Rows whose linear predictors are summed side by side. Each row's
// sum is one chain of dependent additions; interleaving rows lets the
// chains overlap.
constexpr std::size_t kEtaRows = 4;

constexpr int kMaxIters = 50;    ///< IRLS iterations.
constexpr double kRidge = 1e-3;  ///< L2 penalty on (standardized) weights.
constexpr double kTol = 1e-8;    ///< Convergence threshold on weight change.

}  // namespace

bool solve_linear_system(std::span<double> a, std::span<double> b, std::span<double> x) {
  const std::size_t n = b.size();
  const auto at = [&](std::size_t r, std::size_t c) -> double& { return a[r * n + c]; };
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(at(r, col)) > std::abs(at(pivot, col))) pivot = r;
    if (std::abs(at(pivot, col)) < 1e-12) return false;
    if (pivot != col) {
      std::swap_ranges(&at(col, 0), &at(col, 0) + n, &at(pivot, 0));
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = at(r, col) / at(col, col);
      if (f == 0) continue;
      for (std::size_t c = col; c < n; ++c) at(r, c) -= f * at(col, c);
      b[r] -= f * b[col];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t c = i + 1; c < n; ++c) s -= at(i, c) * x[c];
    x[i] = s / at(i, i);
  }
  return true;
}

namespace {

/// Upper triangle (k >= j) of the weighted Gram matrix
/// sum_i (wgt_i * z_ij) * z_ik into the dim x dim row-major `hess`.
/// `z` holds at least n rows of `stride` values, a multiple of
/// kTileCols with zero padding past `dim`. Each cell adds its terms in
/// row order starting from 0.0, exactly as a row-by-row accumulation
/// would; a tile's cells only share the instructions that do it.
void weighted_gram_upper(std::span<const double> z, std::size_t stride, std::size_t dim,
                         std::span<const double> wgt, std::span<double> hess) {
  const std::size_t n = wgt.size();
  for (std::size_t j0 = 0; j0 < dim; j0 += kTileRows) {
    for (std::size_t k0 = j0 / kTileCols * kTileCols; k0 < dim; k0 += kTileCols) {
      Pair acc[kTileRows][kPairsPerTile] = {};
      for (std::size_t i = 0; i < n; ++i) {
        const double* zi = z.data() + i * stride;
        for (std::size_t t = 0; t < kTileRows; ++t) {
          const double wz = wgt[i] * zi[j0 + t];
          const Pair a = {wz, wz};
          for (std::size_t c = 0; c < kPairsPerTile; ++c) {
            Pair zk{};
            std::memcpy(&zk, zi + k0 + 2 * c, sizeof zk);
            acc[t][c] += a * zk;
          }
        }
      }
      for (std::size_t t = 0; t < kTileRows; ++t)
        for (std::size_t c = 0; c < kTileCols; ++c) {
          const std::size_t j = j0 + t, k = k0 + c;
          if (j < dim && k < dim && k >= j) hess[j * dim + k] = acc[t][c / 2][c % 2];
        }
    }
  }
}

}  // namespace

LogisticRegression LogisticRegression::fit(const Matrix& features, std::span<const int> labels) {
  const std::size_t n = features.size();
  require(n == labels.size(), "LogisticRegression::fit: shape mismatch");
  require(n >= 2, "LogisticRegression::fit: need at least two samples");
  const std::size_t d = features[0].size();
  require(d >= 1, "LogisticRegression::fit: need at least one feature");
  bool has0 = false, has1 = false;
  for (int y : labels) {
    require(y == 0 || y == 1, "LogisticRegression::fit: labels must be 0/1");
    (y ? has1 : has0) = true;
  }
  require(has0 && has1, "LogisticRegression::fit: need both classes");

  LogisticRegression model;
  // Standardize features for a well-conditioned Hessian.
  model.feat_mean_.assign(d, 0);
  model.feat_sd_.assign(d, 0);
  for (const auto& row : features) {
    require(row.size() == d, "LogisticRegression::fit: ragged feature matrix");
    for (std::size_t j = 0; j < d; ++j) model.feat_mean_[j] += row[j];
  }
  for (std::size_t j = 0; j < d; ++j) model.feat_mean_[j] /= static_cast<double>(n);
  for (const auto& row : features)
    for (std::size_t j = 0; j < d; ++j) {
      const double delta = row[j] - model.feat_mean_[j];
      model.feat_sd_[j] += delta * delta;
    }
  for (std::size_t j = 0; j < d; ++j) {
    model.feat_sd_[j] = std::sqrt(model.feat_sd_[j] / static_cast<double>(n));
    if (model.feat_sd_[j] < 1e-12) model.feat_sd_[j] = 1;  // constant feature
  }

  // Standardized design matrix with leading intercept column, flat and
  // row-major, each row zero-padded to a whole number of tile columns
  // and whole blocks of kEtaRows rows padded with zero rows.
  const std::size_t dim = d + 1;
  const std::size_t stride = (dim + kTileCols - 1) / kTileCols * kTileCols;
  std::vector<double> z((n + kEtaRows - 1) / kEtaRows * kEtaRows * stride, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* zi = z.data() + i * stride;
    zi[0] = 1.0;
    for (std::size_t j = 0; j < d; ++j)
      zi[j + 1] = (features[i][j] - model.feat_mean_[j]) / model.feat_sd_[j];
  }

  std::vector<double> w(dim, 0.0), grad(dim), hess(dim * dim), step(dim), wgt(n);
  for (int iter = 0; iter < kMaxIters; ++iter) {
    // Gradient and Hessian of the (penalized) negative log-likelihood.
    std::fill(grad.begin(), grad.end(), 0.0);
    for (std::size_t i0 = 0; i0 < n; i0 += kEtaRows) {
      // Each row's predictor adds its terms in column order from 0.0.
      const double* block = z.data() + i0 * stride;
      double eta[kEtaRows] = {};
      for (std::size_t j = 0; j < dim; ++j)
        for (std::size_t b = 0; b < kEtaRows; ++b) eta[b] += w[j] * block[b * stride + j];
      for (std::size_t b = 0; b < kEtaRows && i0 + b < n; ++b) {
        const double* zi = block + b * stride;
        const double p = sigmoid(eta[b]);
        const double r = p - static_cast<double>(labels[i0 + b]);
        wgt[i0 + b] = std::max(p * (1 - p), 1e-9);
        for (std::size_t j = 0; j < dim; ++j) grad[j] += r * zi[j];
      }
    }
    weighted_gram_upper(z, stride, dim, wgt, hess);
    for (std::size_t j = 1; j < dim; ++j) {  // no penalty on the intercept
      grad[j] += kRidge * w[j];
      hess[j * dim + j] += kRidge;
    }
    for (std::size_t j = 0; j < dim; ++j)
      for (std::size_t k = 0; k < j; ++k) hess[j * dim + k] = hess[k * dim + j];

    if (!solve_linear_system(hess, grad, step)) break;  // keep current w
    double max_delta = 0;
    for (std::size_t j = 0; j < dim; ++j) {
      w[j] -= step[j];
      max_delta = std::max(max_delta, std::abs(step[j]));
    }
    if (max_delta < kTol) break;
  }
  model.w_ = std::move(w);
  return model;
}

double LogisticRegression::predict_prob(std::span<const double> x) const {
  require(x.size() + 1 == w_.size(), "LogisticRegression::predict_prob: dimension mismatch");
  double eta = w_[0];
  for (std::size_t j = 0; j < x.size(); ++j)
    eta += w_[j + 1] * (x[j] - feat_mean_[j]) / feat_sd_[j];
  return sigmoid(eta);
}

std::vector<double> LogisticRegression::predict_all(const Matrix& features) const {
  std::vector<double> out;
  out.reserve(features.size());
  for (const auto& row : features) out.push_back(predict_prob(row));
  return out;
}

}  // namespace mpa
