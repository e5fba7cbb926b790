#include "stats/logistic.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "stats/logistic_kernels.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

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

// Rows whose linear predictors are summed side by side. Each row's
// sum is one chain of dependent additions; interleaving rows lets the
// chains overlap.
constexpr std::size_t kEtaRows = 4;

// Rows from which an iteration's sums run as pool tasks: below this,
// a column tile is a few microseconds, about what handing it to
// another thread costs.
constexpr std::size_t kPooledRows = 1024;

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

namespace irls {
namespace {

// Register tile of the baseline Gram kernel: kTileRows x kTileCols
// cells whose sums stay in locals across every row of the design
// matrix.
constexpr std::size_t kTileRows = 2;
constexpr std::size_t kTileCols = 8;

// Two doubles that GCC and Clang add and multiply lane by lane, as one
// SSE2 instruction on baseline x86-64. Each lane is the same IEEE
// double operation as the scalar expression.
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kPairsPerTile = kTileCols / 2;

std::size_t pair_tiles(std::size_t dim) {
  return (dim + kTileRows - 1) / kTileRows;
}

// Columns [j0, j0 + kTileRows) for j0 = tile * kTileRows.
void gram_pairs(std::span<const double> z, std::size_t dim, std::span<const double> wgt,
                std::size_t tile, std::span<double> hess) {
  const std::size_t stride = design_stride(dim);
  const std::size_t n = wgt.size();
  const std::size_t j0 = tile * kTileRows;
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

void gradient_rows(std::span<const double> z, std::size_t dim, std::span<const double> r,
                   std::span<double> grad) {
  const std::size_t stride = design_stride(dim);
  std::fill(grad.begin(), grad.begin() + static_cast<std::ptrdiff_t>(dim), 0.0);
  for (std::size_t i = 0; i < r.size(); ++i) {
    const double* zi = z.data() + i * stride;
    for (std::size_t j = 0; j < dim; ++j) grad[j] += r[i] * zi[j];
  }
}

#if defined(__x86_64__)

// Four doubles: one AVX2 register in the functions below, which are
// compiled for AVX2 (and not FMA, so no multiply and add can fuse).
typedef double Quad __attribute__((vector_size(4 * sizeof(double))));
constexpr std::size_t kQuadRows = 4;      ///< Tile height of the wide Gram.
constexpr std::size_t kQuadsPerTile = 3;  ///< Tile width, in registers.

/// Cells [j0, j0 + R) x [k0, k0 + 4W) of sum_i (s_i * z_ij) * z_ik
/// into the row-major `out` of row length dim; only the cells with
/// j <= k < dim are stored.
template <std::size_t R, std::size_t W>
__attribute__((target("avx2"))) void quad_tile(const double* z, std::size_t dim,
                                               std::span<const double> s, std::size_t j0,
                                               std::size_t k0, double* out) {
  const std::size_t stride = design_stride(dim);
  Quad acc[R][W] = {};
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double* zi = z + i * stride;
    for (std::size_t t = 0; t < R; ++t) {
      const double wz = s[i] * zi[j0 + t];
      const Quad a = {wz, wz, wz, wz};
      for (std::size_t c = 0; c < W; ++c) {
        Quad zk;
        std::memcpy(&zk, zi + k0 + 4 * c, sizeof zk);
        acc[t][c] += a * zk;
      }
    }
  }
  for (std::size_t t = 0; t < R; ++t)
    for (std::size_t c = 0; c < 4 * W; ++c) {
      const std::size_t j = j0 + t, k = k0 + c;
      if (j < dim && k < dim && k >= j) out[j * dim + k] = acc[t][c / 4][c % 4];
    }
}

/// Rows [j0, j0 + R) of sum_i (s_i * z_ij) * z_ik from column j0 on,
/// in tiles of up to kQuadsPerTile registers.
template <std::size_t R>
__attribute__((target("avx2"))) void quad_strip(const double* z, std::size_t dim,
                                                std::span<const double> s, std::size_t j0,
                                                double* out) {
  for (std::size_t k0 = j0; k0 < dim; k0 += 4 * kQuadsPerTile) {
    switch (std::min((dim - k0 + 3) / 4, kQuadsPerTile)) {
      case 1: quad_tile<R, 1>(z, dim, s, j0, k0, out); break;
      case 2: quad_tile<R, 2>(z, dim, s, j0, k0, out); break;
      default: quad_tile<R, kQuadsPerTile>(z, dim, s, j0, k0, out); break;
    }
  }
}

// The intercept row alone, then the features' rows in blocks of
// kQuadRows, each block's tiles starting at its own diagonal: 612 cells
// per design row for the 561 of a 33 x 33 upper triangle.
std::size_t quad_tiles(std::size_t dim) {
  return 1 + (dim - 1 + kQuadRows - 1) / kQuadRows;
}

__attribute__((target("avx2"))) void gram_quads(std::span<const double> z, std::size_t dim,
                                                std::span<const double> wgt, std::size_t tile,
                                                std::span<double> hess) {
  if (tile == 0)
    quad_strip<1>(z.data(), dim, wgt, 0, hess.data());
  else
    quad_strip<kQuadRows>(z.data(), dim, wgt, 1 + (tile - 1) * kQuadRows, hess.data());
}

// The intercept row of the Gram matrix over weights r: z_i0 is 1.0, so
// each term (r_i * z_i0) * z_ij is r_i * z_ij.
__attribute__((target("avx2"))) void gradient_quads(std::span<const double> z, std::size_t dim,
                                                    std::span<const double> r,
                                                    std::span<double> grad) {
  quad_strip<1>(z.data(), dim, r, 0, grad.data());
}

#endif

}  // namespace

const Kernels& baseline_kernels() {
  static const Kernels kernels{pair_tiles, gram_pairs, gradient_rows};
  return kernels;
}

const Kernels* wide_kernels() {
#if defined(__x86_64__)
  static const Kernels kernels{quad_tiles, gram_quads, gradient_quads};
  if (__builtin_cpu_supports("avx2")) return &kernels;
#endif
  return nullptr;
}

}  // namespace irls

LogisticRegression LogisticRegression::fit(const Matrix& features, std::span<const int> labels,
                                           ThreadPool* pool) {
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
  // row-major, each row zero-padded to the kernels' stride and whole
  // blocks of kEtaRows rows padded with zero rows.
  const std::size_t dim = d + 1;
  const std::size_t stride = irls::design_stride(dim);
  std::vector<double> z((n + kEtaRows - 1) / kEtaRows * kEtaRows * stride, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* zi = z.data() + i * stride;
    zi[0] = 1.0;
    for (std::size_t j = 0; j < d; ++j)
      zi[j + 1] = (features[i][j] - model.feat_mean_[j]) / model.feat_sd_[j];
  }

  // The wide kernels where this CPU runs them, picked once per process.
  static const irls::Kernels& kernels =
      irls::wide_kernels() ? *irls::wide_kernels() : irls::baseline_kernels();
  std::vector<double> w(dim, 0.0), grad(dim), hess(dim * dim), step(dim), wgt(n), r(n);
  for (int iter = 0; iter < kMaxIters; ++iter) {
    // Gradient and Hessian of the (penalized) negative log-likelihood.
    for (std::size_t i0 = 0; i0 < n; i0 += kEtaRows) {
      // Each row's predictor adds its terms in column order from 0.0.
      const double* block = z.data() + i0 * stride;
      double eta[kEtaRows] = {};
      for (std::size_t j = 0; j < dim; ++j)
        for (std::size_t b = 0; b < kEtaRows; ++b) eta[b] += w[j] * block[b * stride + j];
      for (std::size_t b = 0; b < kEtaRows && i0 + b < n; ++b) {
        const double p = sigmoid(eta[b]);
        r[i0 + b] = p - static_cast<double>(labels[i0 + b]);
        wgt[i0 + b] = std::max(p * (1 - p), 1e-9);
      }
    }
    // The Gram's column tiles and the gradient write disjoint cells, so
    // they are the tasks of one job, the largest tiles first.
    const std::size_t tiles = kernels.gram_tiles(dim);
    parallel_for(n >= kPooledRows ? pool : nullptr, tiles + 1, [&](std::size_t t) {
      if (t < tiles)
        kernels.gram(z, dim, wgt, t, hess);
      else
        kernels.gradient(z, dim, r, grad);
    });
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
