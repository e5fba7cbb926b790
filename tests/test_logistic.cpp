// Tests for logistic regression (propensity-score model).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "stats/logistic.hpp"
#include "stats/logistic_kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

std::vector<std::uint64_t> bits_of(std::span<const double> v) {
  std::vector<std::uint64_t> out;
  for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

// The wide IRLS kernels return the baseline's bits: every width up to
// 40 (33 is causal's, the intercept and 32 confounders), row counts no
// tile height divides, weights over the whole range IRLS gives them.
// Each set's column tiles together fill the whole upper triangle.
TEST(IrlsKernels, WideEqualsBaselineBitForBit) {
  const irls::Kernels* wide = irls::wide_kernels();
  if (wide == nullptr) GTEST_SKIP() << "this CPU runs the baseline kernels only";
  const irls::Kernels& base = irls::baseline_kernels();
  Rng rng(30);
  for (std::size_t dim = 1; dim <= 40; ++dim)
    for (std::size_t n : {1, 2, 3, 5, 8, 13, 67}) {
      SCOPED_TRACE("dim " + std::to_string(dim) + ", rows " + std::to_string(n));
      const std::size_t stride = irls::design_stride(dim);
      std::vector<double> z(n * stride, 0.0), wgt(n), r(n);
      for (std::size_t i = 0; i < n; ++i) {
        z[i * stride] = 1.0;
        for (std::size_t j = 1; j < dim; ++j) z[i * stride + j] = 3 * rng.normal();
        // Log-uniform in [1e-9, 0.25], both ends included.
        wgt[i] = std::exp(rng.uniform(std::log(1e-9), std::log(0.25)));
        if (i < 2) wgt[i] = i == 0 ? 0.25 : 1e-9;
        r[i] = rng.uniform(-1, 1);
      }
      std::vector<double> hess_base(dim * dim, -1.0), hess_wide(dim * dim, -1.0);
      for (std::size_t t = 0; t < base.gram_tiles(dim); ++t) base.gram(z, dim, wgt, t, hess_base);
      for (std::size_t t = 0; t < wide->gram_tiles(dim); ++t) wide->gram(z, dim, wgt, t, hess_wide);
      EXPECT_EQ(bits_of(hess_wide), bits_of(hess_base));
      for (std::size_t j = 0; j < dim; ++j)
        for (std::size_t k = j; k < dim; ++k)
          EXPECT_NE(hess_base[j * dim + k], -1.0) << "cell " << j << "," << k;
      std::vector<double> grad_base(dim, -1.0), grad_wide(dim, -1.0);
      base.gradient(z, dim, r, grad_base);
      wide->gradient(z, dim, r, grad_wide);
      EXPECT_EQ(bits_of(grad_wide), bits_of(grad_base));
    }
}

TEST(LinearSolver, SolvesKnownSystem) {
  std::vector<double> a{2, 1, 1, 3}, b{5, 10}, x(2);
  ASSERT_TRUE(solve_linear_system(a, b, x));
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(LinearSolver, DetectsSingular) {
  std::vector<double> a{1, 2, 2, 4}, b{1, 2}, x(2);
  EXPECT_FALSE(solve_linear_system(a, b, x));
}

TEST(LinearSolver, PivotsForStability) {
  std::vector<double> a{0, 1, 1, 0}, b{3, 7}, x(2);
  ASSERT_TRUE(solve_linear_system(a, b, x));
  EXPECT_NEAR(x[0], 7.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(Logistic, SeparatesObviousClasses) {
  Matrix x;
  std::vector<int> y;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(-1, 1);
    x.push_back({v});
    y.push_back(v > 0 ? 1 : 0);
  }
  const auto model = LogisticRegression::fit(x, y);
  EXPECT_GT(model.predict_prob(std::vector<double>{0.8}), 0.9);
  EXPECT_LT(model.predict_prob(std::vector<double>{-0.8}), 0.1);
}

TEST(Logistic, RecoversCoefficientSigns) {
  // y ~ Bernoulli(sigmoid(2*x1 - 3*x2)); the fitted log-odds slopes,
  // read off the predictions, must carry the right signs and rough
  // magnitude ratio.
  Rng rng(2);
  Matrix x;
  std::vector<int> y;
  for (int i = 0; i < 5000; ++i) {
    const double x1 = rng.normal(), x2 = rng.normal();
    const double p = 1.0 / (1.0 + std::exp(-(2 * x1 - 3 * x2)));
    x.push_back({x1, x2});
    y.push_back(rng.bernoulli(p) ? 1 : 0);
  }
  const auto model = LogisticRegression::fit(x, y);
  const auto log_odds = [&](double x1, double x2) {
    const double p = model.predict_prob(std::vector<double>{x1, x2});
    return std::log(p / (1 - p));
  };
  const double w1 = log_odds(1, 0) - log_odds(0, 0);
  const double w2 = log_odds(0, 1) - log_odds(0, 0);
  EXPECT_GT(w1, 0);
  EXPECT_LT(w2, 0);
  EXPECT_NEAR(std::abs(w2 / w1), 1.5, 0.3);
}

TEST(Logistic, CalibratedProbabilities) {
  // Fit on balanced noise-free halves; midpoint prob should be ~0.5.
  Matrix x;
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(i >= 50 ? 1 : 0);
  }
  const auto model = LogisticRegression::fit(x, y);
  EXPECT_NEAR(model.predict_prob(std::vector<double>{49.5}), 0.5, 0.1);
}

TEST(Logistic, ConstantFeatureHandled) {
  Matrix x;
  std::vector<int> y;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(-1, 1);
    x.push_back({v, 5.0});  // second feature constant
    y.push_back(v > 0 ? 1 : 0);
  }
  const auto model = LogisticRegression::fit(x, y);
  EXPECT_GT(model.predict_prob(std::vector<double>{0.9, 5.0}), 0.8);
}

TEST(Logistic, PredictAllMatchesPredict) {
  Matrix x{{0.0}, {1.0}, {2.0}};
  const std::vector<int> y{0, 0, 1};
  const auto model = LogisticRegression::fit(x, y);
  const auto probs = model.predict_all(x);
  ASSERT_EQ(probs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(probs[i], model.predict_prob(x[i]));
}

TEST(Logistic, RejectsBadInput) {
  Matrix x{{1.0}, {2.0}};
  EXPECT_THROW(LogisticRegression::fit(x, std::vector<int>{0, 2}), PreconditionError);
  EXPECT_THROW(LogisticRegression::fit(x, std::vector<int>{0, 0}), PreconditionError);
  EXPECT_THROW(LogisticRegression::fit(x, std::vector<int>{0}), PreconditionError);
  EXPECT_THROW(LogisticRegression::fit(Matrix{{1.0}, {}}, std::vector<int>{0, 1}),
               PreconditionError);
  const auto model = LogisticRegression::fit(x, std::vector<int>{0, 1});
  EXPECT_THROW(model.predict_prob(std::vector<double>{1, 2}), PreconditionError);
}

}  // namespace
}  // namespace mpa
