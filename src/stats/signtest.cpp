#include "stats/signtest.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mpa {
namespace {

// lgamma(x) without std::lgamma's write to the global signgam, a data
// race when comparison points run their sign tests on two threads.
// glibc computes both through one function, so the values are equal.
double log_gamma(double x) {
  int sign = 0;
  return lgamma_r(x, &sign);
}

// log(n choose k) via lgamma.
double log_choose(int n, int k) {
  return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0);
}

// P(Bin(n, 1/2) >= k), exact, in log space per term.
double binom_upper_tail(int n, int k) {
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  const double log_half_n = -n * std::log(2.0);
  double p = 0;
  for (int i = k; i <= n; ++i) p += std::exp(log_choose(n, i) + log_half_n);
  return std::min(p, 1.0);
}

// Normal upper-tail Q(z) = P(Z >= z).
double normal_upper(double z) {
  return 0.5 * std::erfc(z / std::sqrt(2.0));
}

}  // namespace

double sign_test_p(int n_pos, int n_neg) {
  require(n_pos >= 0 && n_neg >= 0, "sign_test_p: negative counts");
  const int n = n_pos + n_neg;
  if (n == 0) return 1.0;
  const int k = std::max(n_pos, n_neg);
  double tail;
  if (n <= 5000) {
    tail = binom_upper_tail(n, k);
  } else {
    // Continuity-corrected normal approximation.
    const double mu = n / 2.0;
    const double sd = std::sqrt(n) / 2.0;
    tail = normal_upper((k - 0.5 - mu) / sd);
  }
  return std::min(1.0, 2.0 * tail);
}

SignTestResult sign_test(std::span<const double> diffs) {
  SignTestResult r;
  for (double d : diffs) {
    if (d > 0) {
      ++r.n_pos;
    } else if (d < 0) {
      ++r.n_neg;
    } else {
      ++r.n_zero;
    }
  }
  r.p_value = sign_test_p(r.n_pos, r.n_neg);
  return r;
}

}  // namespace mpa
