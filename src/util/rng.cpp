#include "util/rng.hpp"

#include <cmath>
#include <limits>
#include <numeric>

namespace mpa {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // Avoid the all-zero state, which xoshiro cannot escape.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork() {
  return Rng(next());
}

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "Rng::uniform_int: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t limit = kMax - kMax % span;
  std::uint64_t r;
  do {
    r = next();
  } while (r >= limit);
  return lo + static_cast<std::int64_t>(r % span);
}

bool Rng::bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return uniform() < p;
}

double Rng::normal() {
  // Box-Muller; one value per call keeps the state trajectory simple.
  double u1 = uniform();
  while (u1 <= 0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double sd) {
  require(sd >= 0, "Rng::normal: negative sd");
  return mean + sd * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

int Rng::poisson(double mean) {
  require(mean >= 0, "Rng::poisson: negative mean");
  if (mean == 0) return 0;
  if (mean > 60) {
    const double v = std::round(normal(mean, std::sqrt(mean)));
    return v < 0 ? 0 : static_cast<int>(v);
  }
  const double l = std::exp(-mean);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > l);
  return k - 1;
}

double Rng::exponential(double rate) {
  require(rate > 0, "Rng::exponential: rate must be positive");
  double u = uniform();
  while (u <= 0) u = uniform();
  return -std::log(u) / rate;
}

int Rng::zipf(int n, double s) {
  require(n >= 1, "Rng::zipf: n must be >= 1");
  require(s >= 0, "Rng::zipf: negative exponent");
  // Inverse-CDF over explicit weights; n is small everywhere we use this.
  double total = 0;
  for (int i = 1; i <= n; ++i) total += 1.0 / std::pow(static_cast<double>(i), s);
  double u = uniform() * total;
  for (int i = 1; i <= n; ++i) {
    u -= 1.0 / std::pow(static_cast<double>(i), s);
    if (u <= 0) return i;
  }
  return n;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  require(!weights.empty(), "Rng::weighted_index: empty weights");
  double total = 0;
  for (double w : weights) {
    require(w >= 0, "Rng::weighted_index: negative weight");
    total += w;
  }
  require(total > 0, "Rng::weighted_index: weights sum to zero");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  require(k <= n, "Rng::sample_indices: k > n");
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  // Partial Fisher-Yates: the first k slots are the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace mpa
