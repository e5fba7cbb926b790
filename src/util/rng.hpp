// Deterministic random-number generation for the MPA library.
//
// Everything in the simulator and the learners that needs randomness
// takes an explicit Rng&, so whole-pipeline runs are reproducible from a
// single seed. The engine is xoshiro256** seeded via splitmix64, which
// is fast, high quality, and has a tiny state we can fork cheaply.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace mpa {

/// xoshiro256** engine with convenience samplers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 random bits.
  std::uint64_t next();

  /// Derive an independent child stream; the parent advances once.
  Rng fork();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);
  /// Standard normal via Box-Muller.
  double normal();
  /// Normal with the given mean and standard deviation (sd >= 0).
  double normal(double mean, double sd);
  /// Log-normal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Poisson-distributed count with the given mean (>= 0). Uses Knuth
  /// for small means and normal approximation beyond 60.
  int poisson(double mean);
  /// Exponential with the given rate (> 0).
  double exponential(double rate);
  /// Zipf-like rank in [1, n] with exponent s >= 0 (s=0 is uniform).
  int zipf(int n, double s);
  /// Index sampled proportionally to non-negative `weights`.
  /// Requires a non-empty vector with a positive sum.
  std::size_t weighted_index(const std::vector<double>& weights);
  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }
  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4];
};

}  // namespace mpa
