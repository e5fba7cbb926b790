// Information-theoretic dependence measures (§5.1).
//
// "The MI between variables X and Y is defined as the difference
// between the entropy of Y and the conditional entropy of Y given X."
// "The CMI for two variables X1 and X2 relative to variable Y is
// defined as H(X1|Y) - H(X1|X2, Y)."
//
// All quantities operate on discretized (binned) samples and are
// measured in bits, computed on the dense, allocation-free contingency
// kernels in stats/contingency.hpp. Their precondition: every value is
// a bin index in [0, kMaxDenseBins) and the joint table has at most
// kMaxDenseCells cells (binned data always qualifies). Input outside it
// — a negative value, an alphabet over kMaxDenseBins, or a table over
// kMaxDenseCells — throws PreconditionError naming what broke.
#pragma once

#include <span>
#include <vector>

namespace mpa {

/// Mutual information I(X; Y) = H(Y) - H(Y | X). Symmetric, >= 0
/// (up to floating-point noise). Requires equal non-zero lengths.
double mutual_information(std::span<const int> x, std::span<const int> y);

/// Conditional mutual information I(X1; X2 | Y)
/// = H(X1 | Y) - H(X1 | X2, Y). Symmetric in X1, X2.
double conditional_mutual_information(std::span<const int> x1, std::span<const int> x2,
                                      std::span<const int> y);

/// Miller-Madow bias-corrected mutual information: the plug-in MI
/// estimator is biased upward by roughly (|X|-1)(|Y|-1) / (2 N ln 2)
/// bits; this subtracts that first-order term (floored at 0). Useful
/// when comparing practices with different bin occupancies on small
/// monthly samples.
double mutual_information_mm(std::span<const int> x, std::span<const int> y);

/// Entropy in bits of the empirical distribution given non-negative
/// category counts (zero categories are ignored). Returns 0 if the
/// total count is zero.
double entropy_of_counts(std::span<const double> counts);

/// The original std::map-based kernels, retained verbatim as the
/// oracle for the dense contingency kernels: equivalence tests assert
/// the two paths agree exactly, and the dense-vs-map benchmarks
/// measure the speedup against them. They accept any int values.
namespace reference {
/// Shannon entropy H(X) of a discrete sample, in bits.
double entropy(std::span<const int> x);
/// Conditional entropy H(Y | X).
double conditional_entropy(std::span<const int> y, std::span<const int> x);
double mutual_information(std::span<const int> x, std::span<const int> y);
double conditional_mutual_information(std::span<const int> x1, std::span<const int> x2,
                                      std::span<const int> y);
double mutual_information_mm(std::span<const int> x, std::span<const int> y);
}  // namespace reference

}  // namespace mpa
