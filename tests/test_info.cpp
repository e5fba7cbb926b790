// Tests for entropy / mutual information / conditional MI.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stats/contingency.hpp"
#include "stats/info.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

// The entropy identities are checked on the reference oracle, whose
// entropy terms the dense MI/CMI kernels reproduce bit for bit.
TEST(Info, EntropyBasics) {
  EXPECT_DOUBLE_EQ(reference::entropy(std::vector<int>{0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(reference::entropy(std::vector<int>{0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(reference::entropy(std::vector<int>{0, 1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(reference::entropy(std::vector<int>{}), 0.0);
}

TEST(Info, ConditionalEntropy) {
  // Y fully determined by X -> H(Y|X) = 0.
  const std::vector<int> x{0, 0, 1, 1};
  const std::vector<int> y{5, 5, 7, 7};
  EXPECT_NEAR(reference::conditional_entropy(y, x), 0.0, 1e-12);
  // Y independent of X -> H(Y|X) = H(Y).
  const std::vector<int> y2{0, 1, 0, 1};
  EXPECT_NEAR(reference::conditional_entropy(y2, x), reference::entropy(y2), 1e-12);
}

TEST(Info, MiOfIdenticalVariablesEqualsEntropy) {
  const std::vector<int> x{0, 1, 2, 0, 1, 2};
  EXPECT_NEAR(mutual_information(x, x), reference::entropy(x), 1e-12);
}

TEST(Info, MiOfIndependentIsZero) {
  const std::vector<int> x{0, 0, 1, 1};
  const std::vector<int> y{0, 1, 0, 1};
  EXPECT_NEAR(mutual_information(x, y), 0.0, 1e-12);
}

TEST(Info, MiIsSymmetricProperty) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> x, y;
    for (int i = 0; i < 200; ++i) {
      x.push_back(static_cast<int>(rng.uniform_int(0, 5)));
      y.push_back(static_cast<int>(rng.uniform_int(0, 3)) + (x.back() > 3 ? 2 : 0));
    }
    EXPECT_NEAR(mutual_information(x, y), mutual_information(y, x), 1e-10);
    EXPECT_GE(mutual_information(x, y), -1e-12);  // non-negativity
  }
}

TEST(Info, MiDetectsDependence) {
  Rng rng(5);
  std::vector<int> x, y_dep, y_indep;
  for (int i = 0; i < 3000; ++i) {
    const int xi = static_cast<int>(rng.uniform_int(0, 4));
    x.push_back(xi);
    y_dep.push_back(xi / 2 + static_cast<int>(rng.uniform_int(0, 1)));
    y_indep.push_back(static_cast<int>(rng.uniform_int(0, 2)));
  }
  EXPECT_GT(mutual_information(x, y_dep), mutual_information(x, y_indep) + 0.2);
}

TEST(Info, CmiSymmetricInFirstTwoArgs) {
  Rng rng(7);
  std::vector<int> a, b, y;
  for (int i = 0; i < 500; ++i) {
    a.push_back(static_cast<int>(rng.uniform_int(0, 3)));
    b.push_back(a.back() + static_cast<int>(rng.uniform_int(0, 1)));
    y.push_back(static_cast<int>(rng.uniform_int(0, 2)));
  }
  EXPECT_NEAR(conditional_mutual_information(a, b, y), conditional_mutual_information(b, a, y),
              1e-10);
}

TEST(Info, CmiZeroWhenConditionallyIndependent) {
  // a and b independent given y (actually fully independent here).
  Rng rng(11);
  std::vector<int> a, b, y;
  for (int i = 0; i < 4000; ++i) {
    a.push_back(static_cast<int>(rng.uniform_int(0, 1)));
    b.push_back(static_cast<int>(rng.uniform_int(0, 1)));
    y.push_back(static_cast<int>(rng.uniform_int(0, 1)));
  }
  EXPECT_NEAR(conditional_mutual_information(a, b, y), 0.0, 0.01);
}

TEST(Info, CmiDetectsConditionalDependence) {
  // b = a xor noise: strong dependence regardless of y.
  Rng rng(13);
  std::vector<int> a, b, y;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(static_cast<int>(rng.uniform_int(0, 1)));
    b.push_back(a.back());
    y.push_back(static_cast<int>(rng.uniform_int(0, 1)));
  }
  EXPECT_GT(conditional_mutual_information(a, b, y), 0.9);
}

TEST(Info, EntropyOfCounts) {
  EXPECT_DOUBLE_EQ(entropy_of_counts(std::vector<double>{1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(entropy_of_counts(std::vector<double>{4}), 0.0);
  EXPECT_DOUBLE_EQ(entropy_of_counts(std::vector<double>{0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(entropy_of_counts(std::vector<double>{2, 0, 2}), 1.0);  // zeros ignored
  EXPECT_THROW(entropy_of_counts(std::vector<double>{-1}), PreconditionError);
}

TEST(Info, LengthMismatchRejected) {
  const std::vector<int> x{1, 2};
  const std::vector<int> y{1};
  EXPECT_THROW(mutual_information(x, y), PreconditionError);
  EXPECT_THROW(mutual_information_mm(x, y), PreconditionError);
  EXPECT_THROW(conditional_mutual_information(x, x, y), PreconditionError);
}

// The dense contingency kernels must return bit-identical doubles to
// the retained map-based reference implementations on randomized
// small-cardinality inputs (the only inputs the dense path accepts).
TEST(Info, DenseKernelsMatchReferenceExactly) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 400));
    const int cx = 1 + static_cast<int>(rng.uniform_int(0, 11));
    const int cy = 1 + static_cast<int>(rng.uniform_int(0, 7));
    const int cz = 1 + static_cast<int>(rng.uniform_int(0, 5));
    std::vector<int> x, y, z;
    for (int i = 0; i < n; ++i) {
      x.push_back(static_cast<int>(rng.uniform_int(0, cx - 1)));
      y.push_back(static_cast<int>(rng.uniform_int(0, cy - 1)));
      z.push_back(static_cast<int>(rng.uniform_int(0, cz - 1)));
    }
    EXPECT_EQ(mutual_information(x, y), reference::mutual_information(x, y));
    EXPECT_EQ(mutual_information_mm(x, y), reference::mutual_information_mm(x, y));
    EXPECT_EQ(conditional_mutual_information(x, y, z),
              reference::conditional_mutual_information(x, y, z));
  }
}

/// The message of the PreconditionError `f` throws ("" if none).
template <typename F>
std::string precondition_message(F f) {
  try {
    f();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

// Input outside the dense kernels' domain fails a precondition that
// names what broke: a negative value, an alphabet over kMaxDenseBins,
// or a joint table over kMaxDenseCells. The reference oracle still
// takes any ints.
TEST(Info, OutOfRangeInputsFailPrecondition) {
  const std::vector<int> neg{-3, -1, -3, 0, 2, -1};
  const std::vector<int> pos{0, 1, 1, 0, 2, 2};
  const std::vector<int> huge{0, kMaxDenseBins + 5, 7, kMaxDenseBins + 5, 0, 7};
  // Each alphabet fits, but 1500 x 1500 cells exceed kMaxDenseCells.
  const std::vector<int> wide_a{0, 1499, 3, 1499, 0, 3};
  const std::vector<int> wide_b{1499, 0, 1499, 5, 5, 0};
  const auto has = [](const std::string& msg, const char* what) {
    return msg.find(what) != std::string::npos;
  };
  const char* kNegative = "a negative value";
  const char* kAlphabet = "an alphabet over kMaxDenseBins";
  const char* kTable = "a table over kMaxDenseCells";

  EXPECT_TRUE(has(precondition_message([&] { mutual_information(neg, pos); }), kNegative));
  EXPECT_TRUE(has(precondition_message([&] { mutual_information(pos, neg); }), kNegative));
  EXPECT_TRUE(has(precondition_message([&] { mutual_information_mm(pos, neg); }), kNegative));
  EXPECT_TRUE(has(precondition_message([&] { conditional_mutual_information(neg, pos, pos); }),
                  kNegative));

  EXPECT_TRUE(has(precondition_message([&] { mutual_information_mm(huge, pos); }), kAlphabet));
  EXPECT_TRUE(has(precondition_message([&] { mutual_information(huge, pos); }), kAlphabet));
  EXPECT_TRUE(has(precondition_message([&] { conditional_mutual_information(pos, huge, pos); }),
                  kAlphabet));

  EXPECT_TRUE(has(precondition_message([&] { mutual_information(wide_a, wide_b); }), kTable));
  EXPECT_TRUE(has(precondition_message([&] { mutual_information_mm(wide_b, wide_a); }), kTable));
  EXPECT_TRUE(has(
      precondition_message([&] { conditional_mutual_information(pos, wide_a, wide_b); }), kTable));

  EXPECT_NO_THROW(reference::entropy(neg));
  EXPECT_NO_THROW(reference::mutual_information(huge, pos));
  EXPECT_NO_THROW(reference::mutual_information(wide_a, wide_b));
}

// Interleave dense calls with different (n, cardinality) shapes: the
// thread-local scratch tables and the plogp cache must fully reset
// between calls (stale state would poison later results).
TEST(Info, ScratchStateDoesNotLeakAcrossCalls) {
  Rng rng(19);
  std::vector<std::vector<int>> xs, ys;
  for (int t = 0; t < 10; ++t) {
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 50));
    std::vector<int> x, y;
    for (int i = 0; i < n; ++i) {
      x.push_back(static_cast<int>(rng.uniform_int(0, 3 + t)));
      y.push_back(static_cast<int>(rng.uniform_int(0, 2)));
    }
    xs.push_back(std::move(x));
    ys.push_back(std::move(y));
  }
  std::vector<double> first;
  for (std::size_t t = 0; t < xs.size(); ++t) first.push_back(mutual_information(xs[t], ys[t]));
  for (std::size_t t = xs.size(); t-- > 0;)
    EXPECT_EQ(mutual_information(xs[t], ys[t]), first[t]);
}

}  // namespace
}  // namespace mpa
