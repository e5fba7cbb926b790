#include "stats/info.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "stats/contingency.hpp"
#include "util/error.hpp"

namespace mpa {
namespace {

// Per-thread scratch tables: the dense kernels are allocation-free in
// steady state, and pool fan-outs (e.g. the CMI pairs) each count into
// their own thread's tables.
ContingencyTable& scratch_table() {
  thread_local ContingencyTable table;
  return table;
}

CmiAccumulator& scratch_cmi() {
  thread_local CmiAccumulator acc;
  return acc;
}

/// Cardinality (max + 1) of each variable of one call, checked against
/// the dense kernels' precondition: no negative value, no alphabet over
/// kMaxDenseBins, and no joint table over kMaxDenseCells. The variables
/// must be non-empty.
template <std::size_t N>
std::array<int, N> dense_cardinalities(std::string_view fn,
                                       const std::array<std::span<const int>, N>& vars) {
  std::array<int, N> card{};
  std::size_t cells = 1;
  std::string_view broken;
  for (std::size_t i = 0; i < N && broken.empty(); ++i) {
    const auto [lo, hi] = std::minmax_element(vars[i].begin(), vars[i].end());
    if (*lo < 0) {
      broken = "a negative value";
    } else if (*hi >= kMaxDenseBins) {
      broken = "an alphabet over kMaxDenseBins";
    } else {
      card[i] = *hi + 1;
      cells *= static_cast<std::size_t>(card[i]);
    }
  }
  if (broken.empty() && cells > kMaxDenseCells) broken = "a table over kMaxDenseCells";
  require(broken.empty(), std::string(fn) + ": input has " + std::string(broken));
  return card;
}

/// The scratch table holding the joint counts of non-empty (x, y).
ContingencyTable& joint_counts(std::string_view fn, std::span<const int> x,
                               std::span<const int> y) {
  const auto [cx, cy] = dense_cardinalities(fn, std::array{x, y});
  ContingencyTable& t = scratch_table();
  t.reset(cx, cy);
  t.count(x, y);
  return t;
}

}  // namespace

namespace reference {
namespace {

double plogp_sum(const std::map<int, int>& counts, double n) {
  double h = 0;
  for (const auto& [k, c] : counts) {
    const double p = c / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace

double entropy(std::span<const int> x) {
  if (x.empty()) return 0;
  std::map<int, int> counts;
  for (int v : x) counts[v]++;
  return plogp_sum(counts, static_cast<double>(x.size()));
}

double conditional_entropy(std::span<const int> y, std::span<const int> x) {
  require(x.size() == y.size(), "conditional_entropy: length mismatch");
  if (x.empty()) return 0;
  // H(Y|X) = H(X,Y) - H(X).
  std::map<std::pair<int, int>, int> joint;
  std::map<int, int> marginal;
  for (std::size_t i = 0; i < x.size(); ++i) {
    joint[{x[i], y[i]}]++;
    marginal[x[i]]++;
  }
  const double n = static_cast<double>(x.size());
  double h_joint = 0;
  for (const auto& [k, c] : joint) {
    const double p = c / n;
    h_joint -= p * std::log2(p);
  }
  return h_joint - plogp_sum(marginal, n);
}

double mutual_information(std::span<const int> x, std::span<const int> y) {
  require(x.size() == y.size(), "mutual_information: length mismatch");
  require(!x.empty(), "mutual_information: empty input");
  return entropy(y) - conditional_entropy(y, x);
}

double mutual_information_mm(std::span<const int> x, std::span<const int> y) {
  const double mi = mutual_information(x, y);
  std::set<int> ux(x.begin(), x.end()), uy(y.begin(), y.end());
  const double bias = (static_cast<double>(ux.size()) - 1.0) *
                      (static_cast<double>(uy.size()) - 1.0) /
                      (2.0 * static_cast<double>(x.size()) * std::log(2.0));
  return std::max(0.0, mi - bias);
}

double conditional_mutual_information(std::span<const int> x1, std::span<const int> x2,
                                      std::span<const int> y) {
  require(x1.size() == x2.size() && x1.size() == y.size(),
          "conditional_mutual_information: length mismatch");
  require(!x1.empty(), "conditional_mutual_information: empty input");
  // I(X1;X2|Y) = H(X1|Y) - H(X1|X2,Y). Encode (X2,Y) pairs as a single
  // discrete variable for the second term.
  std::map<std::pair<int, int>, int> pair_ids;
  std::vector<int> x2y(x1.size());
  for (std::size_t i = 0; i < x1.size(); ++i) {
    const auto [it, inserted] =
        pair_ids.emplace(std::make_pair(x2[i], y[i]), static_cast<int>(pair_ids.size()));
    x2y[i] = it->second;
  }
  return conditional_entropy(x1, y) - conditional_entropy(x1, x2y);
}

}  // namespace reference

double mutual_information(std::span<const int> x, std::span<const int> y) {
  require(x.size() == y.size(), "mutual_information: length mismatch");
  require(!x.empty(), "mutual_information: empty input");
  return joint_counts("mutual_information", x, y).mutual_information();
}

double mutual_information_mm(std::span<const int> x, std::span<const int> y) {
  require(x.size() == y.size(), "mutual_information: length mismatch");
  require(!x.empty(), "mutual_information: empty input");
  return joint_counts("mutual_information_mm", x, y).mutual_information_mm();
}

double conditional_mutual_information(std::span<const int> x1, std::span<const int> x2,
                                      std::span<const int> y) {
  require(x1.size() == x2.size() && x1.size() == y.size(),
          "conditional_mutual_information: length mismatch");
  require(!x1.empty(), "conditional_mutual_information: empty input");
  const auto [c1, c2, cy] =
      dense_cardinalities("conditional_mutual_information", std::array{x1, x2, y});
  CmiAccumulator& acc = scratch_cmi();
  acc.reset(c1, c2, cy);
  acc.count(x1, x2, y);
  return acc.value();
}

double entropy_of_counts(std::span<const double> counts) {
  double total = 0;
  for (double c : counts) {
    require(c >= 0, "entropy_of_counts: negative count");
    total += c;
  }
  if (total <= 0) return 0;
  double h = 0;
  for (double c : counts) {
    if (c <= 0) continue;
    const double p = c / total;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace mpa
