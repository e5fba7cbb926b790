// Dense, allocation-free contingency kernels for the info-theory hot
// paths (§5.1). The public MI / CMI entry points in
// stats/info.hpp count here, and require small-cardinality
// non-negative ints (binned data always is); the original
// std::map-based implementations are retained in mpa::reference as a
// test oracle.
//
// Bit-compatibility contract: every entropy term is accumulated cell by
// cell in ascending flat-index order, skipping empty cells, with the
// exact per-cell arithmetic of the map path (p = c / n; h -= p *
// log2(p)). A std::map over bin values (or lexicographic bin pairs)
// iterates in that same order, so the dense kernels return
// bit-identical doubles to the reference — the speedup comes from flat
// counting and the shared plogp cache, not from reordered floating
// point.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mpa {

/// Per-variable cardinality cap for the dense kernels; the
/// stats/info.hpp entry points reject larger alphabets.
inline constexpr int kMaxDenseBins = 4096;

/// Cap on total cells of any dense count table (joint tables included).
inline constexpr std::size_t kMaxDenseCells = std::size_t{1} << 20;

/// Shared memo table for the per-cell entropy term p*log2(p) with
/// p = c/n: within one kernel invocation every cell count c maps to the
/// same double, so repeated counts cost one std::log2 call instead of
/// one per cell. Entries are epoch-stamped — begin(n) with a new n
/// invalidates them in O(1), while a repeated n keeps the cache warm
/// across calls (the per-month loops hit this constantly). Memoization
/// is bit-transparent: the cached value is exactly the double the
/// direct computation would produce.
class PlogpCache {
 public:
  /// Start a computation over n samples (n > 0).
  void begin(std::size_t n) {
    if (n_ == n && epoch_ != 0) return;
    n_ = n;
    ++epoch_;
  }

  /// (c/n) * log2(c/n) for a cell count c >= 1.
  double plogp(std::uint32_t c);

 private:
  std::vector<double> val_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::size_t n_ = 0;
};

/// Flat-array joint contingency table over two binned variables: one
/// pass fills cx*cy cells plus both marginals, then the entropy terms
/// are read straight off the counts. reset() + count() reuse the same
/// backing storage, so steady-state operation performs no allocations.
class ContingencyTable {
 public:
  /// Size (and zero) the table for cardinalities cx >= 1, cy >= 1.
  void reset(int cx, int cy);

  /// Add one (x, y) observation; values must be within the reset
  /// cardinalities.
  void add(int x, int y) {
    ++cells_[static_cast<std::size_t>(x) * static_cast<std::size_t>(cy_) +
             static_cast<std::size_t>(y)];
    ++mx_[static_cast<std::size_t>(x)];
    ++my_[static_cast<std::size_t>(y)];
    ++n_;
  }

  /// Bulk one-pass joint count (equal-length spans).
  void count(std::span<const int> x, std::span<const int> y);

  /// H(X) over the x marginal (ascending bin order).
  double entropy_x();
  /// H(Y) over the y marginal.
  double entropy_y();
  /// H(X,Y) over the joint, ascending (x-major) cell order — the
  /// iteration order of a std::map keyed on (x, y) pairs.
  double joint_entropy();
  /// H(Y|X) = H(X,Y) - H(X).
  double conditional_entropy_y_given_x() { return joint_entropy() - entropy_x(); }
  /// I(X;Y) = H(Y) - H(Y|X), composed exactly like the reference.
  double mutual_information() { return entropy_y() - conditional_entropy_y_given_x(); }
  /// Miller-Madow corrected MI (reference arithmetic, occupied-cell
  /// counts standing in for the reference's std::set sizes).
  double mutual_information_mm();

  /// Distinct values present (non-empty marginal cells).
  int occupied_x() const;
  int occupied_y() const;

 private:
  double marginal_entropy(const std::vector<std::uint32_t>& marginal);

  int cx_ = 0;
  int cy_ = 0;
  std::size_t n_ = 0;
  std::vector<std::uint32_t> cells_;
  std::vector<std::uint32_t> mx_;
  std::vector<std::uint32_t> my_;
  PlogpCache plogp_;
};

/// One-pass conditional-mutual-information accumulator:
/// I(X1;X2|Y) = H(X1|Y) - H(X1|X2,Y). A single scan fills the (y, x1)
/// joint and the ((x2,y)-pair, x1) joint, with (x2, y) pairs mapped to
/// dense ids in first-appearance order — the same encoding the
/// reference implementation uses, which keeps every entropy term's
/// summation order (and therefore every bit of the result) identical.
class CmiAccumulator {
 public:
  /// Size (and zero) for cardinalities c1, c2, cy >= 1.
  void reset(int c1, int c2, int cy);

  /// Add one (x1, x2, y) observation.
  void add(int x1, int x2, int y);

  /// Bulk one-pass count (equal-length spans).
  void count(std::span<const int> x1, std::span<const int> x2, std::span<const int> y);

  /// I(X1;X2|Y) over everything added since reset().
  double value();

 private:
  int c1_ = 0;
  int c2_ = 0;
  int cy_ = 0;
  int num_ids_ = 0;
  std::size_t n_ = 0;
  std::vector<std::uint32_t> cells_y_;   ///< cy x c1, y-major.
  std::vector<std::uint32_t> marg_y_;    ///< cy.
  std::vector<std::int32_t> id_of_;      ///< c2*cy -> dense pair id or -1.
  std::vector<std::uint32_t> cells_id_;  ///< (c2*cy) x c1, id-major.
  std::vector<std::uint32_t> marg_id_;   ///< c2*cy.
  PlogpCache plogp_;
};

}  // namespace mpa
