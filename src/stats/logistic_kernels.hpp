// The sums of one IRLS step of LogisticRegression::fit (logistic.cpp),
// in a baseline form that runs on any CPU and a wide one (AVX2) that
// x86-64 CPUs with AVX2 run. fit picks one per process; the tests
// compare the two. Internal to the stats library.
//
// Every implementation computes each cell the same way: its terms in
// row order, each one multiply and one add, starting from 0.0. So they
// return the same bits, and no answer depends on the CPU it ran on.
#pragma once

#include <cstddef>
#include <span>

namespace mpa::irls {

/// Doubles per row of the design matrix for `dim` columns: a multiple
/// of 8 with at least three zeros past the last column, which the
/// kernels may read as part of a tile.
constexpr std::size_t design_stride(std::size_t dim) {
  return (dim + 3 + 7) / 8 * 8;
}

/// Kernels over a design matrix `z`: rows of design_stride(dim)
/// doubles, the first column 1.0 (the intercept), zeros past column
/// dim - 1.
struct Kernels {
  /// How many column tiles the Gram matrix is computed in: tile t
  /// holds the cells of a few consecutive columns j, so tiles write
  /// disjoint cells and can run as separate tasks. Tiles are in
  /// decreasing order of work, more or less.
  std::size_t (*gram_tiles)(std::size_t dim);
  /// Tile `tile` of the upper triangle (k >= j) of the weighted Gram
  /// matrix sum_i (wgt_i * z_ij) * z_ik into the dim x dim row-major
  /// `hess`, over the first wgt.size() rows.
  void (*gram)(std::span<const double> z, std::size_t dim, std::span<const double> wgt,
               std::size_t tile, std::span<double> hess);
  /// grad_j = sum_i r_i * z_ij for j < dim, over the first r.size()
  /// rows.
  void (*gradient)(std::span<const double> z, std::size_t dim, std::span<const double> r,
                   std::span<double> grad);
};

/// 2x8 tiles of two-lane vectors (SSE2 on x86-64) and a row-by-row
/// gradient, on every target.
const Kernels& baseline_kernels();

/// AVX2, four doubles per register; nullptr when the build is not for
/// x86-64 or this CPU lacks AVX2.
const Kernels* wide_kernels();

}  // namespace mpa::irls
