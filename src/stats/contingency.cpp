#include "stats/contingency.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mpa {

double PlogpCache::plogp(std::uint32_t c) {
  if (static_cast<std::size_t>(c) >= val_.size()) {
    val_.resize(c + 1, 0.0);
    stamp_.resize(c + 1, 0);
  }
  if (stamp_[c] != epoch_) {
    const double p = c / static_cast<double>(n_);
    val_[c] = p * std::log2(p);
    stamp_[c] = epoch_;
  }
  return val_[c];
}

void ContingencyTable::reset(int cx, int cy) {
  require(cx >= 1 && cy >= 1, "ContingencyTable::reset: cardinalities must be >= 1");
  require(static_cast<std::size_t>(cx) * static_cast<std::size_t>(cy) <= kMaxDenseCells,
          "ContingencyTable::reset: table too large");
  cx_ = cx;
  cy_ = cy;
  n_ = 0;
  cells_.assign(static_cast<std::size_t>(cx) * static_cast<std::size_t>(cy), 0);
  mx_.assign(static_cast<std::size_t>(cx), 0);
  my_.assign(static_cast<std::size_t>(cy), 0);
}

void ContingencyTable::count(std::span<const int> x, std::span<const int> y) {
  require(x.size() == y.size(), "ContingencyTable::count: length mismatch");
  const std::size_t cy = static_cast<std::size_t>(cy_);
  std::uint32_t* cells = cells_.data();
  std::uint32_t* mx = mx_.data();
  std::uint32_t* my = my_.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto xi = static_cast<std::size_t>(x[i]);
    const auto yi = static_cast<std::size_t>(y[i]);
    ++cells[xi * cy + yi];
    ++mx[xi];
    ++my[yi];
  }
  n_ += x.size();
}

double ContingencyTable::marginal_entropy(const std::vector<std::uint32_t>& marginal) {
  if (n_ == 0) return 0;
  plogp_.begin(n_);
  double h = 0;
  for (const std::uint32_t c : marginal)
    if (c != 0) h -= plogp_.plogp(c);
  return h;
}

double ContingencyTable::entropy_x() {
  return marginal_entropy(mx_);
}

double ContingencyTable::entropy_y() {
  return marginal_entropy(my_);
}

double ContingencyTable::joint_entropy() {
  return marginal_entropy(cells_);
}

double ContingencyTable::mutual_information_mm() {
  const double mi = mutual_information();
  const double bias = (static_cast<double>(occupied_x()) - 1.0) *
                      (static_cast<double>(occupied_y()) - 1.0) /
                      (2.0 * static_cast<double>(n_) * std::log(2.0));
  return std::max(0.0, mi - bias);
}

int ContingencyTable::occupied_x() const {
  return static_cast<int>(mx_.size() - static_cast<std::size_t>(std::count(
                                           mx_.begin(), mx_.end(), std::uint32_t{0})));
}

int ContingencyTable::occupied_y() const {
  return static_cast<int>(my_.size() - static_cast<std::size_t>(std::count(
                                           my_.begin(), my_.end(), std::uint32_t{0})));
}

void CmiAccumulator::reset(int c1, int c2, int cy) {
  require(c1 >= 1 && c2 >= 1 && cy >= 1, "CmiAccumulator::reset: cardinalities must be >= 1");
  const std::size_t pair_cells = static_cast<std::size_t>(c2) * static_cast<std::size_t>(cy);
  require(pair_cells <= kMaxDenseCells &&
              pair_cells * static_cast<std::size_t>(c1) <= kMaxDenseCells,
          "CmiAccumulator::reset: table too large");
  c1_ = c1;
  c2_ = c2;
  cy_ = cy;
  num_ids_ = 0;
  n_ = 0;
  cells_y_.assign(static_cast<std::size_t>(cy) * static_cast<std::size_t>(c1), 0);
  marg_y_.assign(static_cast<std::size_t>(cy), 0);
  id_of_.assign(pair_cells, -1);
  cells_id_.assign(pair_cells * static_cast<std::size_t>(c1), 0);
  marg_id_.assign(pair_cells, 0);
}

void CmiAccumulator::add(int x1, int x2, int y) {
  const auto c1 = static_cast<std::size_t>(c1_);
  const std::size_t yi = static_cast<std::size_t>(y);
  const std::size_t x1i = static_cast<std::size_t>(x1);
  ++cells_y_[yi * c1 + x1i];
  ++marg_y_[yi];
  // (x2, y) pairs get dense ids in first-appearance order, matching the
  // reference encoding (and so its entropy summation order).
  const std::size_t key = static_cast<std::size_t>(x2) * static_cast<std::size_t>(cy_) + yi;
  std::int32_t id = id_of_[key];
  if (id < 0) {
    id = num_ids_++;
    id_of_[key] = id;
  }
  ++cells_id_[static_cast<std::size_t>(id) * c1 + x1i];
  ++marg_id_[static_cast<std::size_t>(id)];
  ++n_;
}

void CmiAccumulator::count(std::span<const int> x1, std::span<const int> x2,
                           std::span<const int> y) {
  require(x1.size() == x2.size() && x1.size() == y.size(),
          "CmiAccumulator::count: length mismatch");
  for (std::size_t i = 0; i < x1.size(); ++i) add(x1[i], x2[i], y[i]);
}

double CmiAccumulator::value() {
  if (n_ == 0) return 0;
  plogp_.begin(n_);
  // H(X1|Y) = H(Y,X1) - H(Y).
  double h_joint_y = 0;
  for (const std::uint32_t c : cells_y_)
    if (c != 0) h_joint_y -= plogp_.plogp(c);
  double h_y = 0;
  for (const std::uint32_t c : marg_y_)
    if (c != 0) h_y -= plogp_.plogp(c);
  // H(X1|X2,Y) = H((X2,Y),X1) - H(X2,Y), id-major like the reference.
  const auto used = static_cast<std::size_t>(num_ids_) * static_cast<std::size_t>(c1_);
  double h_joint_id = 0;
  for (std::size_t k = 0; k < used; ++k) {
    const std::uint32_t c = cells_id_[k];
    if (c != 0) h_joint_id -= plogp_.plogp(c);
  }
  double h_id = 0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(num_ids_); ++k) {
    const std::uint32_t c = marg_id_[k];
    if (c != 0) h_id -= plogp_.plogp(c);
  }
  return (h_joint_y - h_y) - (h_joint_id - h_id);
}

}  // namespace mpa
