// Feature matrices for the learner tests, written as brace rows.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "learn/dataset.hpp"

namespace mpa {

/// `feature_rows({{0, 1}, {1, 0}})`: a matrix holding those rows.
inline FeatureMatrix feature_rows(std::initializer_list<std::vector<int>> rows) {
  FeatureMatrix m;
  for (const auto& row : rows) m.push_back(row);
  return m;
}

/// Whether `a` and `b` hold the same rows.
inline bool same_rows(const FeatureMatrix& a, const FeatureMatrix& b) {
  return a.size() == b.size() && a.width() == b.width() &&
         std::ranges::equal(a.values(), b.values());
}

}  // namespace mpa
