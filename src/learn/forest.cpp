#include "learn/forest.hpp"

#include <algorithm>
#include <cmath>

namespace mpa {
namespace {

constexpr int kNumTrees = 25;

// Draw a bootstrap sample of row indices according to the variant.
std::vector<std::size_t> bootstrap_rows(const Dataset& data, ForestVariant variant, Rng& rng) {
  const std::size_t n = data.size();
  std::vector<std::size_t> rows;
  rows.reserve(n);
  if (variant == ForestVariant::kBalanced) {
    // Equal draws per class, sized so the total is ~n.
    std::vector<std::vector<std::size_t>> by_class(static_cast<std::size_t>(data.num_classes));
    for (std::size_t i = 0; i < n; ++i)
      by_class[static_cast<std::size_t>(data.y[i])].push_back(i);
    std::size_t populated = 0;
    for (const auto& v : by_class)
      if (!v.empty()) ++populated;
    const std::size_t per_class = std::max<std::size_t>(1, n / std::max<std::size_t>(1, populated));
    for (const auto& v : by_class) {
      if (v.empty()) continue;
      for (std::size_t k = 0; k < per_class; ++k)
        rows.push_back(v[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))]);
    }
  } else {
    for (std::size_t k = 0; k < n; ++k)
      rows.push_back(
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  }
  return rows;
}

}  // namespace

RandomForest RandomForest::fit(const Dataset& data, Rng& rng, const ForestOptions& opts) {
  data.require_fit_input("RandomForest::fit");
  RandomForest forest;
  forest.num_classes_ = data.num_classes;

  const std::size_t d = data.num_features();
  const std::size_t subspace =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::sqrt(static_cast<double>(d))));

  // Class weights for the weighted variant: inverse frequency.
  std::vector<double> class_weight(static_cast<std::size_t>(data.num_classes), 1.0);
  if (opts.variant == ForestVariant::kWeighted) {
    const auto cw = data.class_weights();
    const double total = data.total_weight();
    for (std::size_t c = 0; c < cw.size(); ++c)
      class_weight[c] = cw[c] > 0 ? total / (static_cast<double>(cw.size()) * cw[c]) : 0.0;
  }

  for (int t = 0; t < kNumTrees; ++t) {
    const auto rows = bootstrap_rows(data, opts.variant, rng);
    const auto features = rng.sample_indices(d, subspace);

    Dataset sub;
    sub.num_classes = data.num_classes;
    sub.feature_bins = data.feature_bins;
    for (std::size_t f : features) sub.feature_names.push_back(data.feature_names[f]);
    sub.x.reserve(rows.size());
    sub.y.reserve(rows.size());
    sub.w.reserve(rows.size());
    for (std::size_t i : rows) {
      std::vector<int> xi;
      xi.reserve(features.size());
      for (std::size_t f : features) xi.push_back(data.x[i][f]);
      sub.x.push_back(std::move(xi));
      sub.y.push_back(data.y[i]);
      sub.w.push_back(data.w[i] * class_weight[static_cast<std::size_t>(data.y[i])]);
    }
    forest.trees_.push_back(DecisionTree::fit(sub));
    forest.feature_maps_.push_back(features);
  }
  return forest;
}

int RandomForest::predict(std::span<const int> x) const {
  std::vector<int> votes(static_cast<std::size_t>(num_classes_), 0);
  std::vector<int> reduced;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const auto& map = feature_maps_[t];
    reduced.assign(map.size(), 0);
    for (std::size_t j = 0; j < map.size(); ++j) reduced[j] = x[map[j]];
    votes[static_cast<std::size_t>(trees_[t].predict(reduced))]++;
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
}

}  // namespace mpa
