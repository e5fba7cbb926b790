#include "learn/adaboost.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mpa {

// SAMME: each round fits a tree on the working weights, weighs its vote
// by alpha from its weighted error, and raises the weight of the
// examples it got wrong.
AdaBoostClassifier AdaBoostClassifier::fit(const Dataset& data, const BoostOptions& opts,
                                           ThreadPool* pool) {
  // The rounds change only the weights, which the check does not read.
  data.require_fit_input("AdaBoostClassifier::fit");
  AdaBoostClassifier model;
  model.num_classes_ = data.num_classes;
  Dataset working = data;
  const double k = working.num_classes;
  std::vector<int> fitted;  // each training row's leaf label
  for (int t = 0; t < opts.iterations; ++t) {
    DecisionTree tree = DecisionTree::grow(working, opts.tree, &fitted, pool);
    double err = 0, total = 0;
    for (std::size_t i = 0; i < working.size(); ++i) {
      if (fitted[i] != working.y[i]) err += working.w[i];
      total += working.w[i];
    }
    err /= total;
    if (err <= 1e-12) {  // perfect learner: keep it, stop boosting
      model.trees_.push_back(std::move(tree));
      model.alphas_.push_back(10.0);  // effectively dominant
      break;
    }
    if (err >= 1.0 - 1.0 / k) break;  // worse than chance: stop
    const double alpha = std::log((1.0 - err) / err) + std::log(k - 1.0);
    for (std::size_t i = 0; i < working.size(); ++i)
      if (fitted[i] != working.y[i]) working.w[i] *= std::exp(alpha);
    // Normalize to keep weights in a sane range.
    double sum = 0;
    for (double w : working.w) sum += w;
    const double scale = static_cast<double>(working.size()) / sum;
    for (double& w : working.w) w *= scale;
    model.trees_.push_back(std::move(tree));
    model.alphas_.push_back(alpha);
  }
  if (model.trees_.empty()) {
    // Degenerate data (e.g. single class): fall back to one plain tree.
    model.trees_.push_back(DecisionTree::grow(data, opts.tree, nullptr, pool));
    model.alphas_.push_back(1.0);
  }
  return model;
}

int AdaBoostClassifier::predict(std::span<const int> x) const {
  std::vector<double> votes(static_cast<std::size_t>(num_classes_), 0.0);
  for (std::size_t t = 0; t < trees_.size(); ++t)
    votes[static_cast<std::size_t>(trees_[t].predict(x))] += alphas_[t];
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
}

}  // namespace mpa
