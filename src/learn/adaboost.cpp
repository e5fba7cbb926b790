#include "learn/adaboost.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mpa {
namespace {

// One SAMME round: fit a tree on `working` weights, compute its
// weighted error and alpha, and update the weights in place.
// Returns false (and leaves weights unchanged) if boosting should stop.
bool samme_round(Dataset& working, const TreeOptions& tree_opts, DecisionTree* out_tree,
                 double* out_alpha) {
  const DecisionTree tree = DecisionTree::fit(working, tree_opts);
  double err = 0, total = 0;
  std::vector<bool> wrong(working.size());
  for (std::size_t i = 0; i < working.size(); ++i) {
    wrong[i] = tree.predict(working.x[i]) != working.y[i];
    if (wrong[i]) err += working.w[i];
    total += working.w[i];
  }
  err /= total;
  const double k = working.num_classes;
  if (err <= 1e-12) {  // perfect learner: keep it, stop boosting
    *out_tree = tree;
    *out_alpha = 10.0;  // effectively dominant
    return false;
  }
  if (err >= 1.0 - 1.0 / k) return false;  // worse than chance: stop
  const double alpha = std::log((1.0 - err) / err) + std::log(k - 1.0);
  for (std::size_t i = 0; i < working.size(); ++i)
    if (wrong[i]) working.w[i] *= std::exp(alpha);
  // Normalize to keep weights in a sane range.
  double sum = 0;
  for (double w : working.w) sum += w;
  const double scale = static_cast<double>(working.size()) / sum;
  for (double& w : working.w) w *= scale;
  *out_tree = tree;
  *out_alpha = alpha;
  return true;
}

}  // namespace

AdaBoostClassifier AdaBoostClassifier::fit(const Dataset& data, const BoostOptions& opts) {
  require(!data.x.empty(), "AdaBoostClassifier::fit: empty dataset");
  AdaBoostClassifier model;
  model.num_classes_ = data.num_classes;
  Dataset working = data;
  for (int t = 0; t < opts.iterations; ++t) {
    DecisionTree tree;
    double alpha = 0;
    const bool cont = samme_round(working, opts.tree, &tree, &alpha);
    if (alpha > 0) {
      model.trees_.push_back(std::move(tree));
      model.alphas_.push_back(alpha);
    }
    if (!cont) break;
  }
  if (model.trees_.empty()) {
    // Degenerate data (e.g. single class): fall back to one plain tree.
    model.trees_.push_back(DecisionTree::fit(data, opts.tree));
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
