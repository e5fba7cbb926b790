// Random forests, including the balanced and weighted variants the
// paper evaluated (§6.1, footnote 2):
//
// "We also experimented with random forests; neither balanced nor
// weighted random forests improve the accuracy for the minority classes
// beyond the improvements we are already able to achieve with boosting
// and oversampling."
#pragma once

#include <span>
#include <vector>

#include "learn/decision_tree.hpp"
#include "util/rng.hpp"

namespace mpa {

enum class ForestVariant : std::uint8_t {
  kPlain,     ///< Standard bootstrap over all samples.
  kBalanced,  ///< Per-tree bootstrap draws equal counts from each class.
  kWeighted,  ///< Sample weights inversely proportional to class frequency.
};

struct ForestOptions {
  ForestVariant variant = ForestVariant::kPlain;
};

/// 25 trees, each on a bootstrap sample and a random subspace of
/// sqrt(d) features.
class RandomForest {
 public:
  static RandomForest fit(const Dataset& data, Rng& rng, const ForestOptions& opts = {});

  /// Majority vote over the ensemble.
  int predict(std::span<const int> x) const;

  std::size_t size() const { return trees_.size(); }

 private:
  std::vector<DecisionTree> trees_;
  /// Per tree: which original feature each reduced column came from.
  std::vector<std::vector<std::size_t>> feature_maps_;
  int num_classes_ = 2;
};

}  // namespace mpa
