// C4.5-style decision tree over binned categorical features (§6.1).
//
// "Decision trees are better equipped to capture the limited set of
// unhealthy cases, because they can model arbitrary boundaries between
// cases. Furthermore, they are intuitive for operators to understand."
//
// Splits are multiway on a feature's bin value, chosen by information
// gain ratio (Quinlan). Pruning follows the paper: "each branch where
// the number of data points reaching this branch is below a threshold
// alpha is replaced with a leaf whose label is the majority class among
// the data points reaching that leaf. We set alpha = 1% of all data."
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "learn/dataset.hpp"

namespace mpa {

class ThreadPool;

struct TreeOptions {
  /// Pruning threshold as a fraction of the total training weight.
  double min_weight_frac = 0.01;
  /// Optional depth cap (weak learners for boosting); <=0 = unlimited.
  int max_depth = 0;
};

class DecisionTree {
 public:
  /// Learn a tree from weighted examples (Dataset::require_fit_input
  /// states what `data` must hold).
  /// When `row_labels` is given, it receives each training row's leaf
  /// label, which is predict(data.x[i]).
  /// With a `pool`, the subtrees under a split that holds a large
  /// enough share of the rows grow as tasks on it; the nodes are
  /// spliced back in the serial pre-order, so the tree is the same
  /// with or without a pool, at any thread count.
  static DecisionTree fit(const Dataset& data, const TreeOptions& opts = {},
                          std::vector<int>* row_labels = nullptr, ThreadPool* pool = nullptr);

  /// Predict the class of one binned feature vector.
  int predict(std::span<const int> x) const;

  /// Number of nodes (internal + leaves).
  std::size_t node_count() const { return nodes_.size(); }
  /// Number of leaves.
  std::size_t leaf_count() const;
  /// Maximum root-to-leaf depth (root = 0).
  int depth() const;

  /// The feature split at the root (-1 if the tree is a single leaf) —
  /// the paper observes this is the highest-MI practice (§6.2).
  int root_feature() const;

  /// Render the top `max_depth` levels, one node per line, using the
  /// given feature and class names (Figure 10).
  std::string describe(std::span<const std::string> feature_names,
                       std::span<const std::string> class_names, int max_depth = 3) const;

  /// One root-to-leaf decision rule: the bin constraints along the path
  /// and the leaf's class. §6.2: "examining the paths from the decision
  /// tree's root to its leaves provides valuable insights into which
  /// combinations of management practices lead to an (un)healthy
  /// network."
  struct Rule {
    /// (feature index, bin value) constraints in root-to-leaf order.
    std::vector<std::pair<int, int>> conditions;
    int label = 0;
  };

  /// All rules whose leaf predicts `label`, shortest first.
  std::vector<Rule> paths_to(int label) const;

  /// Render a rule like "No. of devices=high AND No. of roles=low ->
  /// unhealthy" using 5-bin level names.
  static std::string format_rule(const Rule& rule, std::span<const std::string> feature_names,
                                 std::span<const std::string> class_names);

 private:
  struct Node {
    int feature = -1;           ///< -1 for leaves.
    int label = 0;              ///< Majority class (valid for all nodes).
    std::vector<int> children;  ///< Child node index per bin value.
  };

  struct Grower;
  struct Scratch;

  // AdaBoost checks its data once and grows every round through grow.
  friend class AdaBoostClassifier;

  /// fit without the input check.
  static DecisionTree grow(const Dataset& data, const TreeOptions& opts,
                           std::vector<int>* row_labels, ThreadPool* pool);

  /// Grow the subtree over `rows`, which it reorders in place so that
  /// each child's rows are contiguous. `used` marks the features split
  /// on above it.
  int build(const Grower& g, std::span<std::size_t> rows, std::vector<bool>& used, int depth,
            Scratch& scratch);

  /// Append `subtree`'s nodes, its root first; returns the root's index.
  int splice(DecisionTree&& subtree);

  std::vector<Node> nodes_;  ///< nodes_[0] is the root.
  int root_ = -1;
};

}  // namespace mpa
