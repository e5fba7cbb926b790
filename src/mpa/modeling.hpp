// Predictive health modeling (§6): the model zoo (decision tree,
// +AdaBoost, +oversampling, majority, SVM, random forests), 5-fold
// cross-validated evaluation (Figure 8, §6.1 text), and the online
// month-t prediction protocol (Table 9).
#pragma once

#include <string_view>

#include "learn/adaboost.hpp"
#include "learn/eval.hpp"
#include "metrics/case_table.hpp"

namespace mpa {

enum class ModelKind : std::uint8_t {
  kMajority,
  kSvm,
  kDecisionTree,        // DT
  kDtBoost,             // DT+AB  (SAMME ensemble)
  kDtOversample,        // DT+OS
  kDtBoostOversample,   // DT+AB+OS
  kForestPlain = 7,     // footnote-2 comparisons; session RNG streams derive from these values
  kForestBalanced,
  kForestWeighted,
};

std::string_view to_string(ModelKind kind);

struct ModelingOptions {
  BoostOptions boost = {};
  /// Fan CV folds / online months out on this pool (null = serial),
  /// and grow the tree learners' subtrees on it inside them. Every
  /// trainer consumes a private RNG stream forked on the calling
  /// thread in task order, and a tree is the same at any thread count,
  /// so results are bit-identical at any thread count.
  ThreadPool* pool = nullptr;
};

/// Whether this kind oversamples its training data (the transform is
/// applied to training folds only).
bool uses_oversampling(ModelKind kind);

/// Build a Trainer for `kind`. Randomized trainers fork `rng`.
Trainer make_trainer(ModelKind kind, Rng& rng, const ModelingOptions& opts = {});

/// 5-fold cross-validated evaluation of one model kind on a case table
/// (fits the feature space on the full table, as the paper does).
EvalResult evaluate_model_cv(const CaseTable& table, int num_classes, ModelKind kind, Rng& rng,
                             const ModelingOptions& opts = {});

/// Fit one decision tree on all data, oversampled by the paper's recipe
/// (DT+OS), for Figure 10. It is not boosted: the SAMME ensemble has no
/// single tree to show, and the paper's tree refitted on the last
/// boosting weights measured 60-66% 5-class CV accuracy against the
/// ensemble's 82-85% (DESIGN.md §6).
DecisionTree fit_final_tree(const CaseTable& table, int num_classes);

/// Online prediction (Table 9): for each t in [first_t, last_t], train
/// on months t-M..t-1 and predict month t; returns the mean per-month
/// accuracy. Months with no train or test rows are skipped.
double online_prediction_accuracy(const CaseTable& table, int num_classes, int history_m,
                                  ModelKind kind, Rng& rng, int first_t, int last_t,
                                  const ModelingOptions& opts = {});

}  // namespace mpa
