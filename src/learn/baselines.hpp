// Baseline classifiers the paper compares against (§6.1).
//
//  * Majority-class predictor — the trivial baseline whose accuracy the
//    decision trees must beat (64.8% on 2 classes in the paper).
//  * Linear SVM — "we found the SVMs performed worse than a simple
//    majority classifier. This is due to unhealthy cases being
//    concentrated in a small part of the management practice space."
//    Implemented as one-vs-rest Pegasos over the binned features.
#pragma once

#include <span>
#include <vector>

#include "learn/dataset.hpp"
#include "util/rng.hpp"

namespace mpa {

/// Predicts the majority class of the training data, always.
class MajorityClassifier {
 public:
  static MajorityClassifier fit(const Dataset& data);
  int predict(std::span<const int> x) const;

 private:
  int majority_ = 0;
};

/// One-vs-rest linear SVM trained with Pegasos SGD (lambda 1e-3, 20
/// passes over the data). Bin indices are used directly as (scaled)
/// feature values.
class LinearSvm {
 public:
  static LinearSvm fit(const Dataset& data, Rng& rng);
  int predict(std::span<const int> x) const;

 private:
  std::vector<std::vector<double>> w_;  ///< Per-class weight vectors.
  std::vector<double> b_;               ///< Per-class biases.
  int num_classes_ = 2;
};

}  // namespace mpa
