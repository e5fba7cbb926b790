// Model evaluation: accuracy, per-class precision/recall, confusion
// matrices, and stratified k-fold cross-validation (§6.1, "Model
// Validation": 5-fold cross validation).
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "learn/dataset.hpp"
#include "util/rng.hpp"

namespace mpa {

class ThreadPool;

/// A fitted model as a prediction function over binned features.
using Predictor = std::function<int(std::span<const int>)>;

/// A training procedure: dataset -> predictor. Trainers that need
/// randomness should capture their own forked Rng.
using Trainer = std::function<Predictor(const Dataset&)>;

/// Builds one fold's trainer from that fold's private RNG stream.
/// Fold streams are forked from the caller's Rng in fold order on the
/// dispatching thread, which is what makes parallel cross-validation
/// bit-identical to the serial run.
using TrainerFactory = std::function<Trainer(Rng& fold_rng)>;

struct EvalResult {
  double accuracy = 0;
  std::vector<double> precision;  ///< Per class; 0 when nothing predicted as c.
  std::vector<double> recall;     ///< Per class; 0 when class absent.
  std::vector<std::vector<int>> confusion;  ///< [actual][predicted].

  std::string to_string(std::span<const std::string> class_names) const;
};

/// Evaluate a predictor on a labelled dataset.
EvalResult evaluate(const Dataset& test, const Predictor& model);

/// Stratified k-fold cross-validation: per-class shuffled round-robin
/// fold assignment; trains k times and aggregates one pooled confusion
/// matrix. `transform_train` (optional) is applied to each training
/// fold only — this is where oversampling belongs, so duplicated
/// minority samples never leak into a test fold.
///
/// Fold assignment and the per-fold RNG streams are derived from `rng`
/// on the calling thread (in fold order), then the k train+test passes
/// fan out on `pool` (null = run inline). Per-fold confusion matrices
/// merge in fold order, so the result is bit-identical at any thread
/// count.
EvalResult cross_validate(const Dataset& data, int k, const TrainerFactory& factory, Rng& rng,
                          const std::function<Dataset(const Dataset&)>& transform_train = {},
                          ThreadPool* pool = nullptr);

}  // namespace mpa
