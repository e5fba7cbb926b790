#include "mpa/modeling.hpp"

#include <memory>

#include "learn/baselines.hpp"
#include "learn/forest.hpp"
#include "learn/sampling.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mpa {
namespace {

/// §6.1: 5-fold cross-validation.
constexpr int kFolds = 5;

}  // namespace

std::string_view to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMajority: return "majority";
    case ModelKind::kSvm: return "svm";
    case ModelKind::kDecisionTree: return "DT";
    case ModelKind::kDtBoost: return "DT+AB";
    case ModelKind::kDtOversample: return "DT+OS";
    case ModelKind::kDtBoostOversample: return "DT+AB+OS";
    case ModelKind::kForestPlain: return "RF";
    case ModelKind::kForestBalanced: return "RF-balanced";
    case ModelKind::kForestWeighted: return "RF-weighted";
  }
  return "unknown";
}

bool uses_oversampling(ModelKind kind) {
  return kind == ModelKind::kDtOversample || kind == ModelKind::kDtBoostOversample;
}

Trainer make_trainer(ModelKind kind, Rng& rng, const ModelingOptions& opts) {
  switch (kind) {
    case ModelKind::kMajority:
      return [](const Dataset& train) -> Predictor {
        const auto model = MajorityClassifier::fit(train);
        return [model](std::span<const int> x) { return model.predict(x); };
      };
    case ModelKind::kSvm: {
      auto fork = std::make_shared<Rng>(rng.fork());
      return [fork](const Dataset& train) -> Predictor {
        const auto model = LinearSvm::fit(train, *fork);
        return [model](std::span<const int> x) { return model.predict(x); };
      };
    }
    case ModelKind::kDecisionTree:
    case ModelKind::kDtOversample:
      return [pool = opts.pool](const Dataset& train) -> Predictor {
        auto model = std::make_shared<DecisionTree>(DecisionTree::fit(train, {}, nullptr, pool));
        return [model](std::span<const int> x) { return model->predict(x); };
      };
    case ModelKind::kDtBoost:
    case ModelKind::kDtBoostOversample: {
      const BoostOptions boost_opts = opts.boost;
      return [boost_opts, pool = opts.pool](const Dataset& train) -> Predictor {
        auto model = std::make_shared<AdaBoostClassifier>(
            AdaBoostClassifier::fit(train, boost_opts, pool));
        return [model](std::span<const int> x) { return model->predict(x); };
      };
    }
    case ModelKind::kForestPlain:
    case ModelKind::kForestBalanced:
    case ModelKind::kForestWeighted: {
      ForestOptions fopts;
      fopts.variant = kind == ModelKind::kForestBalanced  ? ForestVariant::kBalanced
                      : kind == ModelKind::kForestWeighted ? ForestVariant::kWeighted
                                                            : ForestVariant::kPlain;
      auto fork = std::make_shared<Rng>(rng.fork());
      return [fopts, fork](const Dataset& train) -> Predictor {
        auto model = std::make_shared<RandomForest>(RandomForest::fit(train, *fork, fopts));
        return [model](std::span<const int> x) { return model->predict(x); };
      };
    }
  }
  require(false, "make_trainer: unknown model kind");
  return {};
}

EvalResult evaluate_model_cv(const CaseTable& table, int num_classes, ModelKind kind, Rng& rng,
                             const ModelingOptions& opts) {
  const Dataset data = make_dataset(table, num_classes);
  // One trainer per fold, built from that fold's private RNG stream
  // (randomized trainers stay independent across concurrent folds).
  const TrainerFactory factory = [&](Rng& fold_rng) {
    return make_trainer(kind, fold_rng, opts);
  };
  std::function<Dataset(const Dataset&)> transform;
  if (uses_oversampling(kind)) {
    const auto recipe = paper_oversampling_recipe(num_classes);
    transform = [recipe](const Dataset& train) { return oversample(train, recipe); };
  }
  return cross_validate(data, kFolds, factory, rng, transform, opts.pool);
}

DecisionTree fit_final_tree(const CaseTable& table, int num_classes) {
  Dataset data = make_dataset(table, num_classes);
  data = oversample(data, paper_oversampling_recipe(num_classes));
  return DecisionTree::fit(data);
}

double online_prediction_accuracy(const CaseTable& table, int num_classes, int history_m,
                                  ModelKind kind, Rng& rng, int first_t, int last_t,
                                  const ModelingOptions& opts) {
  require(history_m >= 1, "online_prediction_accuracy: need at least one history month");
  if (last_t < first_t) return 0;
  const std::size_t num_t = static_cast<std::size_t>(last_t - first_t + 1);

  // One private RNG stream per month t, forked in t order on the
  // calling thread (unconditionally, so skipped months don't shift
  // later streams); the months then fan out independently.
  std::vector<Rng> month_rngs;
  month_rngs.reserve(num_t);
  for (std::size_t i = 0; i < num_t; ++i) month_rngs.push_back(rng.fork());

  std::vector<double> acc(num_t, 0.0);
  std::vector<char> counted(num_t, 0);
  parallel_for(opts.pool, num_t, [&](std::size_t ti) {
    const int t = first_t + static_cast<int>(ti);
    const CaseTable train_cases = table.filter_months(t - history_m, t - 1);
    const CaseTable test_cases = table.month(t);
    if (train_cases.empty() || test_cases.empty()) return;

    // Feature space fitted on the training window only; month t is
    // discretized with the *trained* bins (true online protocol).
    const FeatureSpace space = FeatureSpace::fit(train_cases);
    Dataset train = make_dataset(train_cases, num_classes, &space);
    if (uses_oversampling(kind)) train = oversample(train, paper_oversampling_recipe(num_classes));
    const Dataset test = make_dataset(test_cases, num_classes, &space);

    const Trainer trainer = make_trainer(kind, month_rngs[ti], opts);
    const Predictor model = trainer(train);
    const EvalResult ev = evaluate(test, model);
    acc[ti] = ev.accuracy;
    counted[ti] = 1;
  });

  double acc_sum = 0;
  int months = 0;
  for (std::size_t ti = 0; ti < num_t; ++ti) {
    if (!counted[ti]) continue;
    acc_sum += acc[ti];
    ++months;
  }
  return months == 0 ? 0 : acc_sum / months;
}

}  // namespace mpa
