#include "learn/baselines.hpp"

#include <algorithm>
#include <cmath>

namespace mpa {
namespace {

constexpr double kLambda = 1e-3;  ///< Regularization.
constexpr int kEpochs = 20;       ///< Passes over the data.

}  // namespace

MajorityClassifier MajorityClassifier::fit(const Dataset& data) {
  data.require_fit_input("MajorityClassifier::fit");
  MajorityClassifier m;
  m.majority_ = data.majority_class();
  return m;
}

int MajorityClassifier::predict(std::span<const int>) const {
  return majority_;
}

LinearSvm LinearSvm::fit(const Dataset& data, Rng& rng) {
  data.require_fit_input("LinearSvm::fit");
  LinearSvm svm;
  svm.num_classes_ = data.num_classes;
  const std::size_t d = data.num_features();
  svm.w_.assign(static_cast<std::size_t>(data.num_classes), std::vector<double>(d, 0.0));
  svm.b_.assign(static_cast<std::size_t>(data.num_classes), 0.0);

  // Pegasos per class: minimize lambda/2 ||w||^2 + hinge loss.
  for (int cls = 0; cls < data.num_classes; ++cls) {
    auto& w = svm.w_[static_cast<std::size_t>(cls)];
    auto& b = svm.b_[static_cast<std::size_t>(cls)];
    long t = 0;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      std::vector<std::size_t> order(data.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.shuffle(order);
      for (std::size_t i : order) {
        ++t;
        const double eta = 1.0 / (kLambda * static_cast<double>(t));
        const double yi = data.y[i] == cls ? 1.0 : -1.0;
        double margin = b;
        for (std::size_t j = 0; j < d; ++j) margin += w[j] * data.x[i][j];
        margin *= yi;
        for (std::size_t j = 0; j < d; ++j) w[j] *= (1.0 - eta * kLambda);
        if (margin < 1.0) {
          for (std::size_t j = 0; j < d; ++j) w[j] += eta * yi * data.x[i][j];
          b += eta * yi;
        }
      }
    }
  }
  return svm;
}

int LinearSvm::predict(std::span<const int> x) const {
  int best = 0;
  double best_score = -1e300;
  for (int cls = 0; cls < num_classes_; ++cls) {
    double score = b_[static_cast<std::size_t>(cls)];
    const auto& w = w_[static_cast<std::size_t>(cls)];
    for (std::size_t j = 0; j < w.size() && j < x.size(); ++j) score += w[j] * x[j];
    if (score > best_score) {
      best_score = score;
      best = cls;
    }
  }
  return best;
}

}  // namespace mpa
