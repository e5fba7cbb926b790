#include "learn/eval.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

/// Stratified fold assignment: shuffle within each class, deal
/// round-robin so each fold mirrors the class skew.
std::vector<int> assign_folds(const Dataset& data, int k, Rng& rng) {
  std::vector<int> fold_of(data.size(), 0);
  std::vector<std::vector<std::size_t>> by_class(static_cast<std::size_t>(data.num_classes));
  for (std::size_t i = 0; i < data.size(); ++i)
    by_class[static_cast<std::size_t>(data.y[i])].push_back(i);
  int next = 0;
  for (auto& rows : by_class) {
    rng.shuffle(rows);
    for (std::size_t i : rows) fold_of[i] = next++ % k;
  }
  return fold_of;
}

EvalResult from_confusion(std::vector<std::vector<int>> confusion) {
  EvalResult r;
  const std::size_t k = confusion.size();
  r.precision.assign(k, 0.0);
  r.recall.assign(k, 0.0);
  long correct = 0, total = 0;
  for (std::size_t a = 0; a < k; ++a)
    for (std::size_t p = 0; p < k; ++p) {
      total += confusion[a][p];
      if (a == p) correct += confusion[a][p];
    }
  r.accuracy = total == 0 ? 0 : static_cast<double>(correct) / static_cast<double>(total);
  for (std::size_t c = 0; c < k; ++c) {
    long pred_c = 0, actual_c = 0;
    for (std::size_t a = 0; a < k; ++a) pred_c += confusion[a][c];
    for (std::size_t p = 0; p < k; ++p) actual_c += confusion[c][p];
    if (pred_c > 0)
      r.precision[c] = static_cast<double>(confusion[c][c]) / static_cast<double>(pred_c);
    if (actual_c > 0)
      r.recall[c] = static_cast<double>(confusion[c][c]) / static_cast<double>(actual_c);
  }
  r.confusion = std::move(confusion);
  return r;
}

}  // namespace

std::string EvalResult::to_string(std::span<const std::string> class_names) const {
  std::ostringstream os;
  os << "accuracy " << format_double(accuracy * 100, 1) << "%\n";
  for (std::size_t c = 0; c < precision.size(); ++c) {
    os << "  " << class_names[c] << ": precision " << format_double(precision[c], 2)
       << ", recall " << format_double(recall[c], 2) << '\n';
  }
  return os.str();
}

EvalResult evaluate(const Dataset& test, const Predictor& model) {
  require(!test.x.empty(), "evaluate: empty test set");
  std::vector<std::vector<int>> confusion(
      static_cast<std::size_t>(test.num_classes),
      std::vector<int>(static_cast<std::size_t>(test.num_classes), 0));
  for (std::size_t i = 0; i < test.size(); ++i)
    confusion[static_cast<std::size_t>(test.y[i])]
             [static_cast<std::size_t>(model(test.x[i]))]++;
  return from_confusion(std::move(confusion));
}

EvalResult cross_validate(const Dataset& data, int k, const TrainerFactory& factory, Rng& rng,
                          const std::function<Dataset(const Dataset&)>& transform_train,
                          ThreadPool* pool) {
  require(k >= 2, "cross_validate: need k >= 2");
  require(data.size() >= static_cast<std::size_t>(k), "cross_validate: too few samples");

  const std::vector<int> fold_of = assign_folds(data, k, rng);

  // All RNG derivation happens here, on the calling thread, in fold
  // order — the fanned-out folds only consume their private streams.
  std::vector<Rng> fold_rngs;
  fold_rngs.reserve(static_cast<std::size_t>(k));
  for (int f = 0; f < k; ++f) fold_rngs.push_back(rng.fork());

  const std::size_t kc = static_cast<std::size_t>(data.num_classes);
  std::vector<std::vector<std::vector<int>>> fold_confusion(
      static_cast<std::size_t>(k),
      std::vector<std::vector<int>>(kc, std::vector<int>(kc, 0)));

  parallel_for(pool, static_cast<std::size_t>(k), [&](std::size_t fi) {
    const int f = static_cast<int>(fi);
    std::vector<std::size_t> train_idx, test_idx;
    for (std::size_t i = 0; i < data.size(); ++i)
      (fold_of[i] == f ? test_idx : train_idx).push_back(i);
    if (test_idx.empty() || train_idx.empty()) return;
    Dataset train = data.subset(train_idx);
    if (transform_train) train = transform_train(train);
    const Dataset test = data.subset(test_idx);
    const Trainer trainer = factory(fold_rngs[fi]);
    const Predictor model = trainer(train);
    auto& confusion = fold_confusion[fi];
    for (std::size_t i = 0; i < test.size(); ++i)
      confusion[static_cast<std::size_t>(test.y[i])]
               [static_cast<std::size_t>(model(test.x[i]))]++;
  });

  std::vector<std::vector<int>> confusion(kc, std::vector<int>(kc, 0));
  for (const auto& fc : fold_confusion)
    for (std::size_t a = 0; a < kc; ++a)
      for (std::size_t p = 0; p < kc; ++p) confusion[a][p] += fc[a][p];
  return from_confusion(std::move(confusion));
}

}  // namespace mpa
