#include "learn/dataset.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mpa {
namespace {

/// Whether every value lies in [0, n). One pass without an early exit,
/// and one unsigned compare per value (a negative value wraps past n),
/// so it vectorizes: a fit runs it over every training bin.
bool all_in_range(std::span<const int> values, int n) {
  if (n <= 0) return values.empty();
  const auto end = static_cast<unsigned>(n);
  unsigned outside = 0;
  for (const int v : values) outside |= static_cast<unsigned>(v) >= end;
  return outside == 0;
}

}  // namespace

int health_class_2(double tickets) {
  return tickets <= 1 ? 0 : 1;
}

int health_class_5(double tickets) {
  if (tickets <= 2) return 0;   // excellent
  if (tickets <= 5) return 1;   // good
  if (tickets <= 8) return 2;   // moderate
  if (tickets <= 11) return 3;  // poor
  return 4;                     // very poor
}

std::vector<std::string> health_class_names(int num_classes) {
  if (num_classes == 2) return {"healthy", "unhealthy"};
  require(num_classes == 5, "health_class_names: num_classes must be 2 or 5");
  return {"excellent", "good", "moderate", "poor", "very poor"};
}

void FeatureMatrix::push_back(std::span<const int> row) {
  if (rows_ == 0) width_ = row.size();
  require(row.size() == width_, "FeatureMatrix: inconsistent row width");
  row_major_.insert(row_major_.end(), row.begin(), row.end());
  ++rows_;
}

void Dataset::require_fit_input(std::string_view who) const {
  const auto check = [who](bool ok, const char* what) {
    require(ok, [&] { return std::string(who) + ": " + what; });
  };
  check(!x.empty(), "empty dataset");
  check(x.size() == y.size() && x.size() == w.size(), "inconsistent dataset");
  // The learners index rows by feature, and the tree's histograms by
  // bin and class, unchecked.
  check(x.width() >= num_features(), "rows narrower than feature_names");
  check(all_in_range(x.values(), feature_bins), "a bin outside [0, feature_bins)");
  check(all_in_range(y, num_classes), "a label outside [0, num_classes)");
}

double Dataset::total_weight() const {
  double t = 0;
  for (double wi : w) t += wi;
  return t;
}

std::vector<double> Dataset::class_weights() const {
  std::vector<double> out(static_cast<std::size_t>(num_classes), 0.0);
  for (std::size_t i = 0; i < y.size(); ++i) out[static_cast<std::size_t>(y[i])] += w[i];
  return out;
}

int Dataset::majority_class() const {
  const auto cw = class_weights();
  return static_cast<int>(std::max_element(cw.begin(), cw.end()) - cw.begin());
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.feature_names = feature_names;
  out.num_classes = num_classes;
  out.feature_bins = feature_bins;
  out.x.reserve(indices.size());
  out.y.reserve(indices.size());
  out.w.reserve(indices.size());
  for (std::size_t i : indices) {
    require(i < x.size(), "Dataset::subset: index out of range");
    out.x.push_back(x[i]);
    out.y.push_back(y[i]);
    out.w.push_back(w[i]);
  }
  return out;
}

FeatureSpace FeatureSpace::fit(const CaseTable& table) {
  FeatureSpace space;
  space.binners.reserve(kNumPractices);
  for (Practice p : all_practices()) {
    const auto col = table.column(p);
    space.binners.push_back(Binner::fit(col, kFeatureBins));
  }
  return space;
}

std::vector<int> FeatureSpace::bin_case(const Case& c) const {
  std::vector<int> out(kNumPractices);
  for (int j = 0; j < kNumPractices; ++j)
    out[static_cast<std::size_t>(j)] =
        binners[static_cast<std::size_t>(j)].bin(c[static_cast<Practice>(j)]);
  return out;
}

Dataset make_dataset(const CaseTable& table, int num_classes, const FeatureSpace* space) {
  require(num_classes == 2 || num_classes == 5, "make_dataset: num_classes must be 2 or 5");
  FeatureSpace local;
  if (space == nullptr) {
    local = FeatureSpace::fit(table);
    space = &local;
  }
  Dataset d;
  d.num_classes = num_classes;
  d.feature_bins = kFeatureBins;
  for (Practice p : all_practices()) d.feature_names.emplace_back(practice_name(p));
  d.x.reserve(table.size());
  d.y.reserve(table.size());
  d.w.assign(table.size(), 1.0);
  for (const auto& c : table.cases()) {
    d.x.push_back(space->bin_case(c));
    d.y.push_back(num_classes == 2 ? health_class_2(c.tickets) : health_class_5(c.tickets));
  }
  return d;
}

}  // namespace mpa
