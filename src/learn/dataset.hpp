// Learning datasets for the health-prediction models (§6.1).
//
// "Prior to learning, we bin data as described in Section 5.1.1.
// However, we use only 5 bins for each management practice. For network
// health, we use either 2 bins or 5 bins; two bins differentiate
// coarsely between healthy (<=1 tickets) and unhealthy networks, while
// five bins capture excellent, good, moderate, poor, and very poor
// (<=2, 3-5, 6-8, 9-11, and >=12 tickets, respectively)."
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/case_table.hpp"
#include "stats/binning.hpp"

namespace mpa {

/// Number of bins per practice feature in learned models.
inline constexpr int kFeatureBins = 5;

/// Row-major feature matrix: each sample is one contiguous row, handed
/// to models as a zero-copy `span<const int>`, and split search reads
/// a node's rows in one pass. All rows must share one width, fixed by
/// the first push_back.
class FeatureMatrix {
 public:
  /// Append one sample (width must match previously pushed rows).
  void push_back(std::span<const int> row);

  /// Row i as a contiguous span (valid until the next push_back).
  std::span<const int> operator[](std::size_t i) const {
    return {row_major_.data() + i * width_, width_};
  }

  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  /// Every row's values, one row after another.
  std::span<const int> values() const { return row_major_; }
  /// Features per row (0 until the first push_back).
  std::size_t width() const { return width_; }
  void reserve(std::size_t rows) { row_major_.reserve(rows * width_); }

 private:
  std::size_t rows_ = 0;
  std::size_t width_ = 0;
  std::vector<int> row_major_;  ///< rows_ x width_, row-major.
};

/// 2-class health label: 0 = healthy (<=1 ticket), 1 = unhealthy.
int health_class_2(double tickets);
/// 5-class health label: 0..4 = excellent..very poor.
int health_class_5(double tickets);

/// Display names for the label space ("healthy"/"unhealthy" or
/// "excellent".."very poor").
std::vector<std::string> health_class_names(int num_classes);

/// A discretized learning dataset: binned features + class labels +
/// per-sample weights.
struct Dataset {
  FeatureMatrix x;                  ///< n rows x d binned features.
  std::vector<int> y;               ///< n labels in [0, num_classes).
  std::vector<double> w;            ///< n weights (all 1.0 unless reweighted).
  std::vector<std::string> feature_names;
  int num_classes = 2;
  int feature_bins = kFeatureBins;  ///< Bin count shared by all features.

  std::size_t size() const { return x.size(); }
  std::size_t num_features() const { return feature_names.size(); }
  /// Throws PreconditionError, its message led by `who`, unless the
  /// dataset is one every learner can fit without checking again: not
  /// empty, `x`, `y` and `w` the same length, rows at least
  /// num_features() wide, every bin in [0, feature_bins) and every
  /// label in [0, num_classes).
  void require_fit_input(std::string_view who) const;
  double total_weight() const;
  /// Per-class summed weight.
  std::vector<double> class_weights() const;
  /// Majority class by weight.
  int majority_class() const;
  /// Subset by row indices.
  Dataset subset(std::span<const std::size_t> indices) const;
};

/// Feature binners fitted on a case table (one per practice), so a
/// model trained on months t-M..t-1 can discretize month t consistently.
struct FeatureSpace {
  std::vector<Binner> binners;  ///< One per practice, kFeatureBins bins.

  static FeatureSpace fit(const CaseTable& table);
  /// Discretize one case's practice vector.
  std::vector<int> bin_case(const Case& c) const;
};

/// Build a dataset from a case table. `num_classes` must be 2 or 5.
/// When `space` is provided it is used as-is (online prediction);
/// otherwise a fresh FeatureSpace is fitted on `table`.
Dataset make_dataset(const CaseTable& table, int num_classes,
                     const FeatureSpace* space = nullptr);

}  // namespace mpa
