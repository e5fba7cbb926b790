// Causal analysis via matched-design QEDs (§5.2).
//
// For a treatment practice: bin its values into 5 bins (same clamped
// equal-width strategy as §5.1.1), treat neighbouring bins (b, b+1) as
// untreated/treated, match on propensity scores over all remaining
// practices (on the log1p scale), verify balance, and sign-test the
// per-pair ticket differences. Comparison points 1:2 .. 4:5 reproduce
// Tables 5-8.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "metrics/case_table.hpp"
#include "stats/matching.hpp"
#include "stats/signtest.hpp"

namespace mpa {

class ThreadPool;

struct CausalOptions {
  double p_threshold = 1e-3;  ///< "moderately conservative" §5.2.5.
  /// Fan the comparison points (1:2 .. 4:5) out on this pool (null =
  /// serial), and each point's propensity-fit sums inside them.
  /// Matching is deterministic, so results are bit-identical at any
  /// thread count.
  ThreadPool* pool = nullptr;
};

/// Every case's analysis practices on the log1p scale, the scale the
/// confounders enter matching on: log1p(max(0, x)), one row per case
/// of the table it was built from, one column per analysis practice.
/// A sweep over many treatments of one table builds it once.
class LogPractices {
 public:
  explicit LogPractices(const CaseTable& table);

  /// Cases (rows).
  std::size_t size() const { return rows_; }
  /// Column order: analysis_practices().
  std::span<const Practice> practices() const { return practices_; }
  /// Case `i`'s values, one per practices() entry.
  std::span<const double> row(std::size_t i) const {
    return {values_.data() + i * practices_.size(), practices_.size()};
  }

 private:
  std::size_t rows_ = 0;
  std::vector<Practice> practices_;
  std::vector<double> values_;  ///< Row-major, cases x practices.
};

/// Result of one comparison point (e.g. bin 1 vs bin 2).
struct ComparisonResult {
  int untreated_bin = 0;  ///< 0-based bin b; the paper labels it b+1.
  std::size_t untreated_cases = 0;
  std::size_t treated_cases = 0;
  std::size_t pairs = 0;
  std::size_t untreated_matched = 0;  ///< Distinct untreated used.
  BalanceStat propensity_balance;
  double worst_abs_std_diff = 0;   ///< Across confounders.
  double vr_pass_fraction = 1;     ///< Confounders with variance ratio in [0.5,2].
  bool balanced = false;      ///< Match quality criterion passes.
  SignTestResult outcome;     ///< fewer/none/more tickets + p-value.
  bool causal = false;        ///< balanced && p < threshold.

  /// "1:2"-style label.
  std::string label() const;
};

/// Full causal analysis of one treatment practice.
struct CausalResult {
  Practice treatment{};
  std::vector<ComparisonResult> comparisons;  ///< One per adjacent bin pair.

  /// The paper's headline cell: the 1:2 comparison.
  const ComparisonResult* low_bins() const {
    return comparisons.empty() ? nullptr : &comparisons.front();
  }
};

/// Run the matched-design QED for `treatment` over `table`. All other
/// practices are confounders. Comparison points with an empty side are
/// skipped.
CausalResult causal_analysis(const CaseTable& table, Practice treatment,
                             const CausalOptions& opts = {});

/// As above, reading the confounders from `logs`, which must have been
/// built from `table`.
CausalResult causal_analysis(const CaseTable& table, const LogPractices& logs, Practice treatment,
                             const CausalOptions& opts = {});

/// As above but with a custom outcome column aligned to `table`'s rows
/// (e.g. high-impact ticket counts from summarize_health, §2.2's
/// finer-grained health measures). `outcome.size()` must equal
/// `table.size()`.
CausalResult causal_analysis_outcome(const CaseTable& table, Practice treatment,
                                     std::span<const double> outcome,
                                     const CausalOptions& opts = {});

/// The raw inputs of one comparison point — confounder matrices (on
/// the log1p scale) and outcomes for the treated
/// (bin `untreated_bin`+1) and untreated (bin `untreated_bin`) cases.
/// Exposed so benches can reproduce the matching internals shown in
/// Table 5 and Figure 7.
struct ComparisonData {
  Matrix treated;
  Matrix untreated;
  std::vector<double> treated_tickets;
  std::vector<double> untreated_tickets;
  std::vector<Practice> confounders;  ///< Column order of the matrices.
};

ComparisonData comparison_data(const CaseTable& table, Practice treatment, int untreated_bin);

}  // namespace mpa
