#include "mpa/causal.hpp"

#include <cmath>
#include <optional>
#include <span>

#include "stats/binning.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mpa {

std::string ComparisonResult::label() const {
  return std::to_string(untreated_bin + 1) + ":" + std::to_string(untreated_bin + 2);
}

namespace {

/// §5.2: the treatment practice's 5 bins, clamped equal-width between
/// its 5th and 95th percentiles as in §5.1.1.
constexpr int kTreatmentBins = 5;
constexpr double kLoPct = 5.0;
constexpr double kHiPct = 95.0;

/// Match quality criterion. Standardized mean differences are the
/// primary diagnostic (Stuart 2010); variance ratios are secondary — a
/// comparison is "balanced" when the propensity score passes the
/// classic thresholds, no confounder's |std. diff of means| exceeds
/// kMaxAbsStdDiff, and at least kMinVrPassFrac of confounders have
/// variance ratios in the open interval (0.5, 2). (Our synthetic
/// covariates are heavier-tailed than the OSP's; see EXPERIMENTS.md.)
constexpr double kMaxAbsStdDiff = 0.50;
constexpr double kMinVrPassFrac = 0.70;

/// One comparison point's rows: bin `untreated_bin` of the treatment
/// against the bin above it, with `outcome[i]` as row i's outcome.
ComparisonData comparison_rows(const LogPractices& logs, Practice treatment,
                               std::span<const int> treat_bins, int untreated_bin,
                               std::span<const double> outcome) {
  ComparisonData data;
  // Confounders: every other analysis practice (§5.2.3: "we include all
  // of the practice metrics we infer, minus the treatment practice, as
  // confounding factors").
  std::vector<std::size_t> columns;  // of `logs`
  for (std::size_t j = 0; j < logs.practices().size(); ++j) {
    if (logs.practices()[j] == treatment) continue;
    columns.push_back(j);
    data.confounders.push_back(logs.practices()[j]);
  }
  auto confounder_row = [&](std::size_t i) {
    const std::span<const double> all = logs.row(i);
    std::vector<double> row;
    row.reserve(columns.size());
    for (std::size_t j : columns) row.push_back(all[j]);
    return row;
  };

  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (treat_bins[i] == untreated_bin) {
      data.untreated.push_back(confounder_row(i));
      data.untreated_tickets.push_back(outcome[i]);
    } else if (treat_bins[i] == untreated_bin + 1) {
      data.treated.push_back(confounder_row(i));
      data.treated_tickets.push_back(outcome[i]);
    }
  }
  return data;
}

CausalResult analyze(const CaseTable& table, const LogPractices& logs, Practice treatment,
                     std::span<const double> outcome, const CausalOptions& opts) {
  require(!table.empty(), "causal_analysis: empty case table");
  require(logs.size() == table.size(), "causal_analysis: log table of another case table");
  require(outcome.size() == table.size(),
          "causal_analysis_outcome: outcome length must match table size");
  CausalResult result;
  result.treatment = treatment;

  const auto treat_col = table.column(treatment);
  const Binner binner = Binner::fit(treat_col, kTreatmentBins, kLoPct, kHiPct);
  const auto treat_bins = binner.bin_all(treat_col);

  // Each comparison point is independent (matching has no shared
  // state and uses no RNG), so fan them out; slots keep bin order.
  const std::size_t num_points =
      binner.num_bins() > 0 ? static_cast<std::size_t>(binner.num_bins() - 1) : 0;
  std::vector<std::optional<ComparisonResult>> points(num_points);
  parallel_for(opts.pool, num_points, [&](std::size_t point) {
    const int b = static_cast<int>(point);
    const ComparisonData data = comparison_rows(logs, treatment, treat_bins, b, outcome);
    if (data.untreated.empty() || data.treated.empty()) return;

    ComparisonResult cmp;
    cmp.untreated_bin = b;
    cmp.untreated_cases = data.untreated.size();
    cmp.treated_cases = data.treated.size();

    const MatchResult match = propensity_match(data.treated, data.untreated, {}, opts.pool);
    cmp.pairs = match.pairs.size();
    cmp.untreated_matched = match.untreated_matched_distinct;
    cmp.propensity_balance = match.propensity_balance;
    cmp.worst_abs_std_diff = match.worst_abs_std_diff();
    cmp.vr_pass_fraction = match.variance_ratio_pass_fraction();
    cmp.balanced = !match.pairs.empty() && match.propensity_balance.ok() &&
                   cmp.worst_abs_std_diff < kMaxAbsStdDiff &&
                   cmp.vr_pass_fraction >= kMinVrPassFrac;

    std::vector<double> diffs;
    diffs.reserve(match.pairs.size());
    for (const auto& pr : match.pairs)
      diffs.push_back(data.treated_tickets[pr.treated_index] -
                      data.untreated_tickets[pr.untreated_index]);
    cmp.outcome = sign_test(diffs);
    cmp.causal = cmp.balanced && cmp.outcome.p_value < opts.p_threshold;

    points[point] = std::move(cmp);
  });
  for (auto& point : points)
    if (point.has_value()) result.comparisons.push_back(std::move(*point));
  return result;
}

}  // namespace

// Confounders enter on the log1p scale: most practice metrics are
// heavy-tailed (Appendix A), and matching and assessing balance on the
// log scale is the standard treatment for skewed covariates.
LogPractices::LogPractices(const CaseTable& table)
    : rows_(table.size()),
      practices_(analysis_practices()),
      values_(rows_ * practices_.size()) {
  double* out = values_.data();
  for (std::size_t i = 0; i < table.size(); ++i)
    for (Practice p : practices_) *out++ = std::log1p(std::max(0.0, table[i][p]));
}

ComparisonData comparison_data(const CaseTable& table, Practice treatment, int untreated_bin) {
  require(!table.empty(), "comparison_data: empty case table");
  const auto treat_col = table.column(treatment);
  const Binner binner = Binner::fit(treat_col, kTreatmentBins, kLoPct, kHiPct);
  require(untreated_bin >= 0 && untreated_bin + 1 < binner.num_bins(),
          "comparison_data: comparison point out of range");
  return comparison_rows(LogPractices(table), treatment, binner.bin_all(treat_col),
                         untreated_bin, table.tickets());
}

CausalResult causal_analysis(const CaseTable& table, Practice treatment,
                             const CausalOptions& opts) {
  return analyze(table, LogPractices(table), treatment, table.tickets(), opts);
}

CausalResult causal_analysis(const CaseTable& table, const LogPractices& logs, Practice treatment,
                             const CausalOptions& opts) {
  return analyze(table, logs, treatment, table.tickets(), opts);
}

CausalResult causal_analysis_outcome(const CaseTable& table, Practice treatment,
                                     std::span<const double> outcome,
                                     const CausalOptions& opts) {
  return analyze(table, LogPractices(table), treatment, outcome, opts);
}

}  // namespace mpa
