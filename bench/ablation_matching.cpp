// Ablation: matching design choices (DESIGN.md §5). Compares, for the
// change-events 1:2 comparison:
//   * exact matching (the paper's rejected baseline — near-zero pairs)
//   * plain nearest-neighbour score matching, unlimited replacement
//   * + caliper
//   * + limited replacement
//   * + covariate distance within the caliper (our default)
// reporting pairs, distinct untreated, and covariate balance.
#include <algorithm>
#include <iostream>

#include "common.hpp"
#include "mpa/causal.hpp"
#include "util/table.hpp"

int main() {
  using namespace mpa;
  bench::banner("Ablation", "Matching design choices (change events, 1:2)",
                "exact matching yields almost no pairs; each refinement trades "
                "pair count for covariate balance; the full recipe keeps "
                "|sdm| low with a usable pair count");
  const CaseTable table = bench::load_case_table();
  const ComparisonData data = comparison_data(table, Practice::kNumChangeEvents, 0);

  struct Variant {
    const char* name;
    MatchOptions opts;
  };
  std::vector<Variant> variants;
  {
    MatchOptions plain;
    plain.caliper_sd = 0;
    plain.max_reuse = 0;
    plain.covariates_within_caliper = false;
    variants.push_back({"NN score, unlimited reuse", plain});
    MatchOptions caliper = plain;
    caliper.caliper_sd = 0.25;
    variants.push_back({"+ caliper 0.25sd", caliper});
    MatchOptions limited = caliper;
    limited.max_reuse = 6;
    variants.push_back({"+ max reuse 6", limited});
    MatchOptions covariates = limited;
    covariates.covariates_within_caliper = true;
    variants.push_back({"+ covariate distance (default)", covariates});
  }

  TextTable t({"variant", "pairs", "distinct untreated", "worst |sdm|", "VR pass frac"});
  t.row()
      .add("exact matching")
      .add(exact_match_count(data.treated, data.untreated))
      .add("-")
      .add("-")
      .add("-");
  {
    // Mahalanobis distance over the raw confounders (§5.2.3's other
    // rejected alternative) on a subsample for tractability.
    Matrix ts(data.treated.begin(),
              data.treated.begin() + std::min<std::size_t>(data.treated.size(), 800));
    const MatchResult m = mahalanobis_match(ts, data.untreated, 6);
    t.row()
        .add("Mahalanobis NN (800-treated sample)")
        .add(m.pairs.size())
        .add(m.untreated_matched_distinct)
        .add(m.worst_abs_std_diff(), 3)
        .add(m.variance_ratio_pass_fraction(), 2);
  }
  for (const auto& v : variants) {
    const MatchResult m = propensity_match(data.treated, data.untreated, v.opts);
    t.row()
        .add(v.name)
        .add(m.pairs.size())
        .add(m.untreated_matched_distinct)
        .add(m.worst_abs_std_diff(), 3)
        .add(m.variance_ratio_pass_fraction(), 2);
  }
  t.print(std::cout);
  return 0;
}
