// Table 5: matching based on propensity scores, for the number-of-
// change-events treatment — per comparison point: case counts, matched
// pairs, distinct untreated matched, and propensity-score balance.
// Also reports the exact-matching comparison from §5.2.3 ("exact
// matching produces at most 17 pairs").
#include <iostream>

#include "common.hpp"
#include "mpa/causal.hpp"
#include "util/table.hpp"

int main() {
  using namespace mpa;
  bench::banner("Table 5", "Propensity matching for 'No. of change events'",
                "most treated cases matched (far more than exact matching "
                "achieves); distinct untreated < pairs (replacement helps); "
                "|std diff of means| of the score ~0 and variance ratio ~1");
  const CaseTable table = bench::load_case_table();

  TextTable t({"comp. point", "untreated", "treated", "pairs", "untreated matched",
               "score |sdm|", "score var ratio", "exact-match pairs"});
  for (int b = 0; b < 4; ++b) {
    const ComparisonData data = comparison_data(table, Practice::kNumChangeEvents, b);
    if (data.treated.empty() || data.untreated.empty()) continue;
    const MatchResult m = propensity_match(data.treated, data.untreated);
    t.row()
        .add(std::to_string(b + 1) + ":" + std::to_string(b + 2))
        .add(data.untreated.size())
        .add(data.treated.size())
        .add(m.pairs.size())
        .add(m.untreated_matched_distinct)
        .add(std::abs(m.propensity_balance.std_diff_of_means), 4)
        .add(m.propensity_balance.variance_ratio, 4)
        .add(exact_match_count(data.treated, data.untreated));
  }
  t.print(std::cout);
  return 0;
}
