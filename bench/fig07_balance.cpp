// Figure 7: visual equivalence of confounding-practice distributions
// between matched treated and matched untreated cases, for two
// confounders (no. of devices, no. of VLANs) across all four comparison
// points of the change-events treatment. We print distribution
// quantiles instead of curves.
#include <iostream>

#include "common.hpp"
#include "mpa/causal.hpp"
#include "stats/descriptive.hpp"
#include "util/table.hpp"

namespace {

void print_confounder(const mpa::CaseTable& table, mpa::Practice confounder) {
  using namespace mpa;
  std::cout << "\n-- matched distributions of '" << practice_name(confounder)
            << "' (log1p scale) --\n";
  TextTable t({"comp. point", "side", "p10", "p25", "median", "p75", "p90"});
  for (int b = 0; b < 4; ++b) {
    const ComparisonData data = comparison_data(table, Practice::kNumChangeEvents, b);
    if (data.treated.empty() || data.untreated.empty()) continue;
    std::size_t col = 0;
    for (std::size_t j = 0; j < data.confounders.size(); ++j)
      if (data.confounders[j] == confounder) col = j;
    const MatchResult m = propensity_match(data.treated, data.untreated);
    if (m.pairs.empty()) continue;
    std::vector<double> vt, vu;
    for (const auto& pr : m.pairs) {
      vt.push_back(data.treated[pr.treated_index][col]);
      vu.push_back(data.untreated[pr.untreated_index][col]);
    }
    for (const auto& [label, v] : {std::pair{"treated", &vt}, {"untreated", &vu}}) {
      t.row().add(std::to_string(b + 1) + ":" + std::to_string(b + 2)).add(label);
      for (double p : {10.0, 25.0, 50.0, 75.0, 90.0}) t.add(percentile(*v, p), 2);
    }
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  using namespace mpa;
  bench::banner("Figure 7", "Confounder balance after matching",
                "per comparison point, the treated and untreated quantile rows "
                "should be nearly identical — matching equalized the confounders");
  const CaseTable table = bench::load_case_table();
  print_confounder(table, Practice::kNumDevices);
  print_confounder(table, Practice::kNumVlans);
  return 0;
}
