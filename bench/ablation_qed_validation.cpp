// Ablation: validate the quasi-experimental design against a TRUE
// randomized experiment (§5.2: "Ideally, we would eliminate confounding
// factors and establish causality using a true randomized experiment.
// ... Unfortunately, conducting such experiments takes time").
//
// The simulator lets us run the experiment the paper could not: half
// the networks are randomly assigned a 2x change-event rate
// (assignment independent of everything else), giving an unconfounded
// experimental estimate; the QED then runs on a separate observational
// dataset and must agree in direction and significance.
#include <iostream>
#include <string_view>

#include "common.hpp"
#include "metrics/inference.hpp"
#include "mpa/causal.hpp"
#include "stats/descriptive.hpp"
#include "stats/signtest.hpp"
#include "util/number.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace mpa;
  bench::banner("Ablation", "QED vs randomized experiment (change events)",
                "the randomized experiment shows treated networks file more "
                "tickets; the observational QED must reach the same conclusion");
  bench::BenchConfig cfg = bench::config_from_env();
  cfg.networks = std::min(cfg.networks, 400);

  // --- 1. The randomized experiment ---------------------------------------
  OspOptions exp_opts;
  exp_opts.num_networks = cfg.networks;
  exp_opts.num_months = cfg.months;
  exp_opts.seed = cfg.seed + 1000;
  exp_opts.treated_fraction = 0.5;
  exp_opts.treatment_rate_multiplier = 2.0;
  const OspDataset exp = generate_osp(exp_opts);
  const CaseTable exp_table = infer_case_table(exp.inventory, exp.snapshots, exp.tickets);

  std::vector<double> treated_tickets, control_tickets;
  for (const auto& c : exp_table.cases()) {
    // Map network id back to its assignment.
    const std::size_t idx =
        parse_whole<std::size_t>(std::string_view(c.network_id).substr(3)).value();  // "netN"
    (exp.experiment_treated[idx] ? treated_tickets : control_tickets).push_back(c.tickets);
  }
  const double lift = mean(treated_tickets) - mean(control_tickets);
  std::cout << "\nrandomized experiment (" << treated_tickets.size() << " treated vs "
            << control_tickets.size() << " control network-months):\n"
            << "  mean tickets treated " << format_double(mean(treated_tickets), 2)
            << " vs control " << format_double(mean(control_tickets), 2) << " (lift "
            << format_double(lift, 2) << ")\n";

  // --- 2. The observational QED -------------------------------------------
  OspOptions obs_opts;
  obs_opts.num_networks = cfg.networks;
  obs_opts.num_months = cfg.months;
  obs_opts.seed = cfg.seed + 2000;
  const OspDataset obs = generate_osp(obs_opts);
  const CaseTable obs_table = infer_case_table(obs.inventory, obs.snapshots, obs.tickets);
  const CausalResult qed = causal_analysis(obs_table, Practice::kNumChangeEvents);

  TextTable t({"comparison", "pairs", "+/0/-", "p-value", "direction"});
  for (const auto& cmp : qed.comparisons) {
    t.row().add(cmp.label()).add(cmp.pairs)
        .add(std::to_string(cmp.outcome.n_pos) + "/" + std::to_string(cmp.outcome.n_zero) + "/" +
             std::to_string(cmp.outcome.n_neg))
        .add(format_sci(cmp.outcome.p_value))
        .add(cmp.outcome.n_pos > cmp.outcome.n_neg ? "more tickets" : "fewer tickets");
  }
  std::cout << "\nobservational QED on an independent dataset:\n";
  t.print(std::cout);

  const ComparisonResult* low = qed.low_bins();
  const bool agree = lift > 0 && low != nullptr && low->outcome.n_pos > low->outcome.n_neg;
  std::cout << "\nverdict: experiment says change events " << (lift > 0 ? "hurt" : "help")
            << " health; QED low-bin direction " << (agree ? "AGREES" : "DISAGREES") << ".\n";
  return agree ? 0 : 1;
}
