// The latent ground-truth health model.
//
// Tickets are Poisson with a rate built from exactly the practices the
// paper found impactful (Table 7): number of devices, change events,
// change types, VLANs, models, roles, devices-changed-per-event, and
// the fraction of events with an ACL change. The fraction of events
// with an interface change enters *non-monotonically* (Figure 4(c)),
// and the middlebox-change fraction has a negligible coefficient (the
// paper's surprising negative finding). Intra-device complexity and
// the heterogeneity entropies have NO direct term — they correlate
// with health only through their confounders, which is what lets the
// causal analysis distinguish dependence from causation (Table 7's two
// non-causal rows).
#pragma once

#include <map>

#include "metrics/practices.hpp"
#include "simulation/change_process.hpp"
#include "simulation/network_design.hpp"
#include "telemetry/tickets.hpp"
#include "util/rng.hpp"

namespace mpa {

class HealthModel {
 public:
  /// Expected ticket count for one network-month, before noise.
  /// `current_vlans` is the live VLAN count (it grows as the change
  /// process adds VLANs).
  static double ticket_rate(const NetworkDesign& design, const MonthlyOps& ops, int current_vlans);

  /// Draw the month's tickets (health + maintenance) into `log`.
  /// `ticket_counter` uniquifies ids across networks.
  static void generate_tickets(const NetworkDesign& design, const MonthlyOps& ops,
                               int current_vlans, int month, Rng& rng, TicketLog& log,
                               int& ticket_counter);

  /// The generator's causal truth: strictly positive entries are wired
  /// into ticket_rate; zero entries are not (validation tests assert
  /// the pipeline recovers this split).
  static std::map<Practice, double> ground_truth_effects();
};

}  // namespace mpa
