// Finer-grained health measures from ticket logs — the paper's stated
// future work (§2.2): "we plan to explore how to accurately obtain more
// fine-grained health measures using tools like NetSieve."
//
// The paper cautions that some of these are noisy in practice ("tickets
// are sometimes not marked as resolved until well after the problem has
// been fixed"), so each measure documents its failure mode. They can be
// fed to causal_analysis() as alternative outcomes.
#pragma once

#include <string>

#include "telemetry/tickets.hpp"

namespace mpa {

/// Per-(network, month) health summary beyond the raw ticket count.
struct HealthSummary {
  int tickets = 0;            ///< Non-maintenance tickets (the paper's metric).
  int high_impact = 0;        ///< Tickets with outage-class symptoms.
  double mean_minutes_to_resolve = 0;  ///< Noisy: resolution stamps lag fixes.
  int distinct_devices = 0;   ///< Devices implicated in this month's tickets.
  int user_reported = 0;      ///< Tickets users noticed (vs monitors).
};

/// Symptoms treated as outage-class (service down rather than degraded).
bool is_high_impact_symptom(const std::string& symptom);

/// Summarize one network-month.
HealthSummary summarize_health(const TicketLog& log, const std::string& network_id, int month);

}  // namespace mpa
