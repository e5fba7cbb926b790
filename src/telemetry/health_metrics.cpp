#include "telemetry/health_metrics.hpp"

#include <set>

namespace mpa {

bool is_high_impact_symptom(const std::string& symptom) {
  return symptom == "device-unreachable" || symptom == "vip-unreachable" ||
         symptom == "link-down";
}

HealthSummary summarize_health(const TicketLog& log, const std::string& network_id, int month) {
  HealthSummary out;
  std::set<std::string> devices;
  double resolve_sum = 0;
  for (const Ticket* t : log.health_tickets(network_id)) {
    if (month_of(t->created) != month) continue;
    ++out.tickets;
    if (is_high_impact_symptom(t->symptom)) ++out.high_impact;
    if (t->origin == TicketOrigin::kUserReport) ++out.user_reported;
    if (t->resolved >= t->created) resolve_sum += static_cast<double>(t->resolved - t->created);
    for (const auto& d : t->devices) devices.insert(d);
  }
  out.distinct_devices = static_cast<int>(devices.size());
  if (out.tickets > 0) out.mean_minutes_to_resolve = resolve_sum / out.tickets;
  return out;
}

}  // namespace mpa
