#include "telemetry/tickets.hpp"

namespace mpa {

std::string_view to_string(TicketOrigin o) {
  switch (o) {
    case TicketOrigin::kMonitoringAlarm: return "alarm";
    case TicketOrigin::kUserReport: return "user";
    case TicketOrigin::kMaintenance: return "maintenance";
  }
  return "unknown";
}

void TicketLog::add(Ticket t) {
  by_network_[t.network_id].push_back(tickets_.size());
  tickets_.push_back(std::move(t));
}

const std::vector<std::size_t>& TicketLog::positions_of(const std::string& network_id) const {
  static const std::vector<std::size_t> kNone;
  const auto it = by_network_.find(network_id);
  return it == by_network_.end() ? kNone : it->second;
}

int TicketLog::count_health_tickets(const std::string& network_id, int month) const {
  int n = 0;
  for (const std::size_t i : positions_of(network_id)) {
    const Ticket& t = tickets_[i];
    if (t.origin != TicketOrigin::kMaintenance && month_of(t.created) == month) ++n;
  }
  return n;
}

std::vector<const Ticket*> TicketLog::health_tickets(const std::string& network_id) const {
  std::vector<const Ticket*> out;
  for (const std::size_t i : positions_of(network_id))
    if (tickets_[i].origin != TicketOrigin::kMaintenance) out.push_back(&tickets_[i]);
  return out;
}

}  // namespace mpa
