// Trouble-ticket logs: the third data source (§2.1).
//
// Tickets are created when monitoring alarms fire, when users report
// problems, or for planned maintenance. The health metric is the
// monthly ticket count *excluding* maintenance tickets ("maintenance
// tickets are unlikely to be triggered by performance or availability
// problems").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "telemetry/time.hpp"

namespace mpa {

/// How a ticket came to exist.
enum class TicketOrigin : std::uint8_t { kMonitoringAlarm, kUserReport, kMaintenance };

std::string_view to_string(TicketOrigin o);

/// One incident-management ticket (structured fields only; the paper's
/// free-text syslog/IM blobs carry no signal our analyses use).
struct Ticket {
  std::string ticket_id;
  std::string network_id;
  Timestamp created = 0;
  Timestamp resolved = 0;  ///< May lag the actual fix (§2.2).
  std::vector<std::string> devices;  ///< Devices causing or affected.
  TicketOrigin origin = TicketOrigin::kMonitoringAlarm;
  std::string symptom;  ///< From a pre-defined symptom list.
};

/// The organization-wide ticket archive.
class TicketLog {
 public:
  void add(Ticket t);

  /// Pre-size the backing vector (performance hint for loaders).
  void reserve(std::size_t n) { tickets_.reserve(n); }

  const std::vector<Ticket>& all() const { return tickets_; }
  std::size_t size() const { return tickets_.size(); }

  /// Health metric: tickets for `network_id` created during month `m`,
  /// excluding maintenance tickets.
  int count_health_tickets(const std::string& network_id, int month) const;

  /// All non-maintenance tickets of a network (any month), in the
  /// order they were added.
  std::vector<const Ticket*> health_tickets(const std::string& network_id) const;

 private:
  /// Positions in tickets_ of one network's tickets, in insertion order
  /// (empty for a network with none).
  const std::vector<std::size_t>& positions_of(const std::string& network_id) const;

  std::vector<Ticket> tickets_;
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_network_;
};

}  // namespace mpa
