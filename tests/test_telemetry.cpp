// Tests for the snapshot store, ticket log, and time helpers.
#include <gtest/gtest.h>

#include "telemetry/health_metrics.hpp"
#include "telemetry/snapshots.hpp"
#include "telemetry/tickets.hpp"
#include "util/error.hpp"

namespace mpa {
namespace {

TEST(Time, MonthBoundaries) {
  EXPECT_EQ(month_of(0), 0);
  EXPECT_EQ(month_of(kMinutesPerMonth - 1), 0);
  EXPECT_EQ(month_of(kMinutesPerMonth), 1);
  EXPECT_EQ(month_of(-5), 0);
  EXPECT_EQ(month_start(2), 2 * kMinutesPerMonth);
  EXPECT_EQ(month_of(month_start(7)), 7);
}

TEST(SnapshotStore, OrderedArchive) {
  SnapshotStore store;
  store.add(ConfigSnapshot{"d1", 0, "svc-provision", std::string("cfg-a")});
  store.add(ConfigSnapshot{"d1", 10, "alice", std::string("cfg-b")});
  store.add(ConfigSnapshot{"d2", 5, "bob", std::string("cfg-c")});
  EXPECT_EQ(store.total_snapshots(), 3u);
  EXPECT_EQ(store.total_bytes(), 15u);
  ASSERT_EQ(store.for_device("d1").size(), 2u);
  EXPECT_EQ(store.for_device("d1")[1].login, "alice");
  EXPECT_TRUE(store.for_device("ghost").empty());
  EXPECT_EQ(store.devices().size(), 2u);
}

TEST(SnapshotStore, RejectsOutOfOrder) {
  SnapshotStore store;
  store.add(ConfigSnapshot{"d1", 10, "a", std::string("x")});
  EXPECT_THROW(store.add(ConfigSnapshot{"d1", 5, "b", std::string("y")}), PreconditionError);
  // Equal timestamps are allowed (RANCID can archive twice in a minute).
  store.add(ConfigSnapshot{"d1", 10, "b", std::string("y")});
  EXPECT_EQ(store.for_device("d1").size(), 2u);
}

TicketLog make_log() {
  TicketLog log;
  log.add(Ticket{"t1", "net1", 10, 20, {"d1"}, TicketOrigin::kMonitoringAlarm, "loss"});
  log.add(Ticket{"t2", "net1", kMinutesPerMonth + 5, 0, {}, TicketOrigin::kUserReport, "slow"});
  log.add(Ticket{"t3", "net1", 30, 40, {}, TicketOrigin::kMaintenance, "planned"});
  log.add(Ticket{"t4", "net2", 15, 25, {}, TicketOrigin::kMonitoringAlarm, "down"});
  return log;
}

TEST(TicketLog, HealthCountExcludesMaintenance) {
  const TicketLog log = make_log();
  EXPECT_EQ(log.count_health_tickets("net1", 0), 1);  // t1 only; t3 is maintenance
  EXPECT_EQ(log.count_health_tickets("net1", 1), 1);  // t2
  EXPECT_EQ(log.count_health_tickets("net2", 0), 1);
  EXPECT_EQ(log.count_health_tickets("net2", 1), 0);
  EXPECT_EQ(log.count_health_tickets("ghost", 0), 0);
}

TEST(TicketLog, HealthTicketsFilter) {
  const TicketLog log = make_log();
  EXPECT_EQ(log.health_tickets("net1").size(), 2u);
  EXPECT_EQ(log.health_tickets("net2").size(), 1u);
}

// Tickets of several networks arrive interleaved: each network's
// lookups see exactly its own tickets, in insertion order.
TEST(TicketLog, InterleavedNetworksKeepTheirOwnTicketsInOrder) {
  TicketLog log;
  const std::vector<std::string> nets = {"net2", "net10", "net1", "net2", "net1", "net10", "net1"};
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const auto origin = i % 3 == 2 ? TicketOrigin::kMaintenance : TicketOrigin::kMonitoringAlarm;
    const Timestamp created = static_cast<Timestamp>(i % 2) * kMinutesPerMonth + 10;
    log.add(Ticket{"t" + std::to_string(i), nets[i], created, created + 5, {"d" + nets[i]}, origin,
                   "link-down"});
  }
  const auto ids = [&](const std::string& net) {
    std::vector<std::string> out;
    for (const Ticket* t : log.health_tickets(net)) out.push_back(t->ticket_id);
    return out;
  };
  // t2 and t5 are maintenance tickets.
  EXPECT_EQ(ids("net1"), (std::vector<std::string>{"t4", "t6"}));
  EXPECT_EQ(ids("net2"), (std::vector<std::string>{"t0", "t3"}));
  EXPECT_EQ(ids("net10"), (std::vector<std::string>{"t1"}));
  EXPECT_TRUE(ids("net").empty());
  for (const char* net : {"net1", "net2", "net10", "net"}) {
    for (int m = 0; m < 2; ++m) {
      int want = 0;
      for (const auto& t : log.all())
        if (t.network_id == net && t.origin != TicketOrigin::kMaintenance &&
            month_of(t.created) == m)
          ++want;
      EXPECT_EQ(log.count_health_tickets(net, m), want) << net << " month " << m;
      const HealthSummary h = summarize_health(log, net, m);
      EXPECT_EQ(h.tickets, want) << net << " month " << m;
      EXPECT_EQ(h.distinct_devices, want > 0 ? 1 : 0) << net << " month " << m;
    }
  }
}

TEST(TicketOriginNames, Stable) {
  EXPECT_EQ(to_string(TicketOrigin::kMonitoringAlarm), "alarm");
  EXPECT_EQ(to_string(TicketOrigin::kUserReport), "user");
  EXPECT_EQ(to_string(TicketOrigin::kMaintenance), "maintenance");
}

}  // namespace
}  // namespace mpa
