// Tests for end-to-end case-table inference from raw data sources.
#include <gtest/gtest.h>

#include "config/dialect.hpp"
#include "metrics/inference.hpp"
#include "obs/metrics.hpp"
#include "simulation/osp_generator.hpp"

namespace mpa {
namespace {

std::string ios_config(int num_vlans, const std::string& desc) {
  DeviceConfig c("d");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("description", desc);
  c.add(i);
  for (int v = 0; v < num_vlans; ++v) {
    Stanza s;
    s.type = "vlan";
    s.name = std::to_string(100 + v);
    c.add(s);
  }
  return render(c, Dialect::kIosLike);
}

struct Fixture {
  Inventory inv;
  SnapshotStore store;
  TicketLog tickets;
};

Fixture make_fixture() {
  Fixture f;
  f.inv.add_network(NetworkRecord{"net1", {Workload{"web", WorkloadKind::kWebService}}, {}});
  f.inv.add_device(DeviceRecord{"d1", "net1", Vendor::kCirrus, "m1", Role::kSwitch, "f1"});
  f.inv.add_device(DeviceRecord{"d2", "net1", Vendor::kCirrus, "m1", Role::kSwitch, "f1"});

  // d1: initial snapshot at t=0 with 2 VLANs; change in month 1 adds one.
  f.store.add(ConfigSnapshot{"d1", 0, "svc-provision", ios_config(2, "a")});
  f.store.add(
      ConfigSnapshot{"d1", month_start(1) + 100, "alice", ios_config(3, "a")});
  // d2: initial only.
  f.store.add(ConfigSnapshot{"d2", 0, "svc-provision", ios_config(0, "x")});

  f.tickets.add(Ticket{"t1", "net1", 50, 60, {"d1"}, TicketOrigin::kMonitoringAlarm, "loss"});
  f.tickets.add(Ticket{"t2", "net1", month_start(1) + 10, 0, {}, TicketOrigin::kUserReport, "s"});
  f.tickets.add(Ticket{"t3", "net1", month_start(1) + 20, 0, {}, TicketOrigin::kMaintenance, "m"});
  return f;
}

TEST(Inference, OneRowPerNetworkMonth) {
  const Fixture f = make_fixture();
  InferenceOptions opts;
  opts.num_months = 3;
  const CaseTable table = infer_case_table(f.inv, f.store, f.tickets, opts);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0].network_id, "net1");
  EXPECT_EQ(table[0].month, 0);
  EXPECT_EQ(table[2].month, 2);
}

TEST(Inference, DesignMetricsTrackMonthEndState) {
  const Fixture f = make_fixture();
  InferenceOptions opts;
  opts.num_months = 3;
  const CaseTable table = infer_case_table(f.inv, f.store, f.tickets, opts);
  // Month 0: d1 has 2 VLANs. Month 1 onward: 3 VLANs (change applied).
  EXPECT_DOUBLE_EQ(table[0][Practice::kNumVlans], 2);
  EXPECT_DOUBLE_EQ(table[1][Practice::kNumVlans], 3);
  EXPECT_DOUBLE_EQ(table[2][Practice::kNumVlans], 3);
  EXPECT_DOUBLE_EQ(table[0][Practice::kNumDevices], 2);
  EXPECT_DOUBLE_EQ(table[0][Practice::kNumWorkloads], 1);
}

TEST(Inference, OperationalMetricsPerMonth) {
  const Fixture f = make_fixture();
  InferenceOptions opts;
  opts.num_months = 3;
  const CaseTable table = infer_case_table(f.inv, f.store, f.tickets, opts);
  EXPECT_DOUBLE_EQ(table[0][Practice::kNumConfigChanges], 0);
  EXPECT_DOUBLE_EQ(table[1][Practice::kNumConfigChanges], 1);
  EXPECT_DOUBLE_EQ(table[1][Practice::kNumChangeEvents], 1);
  EXPECT_DOUBLE_EQ(table[1][Practice::kFracChangesAutomated], 0);  // alice is human
  EXPECT_DOUBLE_EQ(table[2][Practice::kNumConfigChanges], 0);
}

TEST(Inference, HealthExcludesMaintenance) {
  const Fixture f = make_fixture();
  InferenceOptions opts;
  opts.num_months = 3;
  const CaseTable table = infer_case_table(f.inv, f.store, f.tickets, opts);
  EXPECT_DOUBLE_EQ(table[0].tickets, 1);  // t1
  EXPECT_DOUBLE_EQ(table[1].tickets, 1);  // t2; t3 is maintenance
  EXPECT_DOUBLE_EQ(table[2].tickets, 0);
}

TEST(Inference, NetworkWithNoSnapshotsStillProducesRows) {
  Fixture f = make_fixture();
  f.inv.add_network(NetworkRecord{"net2", {}, {}});
  f.inv.add_device(DeviceRecord{"d9", "net2", Vendor::kCirrus, "m", Role::kSwitch, "f"});
  InferenceOptions opts;
  opts.num_months = 2;
  const CaseTable table = infer_case_table(f.inv, f.store, f.tickets, opts);
  EXPECT_EQ(table.size(), 4u);  // 2 months x 2 networks
  const CaseTable net2 = [&] {
    CaseTable out;
    for (const auto& c : table.cases())
      if (c.network_id == "net2") out.add(c);
    return out;
  }();
  ASSERT_EQ(net2.size(), 2u);
  EXPECT_DOUBLE_EQ(net2[0][Practice::kNumVlans], 0);
  EXPECT_DOUBLE_EQ(net2[0][Practice::kNumDevices], 1);  // inventory still counts
}

TEST(Inference, CustomAutomationClassifier) {
  const Fixture f = make_fixture();
  InferenceOptions opts;
  opts.num_months = 2;
  opts.automation = [](const std::string& login) { return login == "alice"; };
  const CaseTable table = infer_case_table(f.inv, f.store, f.tickets, opts);
  EXPECT_DOUBLE_EQ(table[1][Practice::kFracChangesAutomated], 1.0);
}

TEST(Inference, DeterministicOverIdenticalInputs) {
  const Fixture f = make_fixture();
  InferenceOptions opts;
  opts.num_months = 3;
  const CaseTable a = infer_case_table(f.inv, f.store, f.tickets, opts);
  const CaseTable b = infer_case_table(f.inv, f.store, f.tickets, opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].network_id, b[i].network_id);
    EXPECT_EQ(a[i].month, b[i].month);
    EXPECT_EQ(a[i].practice, b[i].practice);
    EXPECT_EQ(a[i].tickets, b[i].tickets);
  }
}

TEST(Inference, EventWindowAffectsEventCountOnly) {
  // A wider grouping window can only merge events: counts must be
  // non-increasing in delta, while change counts stay identical.
  Fixture f = make_fixture();
  // Add a second change on d2 close to d1's change to create a
  // groupable pair.
  f.store.add(ConfigSnapshot{"d2", month_start(1) + 103, "bob", ios_config(1, "y")});
  InferenceOptions narrow;
  narrow.num_months = 2;
  narrow.event_window = 1;
  InferenceOptions wide = narrow;
  wide.event_window = 10;
  const CaseTable tn = infer_case_table(f.inv, f.store, f.tickets, narrow);
  const CaseTable tw = infer_case_table(f.inv, f.store, f.tickets, wide);
  EXPECT_GE(tn[1][Practice::kNumChangeEvents], tw[1][Practice::kNumChangeEvents]);
  EXPECT_EQ(tn[1][Practice::kNumConfigChanges], tw[1][Practice::kNumConfigChanges]);
  EXPECT_DOUBLE_EQ(tw[1][Practice::kNumChangeEvents], 1);
  EXPECT_DOUBLE_EQ(tn[1][Practice::kNumChangeEvents], 2);
}

// With obs on, inference counts the stanza blocks it parsed and reused:
// the total is the stanza count of every snapshot parsed, and the
// timelines reuse blocks. With obs off, nothing is recorded.
TEST(Inference, CountsStanzaBlocksParsedAndReused) {
  OspOptions gen;
  gen.num_networks = 8;
  gen.num_months = 4;
  gen.seed = 3;
  const OspDataset data = generate_osp(gen);
  std::uint64_t stanzas = 0;
  for (const auto& dev : data.inventory.devices())
    for (const auto& snap : data.snapshots.for_device(dev.device_id))
      stanzas += parse(snap.text, dialect_of(dev.vendor), dev.device_id).stanzas().size();
  InferenceOptions opts;
  opts.num_months = gen.num_months;
  const auto counters = [&] {
    auto all = obs::Registry::global().counters_snapshot();
    return std::pair{all["mpa_infer_stanza_blocks_total"],
                     all["mpa_infer_stanza_blocks_reused_total"]};
  };

  obs::set_enabled(false);
  obs::Registry::global().reset_values();
  const CaseTable quiet = infer_case_table(data.inventory, data.snapshots, data.tickets, opts);
  EXPECT_EQ(counters(), (std::pair<std::uint64_t, std::uint64_t>{0, 0}));

  obs::set_enabled(true);
  const CaseTable counted = infer_case_table(data.inventory, data.snapshots, data.tickets, opts);
  const auto [blocks, reused] = counters();
  obs::set_enabled(false);
  obs::Registry::global().reset_values();
  EXPECT_EQ(blocks, stanzas);
  EXPECT_GT(reused, 0u);
  EXPECT_LT(reused, blocks);
  EXPECT_EQ(counted.to_csv(), quiet.to_csv());
}

// With obs on, inference adds each layer's wall time to its counter;
// with obs off, every layer counter stays 0.
TEST(Inference, TimesItsLayersOnlyWithObsOn) {
  OspOptions gen;
  gen.num_networks = 4;
  gen.num_months = 3;
  gen.seed = 3;
  const OspDataset data = generate_osp(gen);
  InferenceOptions opts;
  opts.num_months = gen.num_months;
  const auto layer_ns = [] {
    auto all = obs::Registry::global().counters_snapshot();
    std::vector<std::uint64_t> ns;
    for (const char* name : kInferLayerCounters) ns.push_back(all[name]);
    return ns;
  };

  obs::set_enabled(false);
  obs::Registry::global().reset_values();
  infer_case_table(data.inventory, data.snapshots, data.tickets, opts);
  EXPECT_EQ(layer_ns(), std::vector<std::uint64_t>(kInferLayerCounters.size(), 0));

  obs::set_enabled(true);
  infer_case_table(data.inventory, data.snapshots, data.tickets, opts);
  const auto timed = layer_ns();
  obs::set_enabled(false);
  obs::Registry::global().reset_values();
  for (std::size_t l = 0; l < timed.size(); ++l) EXPECT_GT(timed[l], 0u) << kInferLayerCounters[l];
}

}  // namespace
}  // namespace mpa
