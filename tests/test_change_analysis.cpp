// Tests for change extraction, event grouping, and operational metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "config/dialect.hpp"
#include "metrics/change_analysis.hpp"
#include "mutation.hpp"
#include "simulation/osp_generator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

// Render helper: single interface stanza with a settable description.
std::string ios_config(const std::string& desc) {
  DeviceConfig c("d");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("description", desc);
  c.add(i);
  return render(c, Dialect::kIosLike);
}

Inventory one_net_inventory() {
  Inventory inv;
  inv.add_network(NetworkRecord{"net1", {}, {}});
  inv.add_device(DeviceRecord{"d1", "net1", Vendor::kCirrus, "m", Role::kSwitch, "f"});
  inv.add_device(DeviceRecord{"d2", "net1", Vendor::kCirrus, "m", Role::kLoadBalancer, "f"});
  return inv;
}

TEST(AutomationClassifier, DefaultPrefix) {
  EXPECT_TRUE(default_automation_classifier("svc-deploy"));
  EXPECT_FALSE(default_automation_classifier("alice"));
  EXPECT_FALSE(default_automation_classifier(""));
}

TEST(ExtractChanges, DiffsSuccessiveSnapshots) {
  const Inventory inv = one_net_inventory();
  SnapshotStore store;
  store.add(ConfigSnapshot{"d1", 0, "svc-provision", ios_config("a")});
  store.add(ConfigSnapshot{"d1", 10, "alice", ios_config("b")});
  store.add(ConfigSnapshot{"d1", 20, "svc-deploy", ios_config("b")});  // no diff
  store.add(ConfigSnapshot{"d1", 30, "svc-deploy", ios_config("c")});
  const auto changes = extract_changes(inv, store);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].time, 10);
  EXPECT_EQ(changes[0].login, "alice");
  EXPECT_FALSE(changes[0].automated);
  EXPECT_EQ(changes[1].time, 30);
  EXPECT_TRUE(changes[1].automated);
  EXPECT_EQ(changes[0].network_id, "net1");
  EXPECT_TRUE(changes[0].touches_type("interface"));
  EXPECT_FALSE(changes[0].touches_type("acl"));
}

TEST(ExtractChanges, SkipsUnknownDevices) {
  const Inventory inv = one_net_inventory();
  SnapshotStore store;
  store.add(ConfigSnapshot{"ghost", 0, "a", ios_config("a")});
  store.add(ConfigSnapshot{"ghost", 10, "a", ios_config("b")});
  EXPECT_TRUE(extract_changes(inv, store).empty());
}

/// The change stream as parse() and diff() over configs give it: each
/// device's snapshots parsed in full and each consecutive pair of
/// configs diffed, ordered by (network, time, device).
std::vector<ChangeRecord> parsed_diff_changes(const Inventory& inventory,
                                              const SnapshotStore& snapshots) {
  std::vector<ChangeRecord> out;
  for (const auto& device_id : snapshots.devices()) {
    const DeviceRecord* rec = inventory.find_device(device_id);
    if (rec == nullptr) continue;
    const auto& snaps = snapshots.for_device(device_id);
    if (snaps.size() < 2) continue;
    const Dialect dialect = dialect_of(rec->vendor);
    DeviceConfig prev = parse(snaps[0].text, dialect, device_id);
    for (std::size_t i = 1; i < snaps.size(); ++i) {
      DeviceConfig cur = parse(snaps[i].text, dialect, device_id);
      auto changes = diff(prev, cur);
      if (!changes.empty()) {
        ChangeRecord& cr = out.emplace_back();
        cr.device_id = device_id;
        cr.network_id = rec->network_id;
        cr.time = snaps[i].time;
        cr.login = snaps[i].login;
        cr.automated = default_automation_classifier(snaps[i].login);
        cr.stanza_changes = std::move(changes);
      }
      prev = std::move(cur);
    }
  }
  std::sort(out.begin(), out.end(), [](const ChangeRecord& a, const ChangeRecord& b) {
    if (a.network_id != b.network_id) return a.network_id < b.network_id;
    if (a.time != b.time) return a.time < b.time;
    return a.device_id < b.device_id;
  });
  return out;
}

/// extract_changes() equals parsed_diff_changes() record by record and
/// field by field, or both throw DataError with the same message.
/// Returns the records compared, or nothing when both threw.
std::optional<std::size_t> expect_stream_equals_parsed_diff(const Inventory& inventory,
                                             const SnapshotStore& snapshots) {
  std::vector<ChangeRecord> want;
  std::string error;
  try {
    want = parsed_diff_changes(inventory, snapshots);
  } catch (const DataError& e) {
    error = e.what();
  }
  std::vector<ChangeRecord> got;
  try {
    got = extract_changes(inventory, snapshots);
  } catch (const DataError& e) {
    EXPECT_EQ(e.what(), error);
    return std::nullopt;
  }
  EXPECT_EQ(error, "");
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const ChangeRecord& g = got[i];
    const ChangeRecord& w = want[i];
    EXPECT_EQ(g.device_id, w.device_id);
    EXPECT_EQ(g.network_id, w.network_id);
    EXPECT_EQ(g.time, w.time);
    EXPECT_EQ(g.login, w.login);
    EXPECT_EQ(g.automated, w.automated);
    EXPECT_EQ(g.stanza_changes.size(), w.stanza_changes.size());
    for (std::size_t k = 0; k < std::min(g.stanza_changes.size(), w.stanza_changes.size()); ++k) {
      SCOPED_TRACE("stanza change " + std::to_string(k));
      const StanzaChange& gc = g.stanza_changes[k];
      const StanzaChange& wc = w.stanza_changes[k];
      EXPECT_EQ(gc.native_type, wc.native_type);
      EXPECT_EQ(gc.agnostic_type, wc.agnostic_type);
      EXPECT_EQ(gc.name, wc.name);
      EXPECT_EQ(gc.kind, wc.kind);
      EXPECT_EQ(gc.options_touched, wc.options_touched);
    }
  }
  return got.size();
}

// The change stream read through an interner per device equals the one
// parse() and diff() over configs give: on the pinned 8 x 4, seed-3
// dataset, and on mutant copies of its network timelines, where a
// snapshot parse() rejects must fail both with the same DataError.
TEST(ExtractChanges, InternedStreamEqualsParsedDiff) {
  constexpr int kMutantNetworks = 24;
  OspOptions gen;
  gen.num_networks = 8;
  gen.num_months = 4;
  gen.seed = 3;
  const OspDataset data = generate_osp(gen);
  EXPECT_GT(expect_stream_equals_parsed_diff(data.inventory, data.snapshots).value_or(0), 100u);

  const auto& networks = data.inventory.networks();
  Rng rng(fuzz_seed(25));
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t compared = 0, rejected = 0;
  for (int n = 0; n < kMutantNetworks; ++n) {
    const NetworkRecord& net = networks[pick(networks.size())];
    SCOPED_TRACE("mutant network " + std::to_string(n) + " (" + net.network_id + ")");
    SnapshotStore store;
    for (const auto* d : data.inventory.devices_in(net.network_id)) {
      std::vector<ConfigSnapshot> snaps = data.snapshots.for_device(d->device_id);
      if (!snaps.empty() && rng.uniform_int(0, 2) == 0) {
        ConfigSnapshot& at = snaps[pick(snaps.size())];
        at.text = mutate(std::string(std::string_view(at.text)),
                         std::string(std::string_view(snaps[pick(snaps.size())].text)), rng);
      }
      for (auto& snap : snaps) store.add(std::move(snap));
    }
    if (const auto records = expect_stream_equals_parsed_diff(data.inventory, store))
      compared += *records;
    else
      ++rejected;
  }
  EXPECT_GT(compared, 100u);
  EXPECT_GT(rejected, 0u);
}

std::vector<ChangeRecord> records_at(const std::vector<Timestamp>& times) {
  std::vector<ChangeRecord> out;
  int k = 0;
  for (Timestamp t : times) {
    ChangeRecord c;
    c.device_id = "d" + std::to_string(k++ % 3);
    c.network_id = "net1";
    c.time = t;
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<const ChangeRecord*> ptrs(const std::vector<ChangeRecord>& v) {
  std::vector<const ChangeRecord*> out;
  for (const auto& c : v) out.push_back(&c);
  return out;
}

TEST(GroupEvents, ChainsWithinDelta) {
  const auto recs = records_at({0, 3, 6, 20, 22, 100});
  const auto events = group_events(ptrs(recs), 5);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].changes.size(), 3u);  // 0,3,6 chained
  EXPECT_EQ(events[1].changes.size(), 2u);  // 20,22
  EXPECT_EQ(events[2].changes.size(), 1u);  // 100
  EXPECT_EQ(events[0].start, 0);
  EXPECT_EQ(events[0].end, 6);
}

TEST(GroupEvents, DeltaZeroDisablesGrouping) {
  const auto recs = records_at({0, 1, 2});
  EXPECT_EQ(group_events(ptrs(recs), 0).size(), 3u);
  EXPECT_EQ(group_events(ptrs(recs), -1).size(), 3u);
}

TEST(GroupEvents, LargerDeltaMergesMore) {
  const auto recs = records_at({0, 4, 9, 15, 30});
  EXPECT_GE(group_events(ptrs(recs), 1).size(), group_events(ptrs(recs), 10).size());
  EXPECT_EQ(group_events(ptrs(recs), 30).size(), 1u);
}

TEST(GroupEvents, EmptyInput) {
  EXPECT_TRUE(group_events({}, 5).empty());
}

TEST(GroupEvents, DeviceSetAndTypes) {
  std::vector<ChangeRecord> recs = records_at({0, 2});
  recs[0].stanza_changes.push_back(
      StanzaChange{"interface", "interface", "Eth0", ChangeKind::kUpdated, 1});
  recs[1].stanza_changes.push_back(
      StanzaChange{"pool", "pool", "p0", ChangeKind::kUpdated, 1});
  const auto events = group_events(ptrs(recs), 5);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].devices().size(), 2u);
  EXPECT_TRUE(events[0].touches_type("interface"));
  EXPECT_TRUE(events[0].touches_type("pool"));
  EXPECT_FALSE(events[0].touches_type("acl"));
  const std::map<std::string, Role> roles{{"d0", Role::kSwitch}, {"d1", Role::kLoadBalancer}};
  EXPECT_TRUE(events[0].touches_middlebox(roles));
  const std::map<std::string, Role> no_mbox{{"d0", Role::kSwitch}, {"d1", Role::kSwitch}};
  EXPECT_FALSE(events[0].touches_middlebox(no_mbox));
}

TEST(OperationalMetrics, FullComputation) {
  std::vector<ChangeRecord> recs = records_at({0, 2, 100});
  recs[0].automated = true;
  recs[0].stanza_changes.push_back(
      StanzaChange{"interface", "interface", "Eth0", ChangeKind::kUpdated, 1});
  recs[1].stanza_changes.push_back(
      StanzaChange{"ip access-list", "acl", "web", ChangeKind::kUpdated, 1});
  recs[2].stanza_changes.push_back(
      StanzaChange{"vlan", "vlan", "100", ChangeKind::kAdded, 1});
  const auto p = ptrs(recs);
  const auto events = group_events(p, 5);
  ASSERT_EQ(events.size(), 2u);
  const std::map<std::string, Role> roles{
      {"d0", Role::kSwitch}, {"d1", Role::kLoadBalancer}, {"d2", Role::kSwitch}};

  Case out;
  compute_operational_metrics(p, events, 10, roles, out);
  EXPECT_DOUBLE_EQ(out[Practice::kNumConfigChanges], 3);
  EXPECT_DOUBLE_EQ(out[Practice::kNumDevicesChanged], 3);
  EXPECT_DOUBLE_EQ(out[Practice::kFracDevicesChanged], 0.3);
  EXPECT_DOUBLE_EQ(out[Practice::kFracChangesAutomated], 1.0 / 3);
  EXPECT_DOUBLE_EQ(out[Practice::kNumChangeTypes], 3);
  EXPECT_DOUBLE_EQ(out[Practice::kNumChangeEvents], 2);
  EXPECT_DOUBLE_EQ(out[Practice::kAvgDevicesPerEvent], (2 + 1) / 2.0);
  EXPECT_DOUBLE_EQ(out[Practice::kFracEventsInterface], 0.5);
  EXPECT_DOUBLE_EQ(out[Practice::kFracEventsAcl], 0.5);
  EXPECT_DOUBLE_EQ(out[Practice::kFracEventsVlan], 0.5);
  EXPECT_DOUBLE_EQ(out[Practice::kFracEventsRouter], 0);
  EXPECT_DOUBLE_EQ(out[Practice::kFracEventsMbox], 0.5);  // d1 in event 0
}

TEST(OperationalMetrics, NoChangesYieldsZeros) {
  Case out;
  compute_operational_metrics({}, {}, 5, {}, out);
  EXPECT_DOUBLE_EQ(out[Practice::kNumConfigChanges], 0);
  EXPECT_DOUBLE_EQ(out[Practice::kFracChangesAutomated], 0);
  EXPECT_DOUBLE_EQ(out[Practice::kAvgDevicesPerEvent], 0);
  EXPECT_DOUBLE_EQ(out[Practice::kFracEventsInterface], 0);
}

}  // namespace
}  // namespace mpa
