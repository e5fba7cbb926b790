// Tests for the synthetic-OSP generator: designs, configs, change
// process, health model, and dataset-level invariants.
#include <gtest/gtest.h>

#include <set>

#include "config/dialect.hpp"
#include "config/types.hpp"
#include "metrics/design_metrics.hpp"
#include "simulation/change_process.hpp"
#include "simulation/config_gen.hpp"
#include "simulation/osp_generator.hpp"

namespace mpa {
namespace {

TEST(NetworkDesign, BasicInvariants) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const NetworkDesign d = sample_network_design(i, rng);
    EXPECT_EQ(d.net.network_id, "net" + std::to_string(i));
    EXPECT_GE(d.devices.size(), 4u);
    EXPECT_LE(d.devices.size(), 120u);
    EXPECT_EQ(d.net.device_ids.size(), d.devices.size());
    EXPECT_GE(d.num_vlans, 1);
    EXPECT_GT(d.change_events_per_month, 0);
    EXPECT_GE(d.event_size_mean, 1.0);
    EXPECT_GT(d.automation_propensity, 0);
    EXPECT_FALSE(d.change_type_mix.empty());
    // Routing design implies routers exist.
    if (d.use_bgp || d.use_ospf) {
      EXPECT_FALSE(d.devices_with_role(Role::kRouter).empty());
    }
    // Device ids are unique.
    std::set<std::string> ids;
    for (const auto& dev : d.devices) EXPECT_TRUE(ids.insert(dev.device_id).second);
  }
}

TEST(NetworkDesign, PopulationShapes) {
  // Appendix A calibration, loose bounds: most networks host one
  // workload, most have middleboxes, BGP is common, OSPF less so.
  Rng rng(2);
  int one_workload = 0, has_mbox = 0, bgp = 0, ospf = 0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const NetworkDesign d = sample_network_design(i, rng);
    if (d.net.workloads.size() == 1) ++one_workload;
    if (!d.middlebox_devices().empty()) ++has_mbox;
    if (d.use_bgp) ++bgp;
    if (d.use_ospf) ++ospf;
  }
  EXPECT_NEAR(one_workload / static_cast<double>(n), 0.81, 0.1);
  EXPECT_NEAR(has_mbox / static_cast<double>(n), 0.71, 0.12);
  EXPECT_NEAR(bgp / static_cast<double>(n), 0.86, 0.08);
  EXPECT_NEAR(ospf / static_cast<double>(n), 0.31, 0.1);
}

TEST(ConfigGen, EveryDeviceHasAConfigInItsDialect) {
  Rng rng(3);
  NetworkDesign design = sample_network_design(0, rng);
  const GeneratedNetwork gen = generate_configs(std::move(design), rng);
  EXPECT_EQ(gen.configs.size(), gen.design.devices.size());
  for (const auto& dev : gen.design.devices) {
    const DeviceConfig& cfg = gen.configs.at(dev.device_id);
    EXPECT_FALSE(cfg.stanzas().empty());
    // Rendered text parses back identically in the device's dialect.
    const Dialect dial = dialect_of(dev.vendor);
    EXPECT_EQ(parse(render(cfg, dial), dial, dev.device_id), cfg);
  }
}

TEST(ConfigGen, RoutingInstancesMatchDesign) {
  Rng rng(4);
  // Find a design using BGP with >= 2 routers.
  for (int i = 0; i < 30; ++i) {
    NetworkDesign design = sample_network_design(i, rng);
    if (!design.use_bgp || design.devices_with_role(Role::kRouter).size() < 2) continue;
    const int routers = static_cast<int>(design.devices_with_role(Role::kRouter).size());
    const int expected_groups = std::min(design.bgp_instances, routers);
    const GeneratedNetwork gen = generate_configs(std::move(design), rng);
    std::vector<DeviceConfig> configs;
    for (const auto& [id, cfg] : gen.configs) configs.push_back(cfg);
    Case c;
    NetworkRecord net = gen.design.net;
    std::vector<const DeviceRecord*> devs;
    for (const auto& d : gen.design.devices) devs.push_back(&d);
    compute_design_metrics(net, devs, configs, c);
    EXPECT_DOUBLE_EQ(c[Practice::kNumBgpInstances], expected_groups);
    return;
  }
  GTEST_SKIP() << "no suitable design sampled";
}

TEST(ConfigGen, VlanCountMatchesDesign) {
  Rng rng(5);
  NetworkDesign design = sample_network_design(0, rng);
  const int want = design.num_vlans;
  const GeneratedNetwork gen = generate_configs(std::move(design), rng);
  std::vector<DeviceConfig> configs;
  for (const auto& [id, cfg] : gen.configs) configs.push_back(cfg);
  const auto views = views_of(configs);
  EXPECT_EQ(count_vlans(NetworkView(views)), want);
}

TEST(ChangeProcess, SnapshotsAreMonotoneAndParseable) {
  Rng rng(6);
  NetworkDesign design = sample_network_design(0, rng);
  GeneratedNetwork gen = generate_configs(std::move(design), rng);
  ChangeProcess proc(&gen, rng.fork());
  SnapshotStore store;
  proc.emit_initial_snapshots(store);
  for (int m = 0; m < 3; ++m) proc.simulate_month(m, store);
  EXPECT_GE(store.total_snapshots(), gen.design.devices.size());
  for (const auto& dev_id : store.devices()) {
    const auto& snaps = store.for_device(dev_id);
    for (std::size_t i = 1; i < snaps.size(); ++i) EXPECT_GT(snaps[i].time, snaps[i - 1].time);
    const Dialect dial = dialect_of(gen.vendor_of.at(dev_id));
    EXPECT_NO_THROW(parse(snaps.back().text, dial, dev_id));
  }
}

TEST(ChangeProcess, MonthlyOpsConsistency) {
  Rng rng(7);
  NetworkDesign design = sample_network_design(1, rng);
  design.change_events_per_month = 20;  // ensure activity
  GeneratedNetwork gen = generate_configs(std::move(design), rng);
  ChangeProcess proc(&gen, rng.fork());
  SnapshotStore store;
  proc.emit_initial_snapshots(store);
  const MonthlyOps ops = proc.simulate_month(0, store);
  EXPECT_GT(ops.events, 0);
  EXPECT_GE(ops.changes, ops.events);
  EXPECT_LE(ops.automated_changes, ops.changes);
  EXPECT_LE(ops.events_with_interface, ops.events);
  EXPECT_LE(ops.events_with_mbox, ops.events);
  EXPECT_GE(ops.avg_devices_per_event(), 1.0);
  EXPECT_LE(static_cast<double>(ops.devices_changed.size()),
            static_cast<double>(gen.design.devices.size()));
  EXPECT_GE(ops.frac_events(ops.events_with_acl), 0.0);
  EXPECT_LE(ops.frac_events(ops.events_with_acl), 1.0);
}

TEST(HealthModel, RateRespondsToWiredPractices) {
  Rng rng(8);
  NetworkDesign design = sample_network_design(0, rng);
  const HealthModel model;
  MonthlyOps quiet;
  MonthlyOps busy;
  busy.events = 40;
  busy.change_types = {"interface", "acl", "vlan", "router"};
  busy.events_with_acl = 20;
  busy.devices_per_event_sum = 120;
  EXPECT_GT(model.ticket_rate(design, busy, 50), model.ticket_rate(design, quiet, 50));
  // VLAN growth raises the rate.
  EXPECT_GT(model.ticket_rate(design, quiet, 200), model.ticket_rate(design, quiet, 5));
}

TEST(HealthModel, InterfaceFractionIsNonMonotonic) {
  Rng rng(9);
  const NetworkDesign design = sample_network_design(0, rng);
  const HealthModel model;
  auto rate_at = [&](int with_iface) {
    MonthlyOps ops;
    ops.events = 10;
    ops.events_with_interface = with_iface;
    return model.ticket_rate(design, ops, 10);
  };
  // Peak at 0.5, lower at both extremes (Figure 4(c)).
  EXPECT_GT(rate_at(5), rate_at(0));
  EXPECT_GT(rate_at(5), rate_at(10));
}

TEST(HealthModel, GroundTruthSplitsCausalFromNonCausal) {
  const auto fx = HealthModel::ground_truth_effects();
  EXPECT_GT(fx.at(Practice::kNumDevices), 0);
  EXPECT_GT(fx.at(Practice::kNumChangeEvents), 0);
  EXPECT_GT(fx.at(Practice::kFracEventsAcl), 0);
  EXPECT_EQ(fx.at(Practice::kIntraDeviceComplexity), 0);
  EXPECT_EQ(fx.at(Practice::kHardwareEntropy), 0);
  EXPECT_LT(fx.at(Practice::kFracEventsMbox), 0.05);  // negligible
}

TEST(HealthModel, GeneratesMaintenanceAndHealthTickets) {
  Rng rng(10);
  const NetworkDesign design = sample_network_design(0, rng);
  const HealthModel model;
  MonthlyOps ops;
  ops.events = 30;
  ops.change_types = {"interface", "acl"};
  TicketLog log;
  int counter = 0;
  for (int m = 0; m < 6; ++m) model.generate_tickets(design, ops, 20, m, rng, log, counter);
  EXPECT_GT(log.size(), 0u);
  bool has_maint = false, has_health = false;
  for (const auto& t : log.all()) {
    EXPECT_EQ(t.network_id, design.net.network_id);
    EXPECT_GE(t.resolved, t.created);
    if (t.origin == TicketOrigin::kMaintenance) has_maint = true;
    else has_health = true;
  }
  EXPECT_TRUE(has_maint);
  EXPECT_TRUE(has_health);
}

TEST(OspGenerator, DeterministicAndComplete) {
  OspOptions opts;
  opts.num_networks = 5;
  opts.num_months = 3;
  opts.seed = 99;
  const OspDataset a = generate_osp(opts);
  const OspDataset b = generate_osp(opts);
  EXPECT_EQ(a.inventory.num_networks(), 5u);
  EXPECT_EQ(a.inventory.num_devices(), b.inventory.num_devices());
  EXPECT_EQ(a.snapshots.total_snapshots(), b.snapshots.total_snapshots());
  EXPECT_EQ(a.tickets.size(), b.tickets.size());
  EXPECT_EQ(a.designs.size(), 5u);
  EXPECT_EQ(a.true_ops.size(), 5u);
  EXPECT_EQ(a.true_ops[0].size(), 3u);
  EXPECT_EQ(a.num_months, 3);
}

TEST(OspGenerator, RandomizedExperimentMode) {
  OspOptions opts;
  opts.num_networks = 30;
  opts.num_months = 4;
  opts.seed = 77;
  opts.treated_fraction = 0.5;
  opts.treatment_rate_multiplier = 3.0;
  const OspDataset data = generate_osp(opts);
  ASSERT_EQ(data.experiment_treated.size(), 30u);
  int treated = 0;
  for (bool t : data.experiment_treated)
    if (t) ++treated;
  EXPECT_GT(treated, 5);
  EXPECT_LT(treated, 25);
  // Treated networks generate more change events on average.
  double ev_treated = 0, ev_control = 0;
  int n_treated = 0, n_control = 0;
  for (std::size_t n = 0; n < data.true_ops.size(); ++n) {
    for (const auto& ops : data.true_ops[n]) {
      if (data.experiment_treated[n]) {
        ev_treated += ops.events;
        ++n_treated;
      } else {
        ev_control += ops.events;
        ++n_control;
      }
    }
  }
  ASSERT_GT(n_treated, 0);
  ASSERT_GT(n_control, 0);
  EXPECT_GT(ev_treated / n_treated, 1.5 * ev_control / n_control);
}

TEST(OspGenerator, ExperimentModeOffByDefault) {
  OspOptions opts;
  opts.num_networks = 3;
  opts.num_months = 2;
  const OspDataset data = generate_osp(opts);
  for (bool t : data.experiment_treated) EXPECT_FALSE(t);
}

TEST(OspGenerator, DifferentSeedsDiffer) {
  OspOptions a;
  a.num_networks = 4;
  a.num_months = 2;
  a.seed = 1;
  OspOptions b = a;
  b.seed = 2;
  EXPECT_NE(generate_osp(a).snapshots.total_snapshots(),
            generate_osp(b).snapshots.total_snapshots());
}

}  // namespace
}  // namespace mpa
