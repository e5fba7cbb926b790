// Tests for DeviceView, the one per-device input of every config
// analysis: each stanza's facts read by position, the pairing with a
// LintSource, and the equality of the kept DeviceConfig / LintInput
// wrappers with the view path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "config/device_view.hpp"
#include "config/lint.hpp"
#include "config/types.hpp"
#include "metrics/design_metrics.hpp"
#include "simulation/osp_generator.hpp"
#include "util/error.hpp"

namespace mpa {
namespace {

DeviceConfig config_of(const std::string& id, const std::vector<std::string>& native_types) {
  DeviceConfig c(id);
  int n = 0;
  for (const auto& type : native_types) {
    Stanza s;
    s.type = type;
    s.name = std::to_string(n++);
    c.add(std::move(s));
  }
  return c;
}

TEST(DeviceView, ResolvesEachStanzaTypeOnceInOrder) {
  const std::vector<DeviceConfig> configs = {
      config_of("ios", {"interface", "ip access-list", "router bgp", "router ospf", "vlan",
                        "port-channel", "username", "frobnicator"}),
      config_of("junos", {"interfaces", "firewall-filter", "protocols-bgp", "protocols-ospf",
                          "vlans", "lag", "login-user", "frobnicator"}),
  };
  for (const auto& config : configs) {
    SCOPED_TRACE(config.device_id());
    const DeviceView view(config);
    const auto& stanzas = config.stanzas();
    ASSERT_EQ(view.size(), stanzas.size());
    for (std::size_t i = 0; i < stanzas.size(); ++i) {
      const Stanza& s = stanzas[i];
      EXPECT_EQ(&view.stanza(i), &s);
      EXPECT_EQ(view.facts(i).stanza, &s);
      EXPECT_EQ(view.facts(i).type, normalize_type(s.type)) << s.type;
      EXPECT_EQ(view.facts(i).construct, constructs_of(s.type)) << s.type;
    }
    // Both dialects resolve to the same agnostic sequence.
    EXPECT_EQ(view.facts(1).type, "acl");
    EXPECT_EQ(view.facts(2).construct, "bgp");
    EXPECT_EQ(view.facts(3).construct, "ospf");
    EXPECT_EQ(view.facts(5).type, "link-aggregation");
    EXPECT_TRUE(view.facts(6).construct.empty());
    // An unknown type resolves to its native name.
    EXPECT_EQ(view.facts(7).type, "frobnicator");
    EXPECT_TRUE(view.facts(7).construct.empty());
  }
}

TEST(DeviceView, RejectsPositionPastTheLastStanza) {
  const DeviceConfig config = config_of("a", {"interface"});
  const DeviceView view(config);
  EXPECT_EQ(view.stanza(0).type, "interface");
  EXPECT_THROW(view.facts(1), PreconditionError);
  EXPECT_THROW(view.stanza(1), PreconditionError);
  EXPECT_THROW(DeviceView(DeviceConfig("empty")).facts(0), PreconditionError);
}

TEST(DeviceView, PairsOnlyWithSourceOfTheSameStanzaCount) {
  const std::string two =
      "interface Eth0\n"
      "!\n"
      "vlan 10\n"
      "!\n";
  const std::string three = two + "udld\n!\n";
  LintSource same;
  const DeviceConfig config = parse(two, Dialect::kIosLike, "dev", same);
  const LintSource longer = LintSource::scan(three, Dialect::kIosLike);
  const LintSource none;
  EXPECT_NO_THROW({ const DeviceView paired(config, &same); });
  EXPECT_THROW({ const DeviceView paired(config, &longer); }, PreconditionError);
  EXPECT_THROW({ const DeviceView paired(config, &none); }, PreconditionError);
}

std::string describe(const Diagnostic& d) {
  return d.rule_id + "|" + std::string(to_string(d.severity)) + "|" +
         std::string(to_string(d.category)) + "|" + d.device_id + "|" + d.object + "|" +
         d.message + "|" + std::to_string(d.span.first_line) + "-" +
         std::to_string(d.span.last_line) + "|" + (d.suppressed ? "suppressed" : "active");
}

// compute_design_metrics over DeviceConfigs and run_lint over LintInputs
// remain as wrappers for callers that hold configs; on the pinned
// 8 x 4, seed-3 dataset they must give exactly what the view path gives.
TEST(DeviceView, KeptWrappersMatchTheViewPathOnPinnedDataset) {
  OspOptions gen;
  gen.num_networks = 8;
  gen.num_months = 4;
  gen.seed = 3;
  const OspDataset data = generate_osp(gen);
  std::size_t network_months = 0, findings = 0;
  for (const auto& net : data.inventory.networks()) {
    const auto devices = data.inventory.devices_in(net.network_id);
    for (int m = 0; m < gen.num_months; ++m) {
      SCOPED_TRACE(net.network_id + " month " + std::to_string(m));
      // Month-end state: each device's last snapshot before month m+1.
      std::vector<DeviceConfig> configs;
      std::vector<LintSource> sources;
      configs.reserve(devices.size());
      sources.reserve(devices.size());
      for (const auto* d : devices) {
        const auto& snaps = data.snapshots.for_device(d->device_id);
        const auto end = std::partition_point(snaps.begin(), snaps.end(), [&](const auto& s) {
          return s.time < month_start(m + 1);
        });
        if (end == snaps.begin()) continue;
        configs.push_back(parse(std::prev(end)->text, dialect_of(d->vendor), d->device_id,
                                sources.emplace_back()));
      }
      std::vector<LintInput> inputs;
      std::vector<DeviceView> views;
      for (std::size_t i = 0; i < configs.size(); ++i) {
        inputs.push_back(LintInput{&configs[i], &sources[i]});
        views.emplace_back(configs[i], &sources[i]);
      }

      Case by_configs, by_views;
      compute_design_metrics(net, devices, configs, by_configs);
      compute_design_metrics(net, devices, views, by_views);
      EXPECT_EQ(std::memcmp(by_configs.practice.data(), by_views.practice.data(),
                            sizeof by_configs.practice),
                0);

      const auto by_inputs = run_lint(inputs);
      const auto by_view_list = run_lint(NetworkView(views));
      ASSERT_EQ(by_inputs.size(), by_view_list.size());
      for (std::size_t i = 0; i < by_inputs.size(); ++i)
        EXPECT_EQ(describe(by_inputs[i]), describe(by_view_list[i]));
      findings += by_inputs.size();
      ++network_months;
    }
  }
  EXPECT_EQ(network_months, 32u);
  EXPECT_GT(findings, 0u);
}

}  // namespace
}  // namespace mpa
