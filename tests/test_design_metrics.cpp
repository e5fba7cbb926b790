// Tests for design-practice inference (D1-D6).
#include <gtest/gtest.h>

#include <cmath>

#include "metrics/design_metrics.hpp"

namespace mpa {
namespace {

DeviceRecord dev(const std::string& id, const std::string& model, Role role,
                 const std::string& fw = "fw1", Vendor vendor = Vendor::kCirrus) {
  return DeviceRecord{id, "net1", vendor, model, role, fw};
}

TEST(Entropy, HomogeneousNetworkIsZero) {
  const DeviceRecord a = dev("a", "m1", Role::kSwitch);
  const DeviceRecord b = dev("b", "m1", Role::kSwitch);
  EXPECT_DOUBLE_EQ(hardware_entropy({&a, &b}), 0.0);
  EXPECT_DOUBLE_EQ(firmware_entropy({&a, &b}), 0.0);
}

TEST(Entropy, SingleDeviceIsZero) {
  const DeviceRecord a = dev("a", "m1", Role::kSwitch);
  EXPECT_DOUBLE_EQ(hardware_entropy({&a}), 0.0);
  EXPECT_DOUBLE_EQ(hardware_entropy({}), 0.0);
}

TEST(Entropy, MaximallyHeterogeneous) {
  // N devices, each a unique (model, role) cell: entropy = log2(N), so
  // the normalized metric is exactly 1.
  const DeviceRecord a = dev("a", "m1", Role::kSwitch);
  const DeviceRecord b = dev("b", "m2", Role::kRouter);
  const DeviceRecord c = dev("c", "m3", Role::kFirewall);
  const DeviceRecord d = dev("d", "m4", Role::kLoadBalancer);
  EXPECT_NEAR(hardware_entropy({&a, &b, &c, &d}), 1.0, 1e-12);
}

TEST(Entropy, SameModelMultipleRolesCounts) {
  // The metric captures "the same hardware model used in multiple
  // roles" (§2.2): same model, two roles -> nonzero entropy.
  const DeviceRecord a = dev("a", "m1", Role::kSwitch);
  const DeviceRecord b = dev("b", "m1", Role::kRouter);
  EXPECT_GT(hardware_entropy({&a, &b}), 0.9);
}

TEST(Entropy, FirmwareIndependentOfModel) {
  const DeviceRecord a = dev("a", "m1", Role::kSwitch, "fw1");
  const DeviceRecord b = dev("b", "m2", Role::kSwitch, "fw1");
  EXPECT_GT(hardware_entropy({&a, &b}), 0.0);
  EXPECT_DOUBLE_EQ(firmware_entropy({&a, &b}), 0.0);
}

DeviceConfig config_with(const std::vector<std::pair<std::string, std::string>>& stanzas,
                         const std::string& id = "d") {
  DeviceConfig c(id);
  for (const auto& [type, name] : stanzas) {
    Stanza s;
    s.type = type;
    s.name = name;
    c.add(s);
  }
  return c;
}

TEST(Protocols, CountsDistinctConstructs) {
  const DeviceConfig a =
      config_with({{"vlan", "100"}, {"vlan", "200"}, {"spanning-tree", "mst0"},
                   {"router bgp", "65001"}},
                  "a");
  const DeviceConfig b = config_with({{"vlans", "100"}, {"protocols-ospf", "1"}}, "b");
  const ProtocolUsage u = count_protocols(views_of({a, b}));
  EXPECT_EQ(u.l2, 2);  // vlan + spanning-tree (union across devices)
  EXPECT_EQ(u.l3, 2);  // bgp + ospf
  EXPECT_EQ(u.total(), 4);
}

TEST(Protocols, EmptyNetwork) {
  const ProtocolUsage u = count_protocols(views_of({}));
  EXPECT_EQ(u.total(), 0);
}

TEST(Vlans, DistinctAcrossDevicesAndDialects) {
  const DeviceConfig a = config_with({{"vlan", "100"}, {"vlan", "200"}}, "a");
  const DeviceConfig b = config_with({{"vlans", "200"}, {"vlans", "300"}}, "b");
  const std::vector<DeviceConfig> configs{a, b};
  const auto views = views_of(configs);
  EXPECT_EQ(count_vlans(NetworkView(views)), 3);
  const std::vector<DeviceView> none;
  EXPECT_EQ(count_vlans(NetworkView(none)), 0);
}

TEST(DesignMetrics, FillsCaseFields) {
  NetworkRecord net;
  net.network_id = "net1";
  net.workloads.push_back(Workload{"web", WorkloadKind::kWebService});
  const DeviceRecord a = dev("a", "m1", Role::kSwitch, "fw1");
  const DeviceRecord b = dev("b", "m2", Role::kRouter, "fw2", Vendor::kJunegrass);
  const DeviceConfig ca = config_with({{"vlan", "100"}, {"spanning-tree", "mst0"}}, "a");
  const DeviceConfig cb = config_with({{"protocols-bgp", "65001"}}, "b");

  Case out;
  compute_design_metrics(net, {&a, &b}, {ca, cb}, out);
  EXPECT_DOUBLE_EQ(out[Practice::kNumWorkloads], 1);
  EXPECT_DOUBLE_EQ(out[Practice::kNumDevices], 2);
  EXPECT_DOUBLE_EQ(out[Practice::kNumVendors], 2);
  EXPECT_DOUBLE_EQ(out[Practice::kNumModels], 2);
  EXPECT_DOUBLE_EQ(out[Practice::kNumRoles], 2);
  EXPECT_DOUBLE_EQ(out[Practice::kNumFirmwareVersions], 2);
  EXPECT_DOUBLE_EQ(out[Practice::kNumL2Protocols], 2);
  EXPECT_DOUBLE_EQ(out[Practice::kNumL3Protocols], 1);
  EXPECT_DOUBLE_EQ(out[Practice::kNumProtocols], 3);
  EXPECT_DOUBLE_EQ(out[Practice::kNumVlans], 1);
  EXPECT_DOUBLE_EQ(out[Practice::kNumBgpInstances], 1);
  EXPECT_DOUBLE_EQ(out[Practice::kNumOspfInstances], 0);
  EXPECT_NEAR(out[Practice::kHardwareEntropy], 1.0, 1e-12);
  // Operational fields untouched (zero-initialized).
  EXPECT_DOUBLE_EQ(out[Practice::kNumChangeEvents], 0);
}

}  // namespace
}  // namespace mpa
