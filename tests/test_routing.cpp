// Tests for routing-instance extraction (union-find over adjacency).
#include <gtest/gtest.h>

#include "config/routing.hpp"

namespace mpa {
namespace {

DeviceConfig bgp_router(const std::string& id, const std::string& addr,
                        const std::string& neighbor, const std::string& asn) {
  DeviceConfig c(id);
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("ip address", addr + "/24");
  c.add(i);
  Stanza b;
  b.type = "router bgp";
  b.name = asn;
  if (!neighbor.empty()) b.set("neighbor", neighbor + " remote-as " + asn);
  c.add(b);
  return c;
}

/// The routing instances of a network given as configs.
std::vector<RoutingInstance> instances_of(const std::vector<DeviceConfig>& configs) {
  const std::vector<DeviceView> views = views_of(configs);
  return extract_routing_instances(NetworkView(views));
}

DeviceConfig ospf_router(const std::string& id, const std::string& subnet, int pid) {
  DeviceConfig c(id);
  Stanza o;
  o.type = "router ospf";
  o.name = std::to_string(pid);
  o.set("network", subnet + " area 0");
  c.add(o);
  return c;
}

TEST(Routing, ExtractProcesses) {
  // Each protocol stanza is one process; with no adjacency, each is
  // its own instance, in device order.
  const auto instances = instances_of(
      {bgp_router("a", "10.0.0.1", "10.0.0.2", "65001"), ospf_router("b", "10.1.0.0/24", 1)});
  ASSERT_EQ(instances.size(), 2u);
  EXPECT_EQ(instances[0].protocol, "bgp");
  EXPECT_EQ(instances[0].member_devices, std::vector<std::string>{"a"});
  EXPECT_EQ(instances[1].protocol, "ospf");
  EXPECT_EQ(instances[1].member_devices, std::vector<std::string>{"b"});
}

TEST(Routing, BgpChainFormsOneInstance) {
  // a <-> b <-> c via neighbor statements: transitive closure = one
  // instance of size 3.
  const std::vector<DeviceConfig> net{
      bgp_router("a", "10.0.0.1", "10.0.0.2", "65001"),
      bgp_router("b", "10.0.0.2", "10.0.0.3", "65001"),
      bgp_router("c", "10.0.0.3", "", "65001"),
  };
  const auto instances = instances_of(net);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].protocol, "bgp");
  EXPECT_EQ(instances[0].size(), 3u);
}

TEST(Routing, DisjointBgpGroups) {
  const std::vector<DeviceConfig> net{
      bgp_router("a", "10.0.0.1", "10.0.0.2", "65001"),
      bgp_router("b", "10.0.0.2", "", "65001"),
      bgp_router("c", "10.0.1.1", "192.0.2.1", "65002"),  // external peer
  };
  const auto instances = instances_of(net);
  const InstanceStats st = instance_stats(instances, "bgp");
  EXPECT_EQ(st.count, 2);
  EXPECT_DOUBLE_EQ(st.mean_size, (2 + 1) / 2.0);
}

TEST(Routing, OspfSharedSubnetAdjacency) {
  const std::vector<DeviceConfig> net{
      ospf_router("a", "10.5.0.0/24", 1),
      ospf_router("b", "10.5.0.0/24", 1),
      ospf_router("c", "10.6.0.0/24", 1),
  };
  const auto instances = instances_of(net);
  const InstanceStats st = instance_stats(instances, "ospf");
  EXPECT_EQ(st.count, 2);
}

TEST(Routing, OspfNonCanonicalSubnetsStillMatch) {
  // Network statements with host bits set should canonicalize.
  const std::vector<DeviceConfig> net{
      ospf_router("a", "10.5.0.1/24", 1),
      ospf_router("b", "10.5.0.200/24", 1),
  };
  const auto instances = instances_of(net);
  EXPECT_EQ(instance_stats(instances, "ospf").count, 1);
}

TEST(Routing, ProtocolsNeverMix) {
  // A BGP process advertising the same subnet as an OSPF process must
  // not join its instance.
  DeviceConfig a = bgp_router("a", "10.0.0.1", "", "65001");
  a.find("router bgp", "65001")->set("network", "10.5.0.0/24");
  const std::vector<DeviceConfig> net{a, ospf_router("b", "10.5.0.0/24", 1)};
  const auto instances = instances_of(net);
  EXPECT_EQ(instances.size(), 2u);
}

TEST(Routing, MstpRegionsGroup) {
  auto make_switch = [](const std::string& id, const std::string& region) {
    DeviceConfig c(id);
    Stanza s;
    s.type = "spanning-tree";
    s.name = "mst0";
    s.set("region", region);
    c.add(s);
    return c;
  };
  const std::vector<DeviceConfig> net{make_switch("a", "r1"), make_switch("b", "r1"),
                                      make_switch("c", "r2")};
  const auto instances = instances_of(net);
  const InstanceStats st = instance_stats(instances, "mstp");
  EXPECT_EQ(st.count, 2);
  EXPECT_DOUBLE_EQ(st.mean_size, 1.5);
}

TEST(Routing, SameDeviceProcessesNotAdjacent) {
  // Two OSPF processes on one device sharing a subnet stay separate
  // (adjacency requires different devices).
  DeviceConfig a("a");
  Stanza o1;
  o1.type = "router ospf";
  o1.name = "1";
  o1.set("network", "10.5.0.0/24 area 0");
  a.add(o1);
  Stanza o2;
  o2.type = "router ospf";
  o2.name = "2";
  o2.set("network", "10.5.0.0/24 area 1");
  a.add(o2);
  const auto instances = instances_of({a});
  EXPECT_EQ(instance_stats(instances, "ospf").count, 2);
}

TEST(Routing, EmptyNetwork) {
  EXPECT_TRUE(instances_of({}).empty());
  EXPECT_EQ(instance_stats({}, "bgp").count, 0);
  EXPECT_EQ(instance_stats({}, "bgp").mean_size, 0);
}

}  // namespace
}  // namespace mpa
