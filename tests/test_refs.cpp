// Tests for reference extraction (intra/inter-device complexity, D6).
#include <gtest/gtest.h>

#include "config/refs.hpp"

namespace mpa {
namespace {

DeviceConfig router_with_refs() {
  DeviceConfig c("rt0");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("ip address", "10.0.0.1/24");
  i.set("ip access-group", "edge");
  c.add(i);
  Stanza a;
  a.type = "ip access-list";
  a.name = "edge";
  a.set("permit", "tcp any any eq 80");
  c.add(a);
  Stanza b;
  b.type = "router bgp";
  b.name = "65001";
  b.set("neighbor", "10.0.0.2 remote-as 65001");
  b.set("network", "10.0.0.0/24");
  c.add(b);
  return c;
}

TEST(Refs, IntraAclAttachment) {
  DeviceConfig c("d");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("ip access-group", "edge");
  c.add(i);
  EXPECT_EQ(count_intra_refs(DeviceView(c)), 0);  // ACL not defined -> dangling, no ref
  Stanza a;
  a.type = "ip access-list";
  a.name = "edge";
  c.add(a);
  EXPECT_EQ(count_intra_refs(DeviceView(c)), 1);
}

TEST(Refs, IntraVlanMembershipBothDialects) {
  // IOS-like: membership under the interface.
  DeviceConfig ios("d1");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("switchport access vlan", "100");
  ios.add(i);
  Stanza v;
  v.type = "vlan";
  v.name = "100";
  ios.add(v);
  EXPECT_EQ(count_intra_refs(DeviceView(ios)), 1);

  // JunOS-like: membership under the vlan.
  DeviceConfig junos("d2");
  Stanza ji;
  ji.type = "interfaces";
  ji.name = "xe-0/0/0";
  junos.add(ji);
  Stanza jv;
  jv.type = "vlans";
  jv.name = "100";
  jv.set("interface", "xe-0/0/0");
  junos.add(jv);
  EXPECT_EQ(count_intra_refs(DeviceView(junos)), 1);
}

TEST(Refs, IntraRouterNetworkCoversInterface) {
  const DeviceConfig c = router_with_refs();
  // Refs: acl attach (1) + bgp network statement covering Eth0 (1).
  EXPECT_EQ(count_intra_refs(DeviceView(c)), 2);
}

TEST(Refs, IntraVirtualServerPool) {
  DeviceConfig c("lb");
  Stanza p;
  p.type = "pool";
  p.name = "web";
  p.set("member", "10.200.0.1:80");
  c.add(p);
  Stanza vs;
  vs.type = "virtual-server";
  vs.name = "vip";
  vs.set("pool", "web");
  c.add(vs);
  EXPECT_EQ(count_intra_refs(DeviceView(c)), 1);
}

TEST(Refs, IntraLagMember) {
  DeviceConfig c("sw");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  c.add(i);
  Stanza lag;
  lag.type = "port-channel";
  lag.name = "ae0";
  lag.set("member", "Eth0");
  c.add(lag);
  EXPECT_EQ(count_intra_refs(DeviceView(c)), 1);
}

TEST(Refs, InterBgpNeighbor) {
  const DeviceConfig a = router_with_refs();
  DeviceConfig b("rt1");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("ip address", "10.0.0.2/24");
  b.add(i);
  const std::vector<DeviceConfig> net{a, b};
  const auto views = views_of(net);
  const NetworkView network(views);
  // a's neighbor 10.0.0.2 is b's interface address (1), and a's network
  // statement covers the 10.0.0.0/24 subnet shared with b (1).
  EXPECT_EQ(count_inter_refs(network, 0), 2);
  EXPECT_EQ(count_inter_refs(network, 1), 0);  // b has no bgp/vlan stanzas
}

TEST(Refs, InterVlanSpanning) {
  DeviceConfig a("sw0"), b("sw1"), c("sw2");
  for (auto* cfg : {&a, &b}) {
    Stanza v;
    v.type = "vlan";
    v.name = "100";
    cfg->add(v);
  }
  Stanza v2;
  v2.type = "vlan";
  v2.name = "200";
  c.add(v2);
  const std::vector<DeviceConfig> net{a, b, c};
  const auto views = views_of(net);
  const NetworkView network(views);
  EXPECT_EQ(count_inter_refs(network, 0), 1);  // vlan 100 also on b
  EXPECT_EQ(count_inter_refs(network, 2), 0);  // vlan 200 unique
}

TEST(Refs, SelfIsExcludedFromPeers) {
  const std::vector<DeviceConfig> net{router_with_refs()};
  const auto views = views_of(net);
  // Peer list containing only the device itself yields no inter refs.
  EXPECT_EQ(count_inter_refs(NetworkView(views), 0), 0);
}

TEST(Refs, NetworkComplexityAverages) {
  const DeviceConfig a = router_with_refs();
  DeviceConfig b("rt1");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("ip address", "10.0.0.2/24");
  b.add(i);
  const std::vector<DeviceConfig> net{a, b};
  const auto views = views_of(net);
  const NetworkComplexity cx = referential_complexity(NetworkView(views));
  EXPECT_DOUBLE_EQ(cx.mean_intra, (2 + 0) / 2.0);
  EXPECT_DOUBLE_EQ(cx.mean_inter, (2 + 0) / 2.0);
}

TEST(Refs, EmptyNetwork) {
  const std::vector<DeviceView> none;
  const NetworkComplexity cx = referential_complexity(NetworkView(none));
  EXPECT_EQ(cx.mean_intra, 0);
  EXPECT_EQ(cx.mean_inter, 0);
}

}  // namespace
}  // namespace mpa
