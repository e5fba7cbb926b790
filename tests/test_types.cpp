// Tests for vendor-agnostic type normalization and construct mapping.
#include <gtest/gtest.h>

#include "config/types.hpp"

namespace mpa {
namespace {

TEST(Types, CrossVendorAclMapping) {
  // The paper's flagship example: IOS "ip access-list" and JunOS
  // "firewall filter" are the same construct.
  EXPECT_EQ(normalize_type("ip access-list"), "acl");
  EXPECT_EQ(normalize_type("firewall-filter"), "acl");
}

TEST(Types, InterfaceAndVlan) {
  EXPECT_EQ(normalize_type("interface"), "interface");
  EXPECT_EQ(normalize_type("interfaces"), "interface");
  EXPECT_EQ(normalize_type("vlan"), "vlan");
  EXPECT_EQ(normalize_type("vlans"), "vlan");
}

TEST(Types, RoutersCollapse) {
  for (const char* t : {"router bgp", "router ospf", "protocols-bgp", "protocols-ospf"})
    EXPECT_EQ(normalize_type(t), "router") << t;
}

TEST(Types, UnknownTypesPassThrough) {
  EXPECT_EQ(normalize_type("frobnicator"), "frobnicator");
}

TEST(Types, LayerClassification) {
  EXPECT_EQ(layer_of("vlan"), PlaneLayer::kL2);
  EXPECT_EQ(layer_of("spanning-tree"), PlaneLayer::kL2);
  EXPECT_EQ(layer_of("link-aggregation"), PlaneLayer::kL2);
  EXPECT_EQ(layer_of("udld"), PlaneLayer::kL2);
  EXPECT_EQ(layer_of("dhcp-relay"), PlaneLayer::kL2);
  EXPECT_EQ(layer_of("bgp"), PlaneLayer::kL3);
  EXPECT_EQ(layer_of("ospf"), PlaneLayer::kL3);
  EXPECT_EQ(layer_of("acl"), PlaneLayer::kNeither);
  EXPECT_EQ(layer_of("user"), PlaneLayer::kNeither);
}

TEST(Types, ConstructsOfRoutingStanzas) {
  EXPECT_EQ(constructs_of("router bgp"), "bgp");
  EXPECT_EQ(constructs_of("protocols-ospf"), "ospf");
  EXPECT_EQ(constructs_of("vlan"), "vlan");
  EXPECT_EQ(constructs_of("protocols-mstp"), "spanning-tree");
  EXPECT_TRUE(constructs_of("username").empty());
  EXPECT_TRUE(constructs_of("pool").empty());
  EXPECT_TRUE(constructs_of("frobnicator").empty());  // unknown types instantiate none
}

}  // namespace
}  // namespace mpa
