// Tests for the stanza configuration model.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "config/stanza.hpp"

namespace mpa {
namespace {

Stanza iface() {
  Stanza s;
  s.type = "interface";
  s.name = "Eth0";
  s.set("ip address", "10.0.0.1/24");
  s.set("description", "uplink");
  s.set("neighbor", "a");
  s.set("neighbor", "b");
  return s;
}

TEST(Stanza, ReplaceFirstOrAppend) {
  Stanza s = iface();
  s.replace("description", "downlink");
  EXPECT_EQ(s.options[1], (Option{"description", "downlink"}));
  EXPECT_EQ(s.options.size(), 4u);
  s.replace("neighbor", "c");
  EXPECT_EQ(s.options[2], (Option{"neighbor", "c"}));
  EXPECT_EQ(s.options[3], (Option{"neighbor", "b"}));
  s.replace("new-key", "v");
  EXPECT_EQ(s.options.back(), (Option{"new-key", "v"}));
  EXPECT_EQ(s.options.size(), 5u);
}

TEST(DeviceConfig, FindAddRemove) {
  DeviceConfig c("dev1");
  c.add(iface());
  EXPECT_NE(c.find("interface", "Eth0"), nullptr);
  EXPECT_EQ(c.find("interface", "Eth1"), nullptr);
  EXPECT_EQ(c.find("vlan", "Eth0"), nullptr);
  EXPECT_TRUE(c.remove("interface", "Eth0"));
  EXPECT_FALSE(c.remove("interface", "Eth0"));
}

TEST(DeviceConfig, RejectsDuplicateStanza) {
  DeviceConfig c("dev1");
  c.add(iface());
  EXPECT_THROW(c.add(iface()), PreconditionError);
}

TEST(DeviceConfig, AllOfType) {
  DeviceConfig c("dev1");
  c.add(iface());
  Stanza s2 = iface();
  s2.name = "Eth1";
  c.add(s2);
  Stanza v;
  v.type = "vlan";
  v.name = "100";
  c.add(v);
  EXPECT_EQ(c.all_of_type("interface").size(), 2u);
  EXPECT_EQ(c.all_of_type("vlan").size(), 1u);
  EXPECT_TRUE(c.all_of_type("acl").empty());
}

TEST(DeviceConfig, EqualityIsDeep) {
  DeviceConfig a("d"), b("d");
  a.add(iface());
  b.add(iface());
  EXPECT_EQ(a, b);
  b.find("interface", "Eth0")->replace("description", "changed");
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace mpa
