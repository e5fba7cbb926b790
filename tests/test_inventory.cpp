// Tests for the inventory model.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "model/inventory.hpp"

namespace mpa {
namespace {

Inventory make_small() {
  Inventory inv;
  inv.add_network(NetworkRecord{"net1", {Workload{"web", WorkloadKind::kWebService}}, {}});
  inv.add_network(NetworkRecord{"net2", {}, {}});
  inv.add_device(DeviceRecord{"net1-sw-0", "net1", Vendor::kCirrus, "cx-1", Role::kSwitch, "fw1"});
  inv.add_device(DeviceRecord{"net1-rt-0", "net1", Vendor::kJunegrass, "jg-9", Role::kRouter, "fw2"});
  inv.add_device(DeviceRecord{"net2-lb-0", "net2", Vendor::kEffen, "ef-3", Role::kLoadBalancer, "fw3"});
  return inv;
}

TEST(Inventory, Lookup) {
  const Inventory inv = make_small();
  EXPECT_EQ(inv.num_networks(), 2u);
  EXPECT_EQ(inv.num_devices(), 3u);
  ASSERT_NE(inv.find_network("net1"), nullptr);
  EXPECT_EQ(inv.find_network("nope"), nullptr);
  ASSERT_NE(inv.find_device("net1-rt-0"), nullptr);
  EXPECT_EQ(inv.find_device("net1-rt-0")->vendor, Vendor::kJunegrass);
  EXPECT_EQ(inv.find_device("ghost"), nullptr);
}

TEST(Inventory, DevicesInNetwork) {
  const Inventory inv = make_small();
  EXPECT_EQ(inv.devices_in("net1").size(), 2u);
  EXPECT_EQ(inv.devices_in("net2").size(), 1u);
  EXPECT_TRUE(inv.devices_in("ghost").empty());
}

// Devices of several networks arrive interleaved: devices_in gives each
// network's devices in the order they were added.
TEST(Inventory, DevicesInKeepInsertionOrderAcrossInterleavedNetworks) {
  Inventory inv;
  for (const char* net : {"net1", "net2", "net3"}) inv.add_network(NetworkRecord{net, {}, {}});
  const std::vector<std::pair<std::string, std::string>> adds = {
      {"b", "net2"}, {"z", "net1"}, {"a", "net2"}, {"y", "net1"}, {"c", "net2"}, {"x", "net1"}};
  for (const auto& [id, net] : adds)
    inv.add_device(DeviceRecord{id, net, Vendor::kCirrus, "m", Role::kSwitch, "f"});
  const auto ids = [&](const std::string& net) {
    std::string out;
    for (const DeviceRecord* d : inv.devices_in(net)) {
      EXPECT_EQ(d, inv.find_device(d->device_id));
      out += d->device_id;
    }
    return out;
  };
  EXPECT_EQ(ids("net1"), "zyx");
  EXPECT_EQ(ids("net2"), "bac");
  EXPECT_EQ(ids("net3"), "");
  EXPECT_EQ(ids("ghost"), "");
  // A rejected device leaves every network's list as it was.
  EXPECT_THROW(inv.add_device(DeviceRecord{"a", "net3", {}, "m", Role::kSwitch, "f"}),
               PreconditionError);
  EXPECT_EQ(ids("net3"), "");
  EXPECT_EQ(ids("net2"), "bac");
}

TEST(Inventory, DeviceRegistrationUpdatesNetworkRecord) {
  const Inventory inv = make_small();
  const auto* net = inv.find_network("net1");
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->device_ids.size(), 2u);
}

TEST(Inventory, RejectsDuplicatesAndOrphans) {
  Inventory inv = make_small();
  EXPECT_THROW(inv.add_network(NetworkRecord{"net1", {}, {}}), PreconditionError);
  EXPECT_THROW(inv.add_device(DeviceRecord{"net1-sw-0", "net1", {}, "m", Role::kSwitch, "f"}),
               PreconditionError);
  EXPECT_THROW(inv.add_device(DeviceRecord{"x", "ghost-net", {}, "m", Role::kSwitch, "f"}),
               PreconditionError);
}

TEST(Roles, MiddleboxClassification) {
  EXPECT_TRUE(is_middlebox(Role::kFirewall));
  EXPECT_TRUE(is_middlebox(Role::kLoadBalancer));
  EXPECT_TRUE(is_middlebox(Role::kAdc));
  EXPECT_FALSE(is_middlebox(Role::kRouter));
  EXPECT_FALSE(is_middlebox(Role::kSwitch));
}

TEST(Roles, Names) {
  EXPECT_EQ(to_string(Role::kRouter), "router");
  EXPECT_EQ(to_string(Role::kAdc), "adc");
  EXPECT_EQ(to_string(Vendor::kCirrus), "cirrus");
  EXPECT_EQ(to_string(Vendor::kBrocatel), "brocatel");
}

}  // namespace
}  // namespace mpa
