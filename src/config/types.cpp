#include "config/types.hpp"

#include <array>
#include <utility>

namespace mpa {
namespace {

struct TypeMapping {
  std::string_view native;
  std::string_view agnostic;
};

// Both dialects' native types, mapped to the vendor-agnostic id.
constexpr std::array<TypeMapping, 26> kTypeMap = {{
    // interfaces
    {"interface", "interface"},
    {"interfaces", "interface"},
    // VLAN definitions
    {"vlan", "vlan"},
    {"vlans", "vlan"},
    // access control
    {"ip access-list", "acl"},
    {"firewall-filter", "acl"},
    // routing processes
    {"router bgp", "router"},
    {"router ospf", "router"},
    {"protocols-bgp", "router"},
    {"protocols-ospf", "router"},
    // spanning tree
    {"spanning-tree", "spanning-tree"},
    {"protocols-mstp", "spanning-tree"},
    // link aggregation
    {"port-channel", "link-aggregation"},
    {"lag", "link-aggregation"},
    // misc L2 helpers
    {"udld", "udld"},
    {"ip dhcp-relay", "dhcp-relay"},
    {"dhcp-relay", "dhcp-relay"},
    // users
    {"username", "user"},
    {"login-user", "user"},
    // middlebox constructs
    {"pool", "pool"},
    {"virtual-server", "virtual-server"},
    // management-plane plumbing
    {"snmp-server", "snmp"},
    {"snmp", "snmp"},
    {"qos policy", "qos"},
    {"class-of-service", "qos"},
    {"sflow", "sflow"},
}};

}  // namespace

std::string_view normalize_type(std::string_view native_type) {
  for (const auto& m : kTypeMap)
    if (m.native == native_type) return m.agnostic;
  return native_type;
}

PlaneLayer layer_of(std::string_view construct) {
  if (construct == "vlan" || construct == "spanning-tree" || construct == "link-aggregation" ||
      construct == "udld" || construct == "dhcp-relay") {
    return PlaneLayer::kL2;
  }
  if (construct == "bgp" || construct == "ospf") return PlaneLayer::kL3;
  return PlaneLayer::kNeither;
}

std::string_view constructs_of(std::string_view native_type) {
  const std::string_view agnostic = normalize_type(native_type);
  if (agnostic == "router") {
    // The protocol is the routing-process flavour, recoverable from the
    // native type on both dialects.
    if (native_type.find("bgp") != std::string_view::npos) return "bgp";
    if (native_type.find("ospf") != std::string_view::npos) return "ospf";
    return {};
  }
  return layer_of(agnostic) != PlaneLayer::kNeither ? agnostic : std::string_view{};
}

}  // namespace mpa
