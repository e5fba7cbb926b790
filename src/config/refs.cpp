#include "config/refs.hpp"

#include <algorithm>
#include <string_view>

namespace mpa {
namespace {

/// How many of `names` `dev` defines as stanzas of agnostic type `type`.
template <typename Names>
int defined(const DeviceView& dev, std::string_view type, const Names& names) {
  int refs = 0;
  for (const std::string_view name : names)
    if (dev.defines(type, name)) ++refs;
  return refs;
}

}  // namespace

int count_intra_refs(const DeviceView& dev) {
  int refs = 0;
  for (std::size_t i = 0; i < dev.size(); ++i) {
    const StanzaFacts& f = dev.facts(i);
    if (f.type == "interface") {
      // ACL attachment: IOS "ip access-group NAME", JunOS "filter NAME".
      refs += defined(dev, "acl", f.acls);
      // VLAN membership on IOS-like devices.
      for (const VlanRef& v : f.vlans)
        if (v.access && dev.defines("vlan", v.id)) ++refs;
    } else if (f.type == "vlan") {
      // VLAN membership on JunOS-like devices: "interface IFNAME".
      refs += defined(dev, "interface", f.interfaces);
    } else if (f.type == "virtual-server") {
      refs += defined(dev, "pool", f.pools);
    } else if (f.type == "link-aggregation") {
      refs += defined(dev, "interface", f.members);
    } else if (f.type == "router") {
      // A "network" statement covering a local interface subnet is an
      // intra-device reference from the control plane to that interface.
      for (const NetworkStatement& n : f.networks)
        if (n.parsed)
          for (const auto& a : dev.iface_addrs())
            if (n.parsed->contains(a.prefix.addr)) ++refs;
    }
  }
  return refs;
}

int count_inter_refs(const NetworkView& network, std::size_t device) {
  // True when an entry of `entries` sits on a device other than this one.
  const auto elsewhere = [&](const auto& entries) {
    return std::any_of(entries.begin(), entries.end(),
                       [&](const auto& e) { return e.device != device; });
  };
  const DeviceView& dev = network.devices()[device];
  int refs = 0;
  for (std::size_t i = 0; i < dev.size(); ++i) {
    const StanzaFacts& f = dev.facts(i);
    if (f.type == "router") {
      // BGP neighbor statements naming a peer device's address.
      for (const BgpNeighbor& n : f.neighbors)
        if (n.ip && elsewhere(network.carriers_of(*n.ip))) ++refs;
      // OSPF/BGP network statements covering a subnet shared with a peer.
      for (const NetworkStatement& n : f.networks)
        if (n.parsed && elsewhere(network.carriers_of(n.parsed->subnet()))) ++refs;
    } else if (f.type == "vlan") {
      // A VLAN spanning devices: defined here and on at least one peer.
      if (elsewhere(network.definers_of(f.stanza->name))) ++refs;
    }
  }
  return refs;
}

NetworkComplexity referential_complexity(const NetworkView& network) {
  const std::size_t devices = network.devices().size();
  if (devices == 0) return {};
  double intra = 0, inter = 0;
  for (std::size_t d = 0; d < devices; ++d) {
    intra += count_intra_refs(network.devices()[d]);
    inter += count_inter_refs(network, d);
  }
  const double n = static_cast<double>(devices);
  return NetworkComplexity{intra / n, inter / n};
}

}  // namespace mpa
