#include "config/refs.hpp"

#include <map>
#include <string_view>

#include "config/addr.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

// The "network <prefix> [area N]" statements of a routing stanza.
std::vector<Ipv4Prefix> network_statements(const Stanza& s) {
  std::vector<Ipv4Prefix> out;
  for (const auto& o : s.options) {
    if (o.key != "network") continue;
    const auto tokens = split_ws(o.value);
    if (!tokens.empty()) {
      if (const auto p = parse_prefix(tokens[0])) out.push_back(*p);
    }
  }
  return out;
}

/// For each value of one kind of fact, the id of the one device that
/// holds it, or null once two different ids do. A device other than X
/// holds the value unless its entry names X.
template <typename Key>
class Holders {
 public:
  void add(const Key& key, const std::string& id) {
    const auto [it, inserted] = ids_.try_emplace(key, &id);
    if (!inserted && it->second != nullptr && *it->second != id) it->second = nullptr;
  }
  bool held_besides(const Key& key, const std::string& id) const {
    const auto it = ids_.find(key);
    return it != ids_.end() && (it->second == nullptr || *it->second != id);
  }

 private:
  std::map<Key, const std::string*> ids_;
};

/// The network-wide facts inter-device references resolve against.
struct PeerFacts {
  Holders<std::uint32_t> addrs;
  Holders<Ipv4Prefix> subnets;
  Holders<std::string_view> vlans;

  explicit PeerFacts(const std::vector<DeviceView>& network) {
    for (const auto& p : network) {
      for (const auto& a : p.iface_addrs()) {
        addrs.add(a.prefix.addr, p.device_id());
        subnets.add(a.prefix.subnet(), p.device_id());
      }
      for (const auto& v : p.names_of("vlan")) vlans.add(v, p.device_id());
    }
  }
};

int inter_refs(const DeviceView& dev, const PeerFacts& peers) {
  const std::string& self = dev.device_id();
  int refs = 0;
  for (const auto& s : dev.stanzas()) {
    const std::string_view agnostic = dev.type_of(s);
    if (agnostic == "router") {
      // BGP neighbor statements naming a peer device's address.
      for (const auto& v : s.get_all("neighbor")) {
        const auto tokens = split_ws(v);
        if (tokens.empty()) continue;
        const auto ip = parse_ipv4(tokens[0]);
        if (ip && peers.addrs.held_besides(*ip, self)) ++refs;
      }
      // OSPF/BGP network statements covering a subnet shared with a peer.
      for (const auto& p : network_statements(s))
        if (peers.subnets.held_besides(p.subnet(), self)) ++refs;
    } else if (agnostic == "vlan") {
      // A VLAN spanning devices: defined here and on at least one peer.
      if (peers.vlans.held_besides(s.name, self)) ++refs;
    }
  }
  return refs;
}

}  // namespace

int count_intra_refs(const DeviceView& dev) {
  const auto& acls = dev.names_of("acl");
  const auto& vlans = dev.names_of("vlan");
  const auto& ifaces = dev.names_of("interface");
  const auto& pools = dev.names_of("pool");

  int refs = 0;
  for (const auto& s : dev.stanzas()) {
    const std::string_view agnostic = dev.type_of(s);
    if (agnostic == "interface") {
      for (const auto& o : s.options) {
        // ACL attachment: IOS "ip access-group NAME", JunOS "filter NAME".
        if (o.key == "ip access-group" || o.key == "filter") {
          const auto tokens = split_ws(o.value);
          if (!tokens.empty() && acls.count(tokens[0])) ++refs;
        }
        // VLAN membership on IOS-like devices.
        if (o.key == "switchport access vlan" && vlans.count(o.value)) ++refs;
      }
    } else if (agnostic == "vlan") {
      // VLAN membership on JunOS-like devices: "interface IFNAME".
      for (const auto& name : s.get_all("interface"))
        if (ifaces.count(name)) ++refs;
    } else if (agnostic == "virtual-server") {
      for (const auto& name : s.get_all("pool"))
        if (pools.count(name)) ++refs;
    } else if (agnostic == "link-aggregation") {
      for (const auto& name : s.get_all("member"))
        if (ifaces.count(name)) ++refs;
    } else if (agnostic == "router") {
      // A "network" statement covering a local interface subnet is an
      // intra-device reference from the control plane to that interface.
      for (const auto& p : network_statements(s))
        for (const auto& a : dev.iface_addrs())
          if (p.contains(a.prefix.addr)) ++refs;
    }
  }
  return refs;
}

int count_inter_refs(const DeviceView& dev, const std::vector<DeviceView>& network) {
  return inter_refs(dev, PeerFacts(network));
}

NetworkComplexity referential_complexity(const std::vector<DeviceView>& network) {
  if (network.empty()) return {};
  const PeerFacts peers(network);
  double intra = 0, inter = 0;
  for (const auto& dev : network) {
    intra += count_intra_refs(dev);
    inter += inter_refs(dev, peers);
  }
  const double n = static_cast<double>(network.size());
  return NetworkComplexity{intra / n, inter / n};
}

}  // namespace mpa
