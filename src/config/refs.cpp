#include "config/refs.hpp"

#include <algorithm>
#include <string_view>

#include "config/addr.hpp"

namespace mpa {
namespace {

/// For each value of one kind of fact, the id of the one device that
/// holds it, or null once two different ids do. A device other than X
/// holds the value unless its entry names X. Add every entry, then
/// seal() once before the first lookup.
template <typename Key>
class Holders {
 public:
  void add(const Key& key, const std::string& id) { entries_.push_back(Entry{key, &id}); }
  void seal() {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) { return a.key < b.key; });
    auto out = entries_.begin();
    for (auto e = entries_.begin(); e != entries_.end(); ++e) {
      if (out != entries_.begin() && std::prev(out)->key == e->key) {
        const std::string*& id = std::prev(out)->id;
        if (id != nullptr && *id != *e->id) id = nullptr;
      } else {
        *out++ = *e;
      }
    }
    entries_.erase(out, entries_.end());
  }
  bool held_besides(const Key& key, const std::string& id) const {
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), key,
                                     [](const Entry& e, const Key& k) { return e.key < k; });
    return it != entries_.end() && it->key == key && (it->id == nullptr || *it->id != id);
  }

 private:
  struct Entry {
    Key key;
    const std::string* id;
  };
  std::vector<Entry> entries_;
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
      for (const std::string_view v : p.names_of("vlan")) vlans.add(v, p.device_id());
    }
    addrs.seal();
    subnets.seal();
    vlans.seal();
  }
};

int inter_refs(const DeviceView& dev, const PeerFacts& peers) {
  const std::string& self = dev.device_id();
  int refs = 0;
  for (std::size_t i = 0; i < dev.size(); ++i) {
    const StanzaFacts& f = dev.facts(i);
    if (f.type == "router") {
      // BGP neighbor statements naming a peer device's address.
      for (const BgpNeighbor& n : f.neighbors)
        if (n.ip && peers.addrs.held_besides(*n.ip, self)) ++refs;
      // OSPF/BGP network statements covering a subnet shared with a peer.
      for (const NetworkStatement& n : f.networks)
        if (n.parsed && peers.subnets.held_besides(n.parsed->subnet(), self)) ++refs;
    } else if (f.type == "vlan") {
      // A VLAN spanning devices: defined here and on at least one peer.
      if (peers.vlans.held_besides(f.stanza->name, self)) ++refs;
    }
  }
  return refs;
}

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
