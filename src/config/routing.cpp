#include "config/routing.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace mpa {
namespace {

/// Plain union-find over process indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

// One routing process (a protocol stanza on one device): the facts
// adjacency rules consult are its stanza's.
struct Process {
  const DeviceView* device;  // owns the interface addresses
  const StanzaFacts* facts;
  std::string_view protocol;  // "bgp", "ospf", or "mstp"
  std::string_view region;    // MSTP region
};

std::vector<Process> gather_processes(const std::vector<DeviceView>& network) {
  std::vector<Process> out;
  for (const auto& dev : network) {
    for (std::size_t i = 0; i < dev.size(); ++i) {
      const StanzaFacts& f = dev.facts(i);
      if (f.type == "router") {
        if (!f.construct.empty()) out.push_back(Process{&dev, &f, f.construct, {}});
      } else if (f.type == "spanning-tree") {
        out.push_back(Process{&dev, &f, "mstp", f.region.value_or(f.stanza->name)});
      }
    }
  }
  return out;
}

/// True if one of `a`'s BGP neighbors is an address of `b`'s device.
bool names_peer(const Process& a, const Process& b) {
  return std::any_of(a.facts->neighbors.begin(), a.facts->neighbors.end(),
                     [&](const BgpNeighbor& n) { return n.ip && b.device->owns(*n.ip); });
}

bool adjacent(const Process& a, const Process& b) {
  if (a.protocol != b.protocol) return false;
  if (a.device->device_id() == b.device->device_id()) return false;
  if (a.protocol == "bgp") return names_peer(a, b) || names_peer(b, a);
  if (a.protocol == "ospf") {
    for (const NetworkStatement& x : a.facts->networks)
      for (const NetworkStatement& y : b.facts->networks)
        if (x.parsed && y.parsed && x.parsed->subnet() == y.parsed->subnet()) return true;
    return false;
  }
  if (a.protocol == "mstp") return a.region == b.region && !a.region.empty();
  return false;
}

}  // namespace

std::vector<RoutingInstance> extract_routing_instances(const std::vector<DeviceView>& network) {
  const auto procs = gather_processes(network);
  UnionFind uf(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i)
    for (std::size_t j = i + 1; j < procs.size(); ++j)
      if (adjacent(procs[i], procs[j])) uf.unite(i, j);

  std::map<std::size_t, RoutingInstance> groups;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const std::size_t root = uf.find(i);
    auto& inst = groups[root];
    inst.protocol = procs[i].protocol;
    inst.member_devices.push_back(procs[i].device->device_id());
  }
  std::vector<RoutingInstance> out;
  out.reserve(groups.size());
  for (auto& [root, inst] : groups) out.push_back(std::move(inst));
  return out;
}

InstanceStats instance_stats(const std::vector<RoutingInstance>& instances,
                             std::string_view protocol) {
  InstanceStats st;
  double total = 0;
  for (const auto& inst : instances) {
    if (inst.protocol != protocol) continue;
    ++st.count;
    total += static_cast<double>(inst.size());
  }
  if (st.count > 0) st.mean_size = total / st.count;
  return st;
}

}  // namespace mpa
