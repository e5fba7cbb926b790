#include "config/routing.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace mpa {
namespace {

/// Plain union-find over process indices; a set's root is its smallest
/// index.
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
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a > b) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Unites the processes of each run of one key in `claims` (pairs of a
/// key and a process index, sorted here) that spans two or more
/// devices. Within such a run any two processes are connected: directly
/// when on different devices, else through one on another device; a run
/// on one device has no edge.
template <typename Key>
void unite_runs(std::vector<std::pair<Key, std::size_t>>& claims,
                const std::vector<NetworkView::Process>& procs, UnionFind& uf) {
  std::sort(claims.begin(), claims.end());
  for (auto first = claims.begin(); first != claims.end();) {
    const auto last = std::find_if(first, claims.end(),
                                   [&](const auto& c) { return c.first != first->first; });
    const std::size_t device = procs[first->second].device;
    if (std::any_of(first, last, [&](const auto& c) { return procs[c.second].device != device; }))
      for (auto c = first; c != last; ++c) uf.unite(first->second, c->second);
    first = last;
  }
}

}  // namespace

std::vector<RoutingInstance> extract_routing_instances(const NetworkView& network) {
  const auto& procs = network.processes();
  // Instances group the processes of router and spanning-tree stanzas;
  // another stanza whose construct is bgp or ospf is no routing process.
  const auto routed = [&](const NetworkView::Process& p) {
    return p.protocol == "mstp" || network.devices()[p.device].facts(p.stanza).type == "router";
  };
  UnionFind uf(procs.size());
  // (subnet of a network statement, process) and (region, process).
  std::vector<std::pair<Ipv4Prefix, std::size_t>> ospf;
  std::vector<std::pair<std::string_view, std::size_t>> mstp;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const NetworkView::Process& p = procs[i];
    if (!routed(p)) continue;
    const StanzaFacts& f = network.devices()[p.device].facts(p.stanza);
    if (p.protocol == "bgp") {
      // Joined to every BGP process of each other device that carries a
      // neighbor's address.
      for (const BgpNeighbor& n : f.neighbors) {
        if (!n.ip) continue;
        for (const NetworkView::Addr& carrier : network.carriers_of(*n.ip)) {
          if (carrier.device == p.device) continue;
          for (const NetworkView::Process& q : network.processes_of(carrier.device))
            if (q.protocol == "bgp" && routed(q))
              uf.unite(i, static_cast<std::size_t>(&q - procs.data()));
        }
      }
    } else if (p.protocol == "ospf") {
      for (const NetworkStatement& n : f.networks)
        if (n.parsed) ospf.emplace_back(n.parsed->subnet(), i);
    } else if (!p.region.empty()) {
      mstp.emplace_back(p.region, i);
    }
  }
  unite_runs(ospf, procs, uf);
  unite_runs(mstp, procs, uf);

  // A root is its set's first process, so it opens the set's instance.
  std::vector<RoutingInstance> out;
  std::vector<std::size_t> instance_of(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    if (!routed(procs[i])) continue;
    const std::size_t root = uf.find(i);
    if (root == i) {
      instance_of[i] = out.size();
      out.push_back(RoutingInstance{std::string(procs[i].protocol), {}});
    }
    out[instance_of[root]].member_devices.push_back(network.devices()[procs[i].device].device_id());
  }
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
