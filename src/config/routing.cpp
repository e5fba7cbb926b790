#include "config/routing.hpp"

#include <map>
#include <numeric>
#include <set>

#include "config/addr.hpp"
#include "util/strings.hpp"

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

// Facts about one routing process (a protocol stanza on one device)
// that adjacency rules consult.
struct ProcFacts {
  std::string device_id;
  std::string protocol;                  // "bgp", "ospf", or "mstp"
  std::set<std::uint32_t> neighbor_ips;  // BGP neighbor targets
  std::set<Ipv4Prefix> subnets;          // canonical subnets of network stmts
  const DeviceView* device = nullptr;    // owns the interface addresses
  std::string region;                    // MSTP region
};

std::vector<ProcFacts> gather_facts(const std::vector<DeviceView>& network) {
  std::vector<ProcFacts> out;
  for (const auto& dev : network) {
    for (const auto& s : dev.stanzas()) {
      const std::string_view agnostic = dev.type_of(s);
      if (agnostic == "router") {
        const std::string_view construct = dev.construct_of(s);
        if (construct.empty()) continue;
        ProcFacts f;
        f.device_id = dev.device_id();
        f.protocol = construct;
        f.device = &dev;
        for (const auto& v : s.get_all("neighbor")) {
          const auto tokens = split_ws(v);
          if (tokens.empty()) continue;
          if (const auto ip = parse_ipv4(tokens[0])) f.neighbor_ips.insert(*ip);
        }
        for (const auto& v : s.get_all("network")) {
          const auto tokens = split_ws(v);
          if (tokens.empty()) continue;
          if (const auto p = parse_prefix(tokens[0])) f.subnets.insert(p->subnet());
        }
        out.push_back(std::move(f));
      } else if (agnostic == "spanning-tree") {
        ProcFacts f;
        f.device_id = dev.device_id();
        f.protocol = "mstp";
        f.device = &dev;
        f.region = s.get("region").value_or(s.name);
        out.push_back(std::move(f));
      }
    }
  }
  return out;
}

bool adjacent(const ProcFacts& a, const ProcFacts& b) {
  if (a.protocol != b.protocol) return false;
  if (a.device_id == b.device_id) return false;
  if (a.protocol == "bgp") {
    for (std::uint32_t ip : a.neighbor_ips)
      if (b.device->owns(ip)) return true;
    for (std::uint32_t ip : b.neighbor_ips)
      if (a.device->owns(ip)) return true;
    return false;
  }
  if (a.protocol == "ospf") {
    for (const auto& s : a.subnets)
      if (b.subnets.count(s)) return true;
    return false;
  }
  if (a.protocol == "mstp") return a.region == b.region && !a.region.empty();
  return false;
}

}  // namespace

std::vector<RoutingInstance> extract_routing_instances(const std::vector<DeviceView>& network) {
  const auto facts = gather_facts(network);
  UnionFind uf(facts.size());
  for (std::size_t i = 0; i < facts.size(); ++i)
    for (std::size_t j = i + 1; j < facts.size(); ++j)
      if (adjacent(facts[i], facts[j])) uf.unite(i, j);

  std::map<std::size_t, RoutingInstance> groups;
  for (std::size_t i = 0; i < facts.size(); ++i) {
    const std::size_t root = uf.find(i);
    auto& inst = groups[root];
    inst.protocol = facts[i].protocol;
    inst.member_devices.push_back(facts[i].device_id);
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
