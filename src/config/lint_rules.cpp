// The built-in lint rules: one table of RuleInfo plus the function that
// checks it, in builtin_rules(); the engine (lint.cpp) drives them and
// handles suppression and spans.
//
// Rules walk each device's DeviceView (config/device_view.hpp) by
// position and read each stanza's facts (stanza.hpp: StanzaFacts),
// derived once from its options, and the names the device's stanzas
// reference, gathered once per view; network-scope rules read the
// cross-device facts of the network's NetworkView. Rules report against
// the vendor-agnostic model, so each fires identically on IOS-like and
// JunOS-like configs.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "config/lint.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

/// Runs `visit(position, facts)` over each stanza of `dev` whose agnostic
/// type is `type`, in order.
template <typename Visit>
void each_of(const DeviceView& dev, std::string_view type, Visit&& visit) {
  for (std::size_t i = 0; i < dev.size(); ++i) {
    const StanzaFacts& f = dev.facts(i);
    if (f.type == type) visit(i, f);
  }
}

/// "key value" of an option.
std::string term_text(const OptionView& o) {
  return std::string(o.key) + " " + std::string(o.value);
}

/// Calls `group(first, last)` for each run of equal keys in `items`,
/// which are sorted by `key_of`.
template <typename Items, typename KeyOf, typename Group>
void each_run(const Items& items, KeyOf key_of, Group&& group) {
  for (auto first = items.begin(); first != items.end();) {
    const auto last = std::find_if(first, items.end(),
                                   [&](const auto& t) { return key_of(t) != key_of(*first); });
    group(first, last);
    first = last;
  }
}

// ------------------------------------------------------------ referential

void dangling_acl_ref(const DeviceView& dev, LintSink& sink) {
  each_of(dev, "interface", [&](std::size_t i, const StanzaFacts& f) {
    for (const std::string_view acl : f.acls)
      if (!dev.defines("acl", acl))
        sink.report(dev, i, [&] { return f.stanza->name + " -> acl '" + std::string(acl) + "'"; });
  });
}

void dangling_vlan_ref(const DeviceView& dev, LintSink& sink) {
  for (std::size_t i = 0; i < dev.size(); ++i) {
    const StanzaFacts& f = dev.facts(i);
    if (f.type == "interface") {
      for (const VlanRef& vlan : f.vlans)
        if (!dev.defines("vlan", vlan.id))
          sink.report(dev, i, [&] {
            return f.stanza->name + " -> vlan '" + std::string(vlan.id) + "'";
          });
    } else if (f.type == "vlan") {
      for (const std::string_view name : f.interfaces)
        if (!dev.defines("interface", name))
          sink.report(dev, i, [&] {
            return "vlan " + f.stanza->name + " -> interface '" + std::string(name) + "'";
          });
    }
  }
}

void dangling_pool_ref(const DeviceView& dev, LintSink& sink) {
  each_of(dev, "virtual-server", [&](std::size_t i, const StanzaFacts& f) {
    for (const std::string_view name : f.pools)
      if (!dev.defines("pool", name))
        sink.report(dev, i,
                    [&] { return f.stanza->name + " -> pool '" + std::string(name) + "'"; });
  });
}

void dangling_lag_member(const DeviceView& dev, LintSink& sink) {
  each_of(dev, "link-aggregation", [&](std::size_t i, const StanzaFacts& f) {
    for (const std::string_view name : f.members)
      if (!dev.defines("interface", name))
        sink.report(dev, i,
                    [&] { return f.stanza->name + " -> interface '" + std::string(name) + "'"; });
  });
}

// ----------------------------------------------------------------- filter

void empty_acl(const DeviceView& dev, LintSink& sink) {
  each_of(dev, "acl", [&](std::size_t i, const StanzaFacts& f) {
    if (f.terms.empty())
      sink.report(dev, i, [&] { return "acl '" + f.stanza->name + "' has no terms"; });
  });
}

void acl_shadowed_term(const DeviceView& dev, LintSink& sink) {
  // Terms after a catch-all belong to acl-unreachable-term.
  each_of(dev, "acl", [&](std::size_t i, const StanzaFacts& f) {
    for (const std::size_t t : f.shadowed)
      sink.report(dev, i, [&] {
        return "acl '" + f.stanza->name + "': duplicate term '" + term_text(f.terms[t]) + "'";
      });
  });
}

void acl_unreachable_term(const DeviceView& dev, LintSink& sink) {
  each_of(dev, "acl", [&](std::size_t i, const StanzaFacts& f) {
    for (std::size_t t = f.reachable; t < f.terms.size(); ++t)
      sink.report(dev, i, [&] {
        return "acl '" + f.stanza->name + "': term '" + term_text(f.terms[t]) +
               "' is unreachable after a catch-all";
      });
  });
}

// ---------------------------------------------------------------- hygiene

void unreferenced_acl(const DeviceView& dev, LintSink& sink) {
  each_of(dev, "acl", [&](std::size_t i, const StanzaFacts& f) {
    if (!dev.referenced("acl", f.stanza->name))
      sink.report(dev, i, [&] { return "acl '" + f.stanza->name + "' is never attached"; });
  });
}

void unreferenced_pool(const DeviceView& dev, LintSink& sink) {
  each_of(dev, "pool", [&](std::size_t i, const StanzaFacts& f) {
    if (!dev.referenced("pool", f.stanza->name))
      sink.report(dev, i, [&] { return "pool '" + f.stanza->name + "' is never used"; });
  });
}

void unreferenced_vlan(const DeviceView& dev, LintSink& sink) {
  each_of(dev, "vlan", [&](std::size_t i, const StanzaFacts& f) {
    if (dev.referenced("vlan", f.stanza->name)) return;
    if (!f.interfaces.empty()) return;  // members listed inline
    sink.report(dev, i, [&] { return "vlan " + f.stanza->name + " has no members"; });
  });
}

void unused_interface_up(const DeviceView& dev, LintSink& sink) {
  // Interfaces referenced by VLAN member lists or LAGs are in use.
  each_of(dev, "interface", [&](std::size_t i, const StanzaFacts& f) {
    if (f.in_use || f.shut || dev.referenced("interface", f.stanza->name)) return;
    sink.report(dev, i, [&] { return f.stanza->name + " carries no config; add 'shutdown'"; });
  });
}

// ------------------------------------------------------------- addressing

void duplicate_address(const NetworkView& net, LintSink& sink) {
  for (std::size_t d = 0; d < net.devices().size(); ++d) {
    const DeviceView& dev = net.devices()[d];
    for (std::size_t k = 0; k < dev.iface_addrs().size(); ++k) {
      const DeviceView::IfaceAddr& ia = dev.iface_addrs()[k];
      const NetworkView::Addr& first = *net.owner_of(ia.prefix.addr);
      if (first.device == d && first.index == k) continue;
      sink.report(dev, ia.stanza, [&] {
        const DeviceView& owner = net.devices()[first.device];
        const std::size_t iface = owner.iface_addrs()[first.index].stanza;
        return format_ipv4(ia.prefix.addr) + " also on " + owner.device_id() + "/" +
               owner.stanza(iface).name;
      });
    }
  }
}

void subnet_overlap(const NetworkView& net, LintSink& sink) {
  // Each distinct subnet once, as the first interface that carries it.
  const auto& subnets = net.subnets();
  const auto repeat = [&](auto it) {
    return it != subnets.begin() && std::prev(it)->prefix == it->prefix;
  };
  for (auto a = subnets.begin(); a != subnets.end(); ++a) {
    if (repeat(a)) continue;
    const Ipv4Prefix& pa = a->prefix;
    // Subnets sort by network address: once one starts past the end of
    // `pa`, it and every later one neither hold nor sit in `pa`.
    const std::uint32_t last =
        pa.len == 32 ? pa.network() : pa.network() | (~std::uint32_t{0} >> pa.len);
    for (auto b = std::next(a); b != subnets.end() && b->prefix.addr <= last; ++b) {
      const Ipv4Prefix& pb = b->prefix;
      if (repeat(b) || pa.len == pb.len) continue;  // equal-len: disjoint or identical
      const Ipv4Prefix& wide = pa.len < pb.len ? pa : pb;
      const Ipv4Prefix& narrow = pa.len < pb.len ? pb : pa;
      if (!wide.contains(narrow.network())) continue;
      const NetworkView::Subnet& owner = narrow == pa ? *a : *b;
      sink.report(net.devices()[owner.device], owner.stanza,
                  [&] { return format_prefix(narrow) + " overlaps " + format_prefix(wide); });
    }
  }
}

// --------------------------------------------------------------- protocol

void one_sided_bgp_session(const NetworkView& net, LintSink& sink) {
  for (const auto& proc : net.processes()) {
    if (proc.protocol != "bgp") continue;
    const DeviceView& dev = net.devices()[proc.device];
    for (const BgpNeighbor& n : dev.facts(proc.stanza).neighbors) {
      if (!n.ip) continue;
      const NetworkView::Addr* owner = net.owner_of(*n.ip);
      if (owner == nullptr || net.bgp_process_of(owner->device) != nullptr) continue;
      sink.report(dev, proc.stanza, [&] {
        return "neighbor " + std::string(n.address) + " (" +
               net.devices()[owner->device].device_id() + " runs no BGP process)";
      });
    }
  }
}

void bgp_as_mismatch(const NetworkView& net, LintSink& sink) {
  // The AS number of a BGP-speaking device is its first process
  // stanza's name.
  for (const auto& proc : net.processes()) {
    if (proc.protocol != "bgp") continue;
    const DeviceView& dev = net.devices()[proc.device];
    for (const BgpNeighbor& n : dev.facts(proc.stanza).neighbors) {
      // "neighbor <ip> remote-as <asn>"
      if (n.remote_as.empty() || !n.ip) continue;
      const NetworkView::Addr* owner = net.owner_of(*n.ip);
      if (owner == nullptr) continue;
      const NetworkView::Process* peer = net.bgp_process_of(owner->device);
      if (peer == nullptr) continue;
      const DeviceView& peer_dev = net.devices()[owner->device];
      const std::string& peer_as = peer_dev.stanza(peer->stanza).name;
      if (peer_as == n.remote_as) continue;
      sink.report(dev, proc.stanza, [&] {
        return "neighbor " + std::string(n.address) + " remote-as " + std::string(n.remote_as) +
               " but " + peer_dev.device_id() + " runs AS " + peer_as;
      });
    }
  }
}

void ospf_area_mismatch(const NetworkView& net, LintSink& sink) {
  struct Claim {
    std::string_view prefix;
    std::string_view area;
    const DeviceView* device;
    std::size_t stanza;
  };
  std::vector<Claim> claims;
  for (const DeviceView& dev : net.devices())
    for (std::size_t i = 0; i < dev.size(); ++i) {
      const StanzaFacts& f = dev.facts(i);
      if (f.construct != "ospf") continue;
      // "network <prefix> area <id>"
      for (const NetworkStatement& n : f.networks)
        if (!n.area.empty()) claims.push_back(Claim{n.prefix, n.area, &dev, i});
    }
  const auto prefix_of = [](const Claim& c) { return c.prefix; };
  std::stable_sort(claims.begin(), claims.end(),
                   [&](const Claim& a, const Claim& b) { return prefix_of(a) < prefix_of(b); });
  each_run(claims, prefix_of, [&](auto first, auto last) {
    if (std::all_of(first, last, [&](const Claim& c) { return c.area == first->area; })) return;
    for (auto c = first; c != last; ++c) {
      sink.report(*c->device, c->stanza, [&] {
        std::set<std::string> areas;
        for (auto o = first; o != last; ++o) areas.emplace(o->area);
        return std::string(c->prefix) + " claimed in area " + std::string(c->area) +
               " (network also uses " +
               join(std::vector<std::string>(areas.begin(), areas.end()), ", ") + ")";
      });
    }
  });
}

void mtu_mismatch(const NetworkView& net, LintSink& sink) {
  // Interfaces sharing a subnet form an inferred link; explicit MTU
  // values on them must agree (absent = platform default, unknown).
  const auto mtu_of = [&](const NetworkView::Subnet& e) -> const auto& {
    return net.devices()[e.device].facts(e.stanza).mtu;
  };
  const auto has_mtu = [&](const NetworkView::Subnet& e) { return mtu_of(e).has_value(); };
  const auto subnet_of = [](const NetworkView::Subnet& e) { return e.prefix; };
  each_run(net.subnets(), subnet_of, [&](auto first, auto last) {
    const auto set = std::find_if(first, last, has_mtu);
    const auto agrees = [&](const auto& e) { return !has_mtu(e) || mtu_of(e) == mtu_of(*set); };
    if (std::all_of(set, last, agrees)) return;
    for (auto e = set; e != last; ++e) {
      if (!has_mtu(*e)) continue;
      const DeviceView& dev = net.devices()[e->device];
      sink.report(dev, e->stanza, [&] {
        return dev.stanza(e->stanza).name + " mtu " + std::string(*mtu_of(*e)) + " on link " +
               format_prefix(e->prefix) + " (peers disagree)";
      });
    }
  });
}

void vlan_span_undefined(const NetworkView& net, LintSink& sink) {
  for (const DeviceView& dev : net.devices()) {
    each_of(dev, "interface", [&](std::size_t i, const StanzaFacts& f) {
      for (const VlanRef& vlan : f.vlans) {
        if (dev.defines("vlan", vlan.id)) continue;
        // The first device defining it; none is dangling-vlan-ref's case.
        const auto definers = net.definers_of(vlan.id);
        if (definers.empty()) continue;
        sink.report(dev, i, [&] {
          return f.stanza->name + " uses vlan " + std::string(vlan.id) + " defined on " +
                 net.devices()[definers.front().device].device_id() + " but not here";
        });
      }
    });
  }
}

/// The rules in run order.
constexpr LintRule kRules[] = {
    {{"dangling-acl-ref", "Interface attaches an ACL that is not defined on the device",
      LintCategory::kReferential, LintSeverity::kError},
     dangling_acl_ref},
    {{"dangling-vlan-ref", "VLAN membership or member interface without a definition",
      LintCategory::kReferential, LintSeverity::kError},
     dangling_vlan_ref},
    {{"dangling-pool-ref", "Virtual server names a pool that does not exist",
      LintCategory::kReferential, LintSeverity::kError},
     dangling_pool_ref},
    {{"dangling-lag-member", "Port-channel member interface is missing", LintCategory::kReferential,
      LintSeverity::kError},
     dangling_lag_member},
    {{"empty-acl", "ACL defined with no permit/deny terms", LintCategory::kFilter,
      LintSeverity::kWarning},
     empty_acl},
    {{"acl-shadowed-term", "ACL term duplicates an earlier term and never matches",
      LintCategory::kFilter, LintSeverity::kWarning},
     acl_shadowed_term},
    {{"acl-unreachable-term", "ACL term follows a catch-all term and is dead",
      LintCategory::kFilter, LintSeverity::kWarning},
     acl_unreachable_term},
    {{"unreferenced-acl", "ACL defined but attached to no interface", LintCategory::kHygiene,
      LintSeverity::kInfo},
     unreferenced_acl},
    {{"unreferenced-pool", "Pool defined but used by no virtual server", LintCategory::kHygiene,
      LintSeverity::kInfo},
     unreferenced_pool},
    {{"unreferenced-vlan", "VLAN defined with no member interface anywhere on the device",
      LintCategory::kHygiene, LintSeverity::kInfo},
     unreferenced_vlan},
    {{"unused-interface-up", "Interface carries no config but is not shut down",
      LintCategory::kHygiene, LintSeverity::kInfo},
     unused_interface_up},
    {{"duplicate-address", "Same IP address configured on two interfaces",
      LintCategory::kAddressing, LintSeverity::kError},
     nullptr,
     duplicate_address},
    {{"subnet-overlap", "Interface subnets overlap without being identical",
      LintCategory::kAddressing, LintSeverity::kWarning},
     nullptr,
     subnet_overlap},
    {{"one-sided-bgp-session", "BGP neighbor whose owner runs no BGP process",
      LintCategory::kProtocol, LintSeverity::kWarning},
     nullptr,
     one_sided_bgp_session},
    {{"bgp-as-mismatch", "BGP neighbor's configured remote-as disagrees with the peer",
      LintCategory::kProtocol, LintSeverity::kError},
     nullptr,
     bgp_as_mismatch},
    {{"ospf-area-mismatch", "Devices disagree on the OSPF area of a shared subnet",
      LintCategory::kProtocol, LintSeverity::kError},
     nullptr,
     ospf_area_mismatch},
    {{"mtu-mismatch", "Interfaces on an inferred link disagree on MTU", LintCategory::kProtocol,
      LintSeverity::kWarning},
     nullptr,
     mtu_mismatch},
    {{"vlan-span-undefined", "VLAN used here but defined only on other devices",
      LintCategory::kProtocol, LintSeverity::kWarning},
     nullptr,
     vlan_span_undefined},
};

}  // namespace

std::span<const LintRule> builtin_rules() {
  return kRules;
}

}  // namespace mpa
