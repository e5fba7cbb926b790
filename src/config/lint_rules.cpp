// The built-in lint rules. Each rule is a small LintRule subclass
// listed in builtin_rules(); the engine (lint.cpp) drives them and
// handles suppression and spans.
//
// Rules read stanza types, names and interface addresses from each
// device's DeviceView (config/device_view.hpp); network-scope rules add
// the address-owner and BGP lookups of NetworkView. Rules report against
// the vendor-agnostic model, so each fires identically on IOS-like and
// JunOS-like configs.
#include <map>
#include <set>
#include <string>
#include <vector>

#include "config/lint.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

/// ACL names attached by an interface stanza (via "ip access-group" /
/// "filter"), in option order.
std::vector<std::string> attached_acls(const Stanza& iface) {
  std::vector<std::string> out;
  for (const auto& o : iface.options) {
    if (o.key != "ip access-group" && o.key != "filter") continue;
    const auto tokens = split_ws(o.value);
    if (!tokens.empty()) out.push_back(tokens[0]);
  }
  return out;
}

/// VLAN ids referenced (not defined) by a stanza: access membership
/// ("switchport access vlan" / "vlan-members"), and per-VLAN
/// spanning-tree tuning on interfaces.
std::vector<std::string> referenced_vlans(const Stanza& s) {
  std::vector<std::string> out;
  for (const auto& o : s.options)
    if (o.key == "switchport access vlan" || o.key == "spanning-tree vlan" ||
        o.key == "vlan-members") {
      out.push_back(o.value);
    }
  return out;
}

bool is_acl_term(const Option& o) { return o.key == "permit" || o.key == "deny"; }

/// A term value that matches all traffic, making later terms dead.
bool is_catch_all(std::string_view value) {
  return value == "any" || value == "ip any any" || value == "any any";
}

// ------------------------------------------------------------ referential

class DanglingAclRefRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"dangling-acl-ref", "Interface attaches an ACL that is not defined on the device",
            LintCategory::kReferential, LintSeverity::kError};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const auto& s : dev.stanzas()) {
      if (dev.type_of(s) != "interface") continue;
      for (const auto& acl : attached_acls(s))
        if (!dev.defines("acl", acl))
          sink.report(dev, &s, [&] { return s.name + " -> acl '" + acl + "'"; });
    }
  }
};

class DanglingVlanRefRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"dangling-vlan-ref", "VLAN membership or member interface without a definition",
            LintCategory::kReferential, LintSeverity::kError};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const auto& s : dev.stanzas()) {
      const std::string_view agnostic = dev.type_of(s);
      if (agnostic == "interface") {
        for (const auto& vlan : referenced_vlans(s))
          if (!dev.defines("vlan", vlan))
            sink.report(dev, &s, [&] { return s.name + " -> vlan '" + vlan + "'"; });
      } else if (agnostic == "vlan") {
        for (const auto& name : s.get_all("interface"))
          if (!dev.defines("interface", name))
            sink.report(dev, &s,
                      [&] { return "vlan " + s.name + " -> interface '" + name + "'"; });
      }
    }
  }
};

class DanglingPoolRefRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"dangling-pool-ref", "Virtual server names a pool that does not exist",
            LintCategory::kReferential, LintSeverity::kError};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const auto& s : dev.stanzas()) {
      if (dev.type_of(s) != "virtual-server") continue;
      for (const auto& name : s.get_all("pool"))
        if (!dev.defines("pool", name))
          sink.report(dev, &s, [&] { return s.name + " -> pool '" + name + "'"; });
    }
  }
};

class DanglingLagMemberRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"dangling-lag-member", "Port-channel member interface is missing",
            LintCategory::kReferential, LintSeverity::kError};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const auto& s : dev.stanzas()) {
      if (dev.type_of(s) != "link-aggregation") continue;
      for (const auto& name : s.get_all("member"))
        if (!dev.defines("interface", name))
          sink.report(dev, &s, [&] { return s.name + " -> interface '" + name + "'"; });
    }
  }
};

// ----------------------------------------------------------------- filter

class EmptyAclRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"empty-acl", "ACL defined with no permit/deny terms", LintCategory::kFilter,
            LintSeverity::kWarning};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const auto& s : dev.stanzas()) {
      if (dev.type_of(s) != "acl") continue;
      bool has_term = false;
      for (const auto& o : s.options)
        if (is_acl_term(o)) has_term = true;
      if (!has_term) sink.report(dev, &s, [&] { return "acl '" + s.name + "' has no terms"; });
    }
  }
};

class ShadowedAclTermRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"acl-shadowed-term", "ACL term duplicates an earlier term and never matches",
            LintCategory::kFilter, LintSeverity::kWarning};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const auto& s : dev.stanzas()) {
      if (dev.type_of(s) != "acl") continue;
      std::set<std::pair<std::string, std::string>> seen;
      bool catch_all = false;
      for (const auto& o : s.options) {
        if (!is_acl_term(o)) continue;
        // Terms after a catch-all belong to acl-unreachable-term.
        if (!catch_all && !seen.insert({o.key, o.value}).second) {
          sink.report(dev, &s, [&] {
            return "acl '" + s.name + "': duplicate term '" + o.key + " " + o.value + "'";
          });
        }
        if (is_catch_all(o.value)) catch_all = true;
      }
    }
  }
};

class UnreachableAclTermRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"acl-unreachable-term", "ACL term follows a catch-all term and is dead",
            LintCategory::kFilter, LintSeverity::kWarning};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const auto& s : dev.stanzas()) {
      if (dev.type_of(s) != "acl") continue;
      bool catch_all = false;
      for (const auto& o : s.options) {
        if (!is_acl_term(o)) continue;
        if (catch_all) {
          sink.report(dev, &s, [&] {
            return "acl '" + s.name + "': term '" + o.key + " " + o.value +
                   "' is unreachable after a catch-all";
          });
        }
        if (is_catch_all(o.value)) catch_all = true;
      }
    }
  }
};

// ---------------------------------------------------------------- hygiene

class UnreferencedAclRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"unreferenced-acl", "ACL defined but attached to no interface",
            LintCategory::kHygiene, LintSeverity::kInfo};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    std::set<std::string> used;
    for (const auto& s : dev.stanzas())
      if (dev.type_of(s) == "interface")
        for (auto& acl : attached_acls(s)) used.insert(std::move(acl));
    for (const auto& s : dev.stanzas())
      if (dev.type_of(s) == "acl" && used.count(s.name) == 0)
        sink.report(dev, &s, [&] { return "acl '" + s.name + "' is never attached"; });
  }
};

class UnreferencedPoolRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"unreferenced-pool", "Pool defined but used by no virtual server",
            LintCategory::kHygiene, LintSeverity::kInfo};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    std::set<std::string> used;
    for (const auto& s : dev.stanzas())
      if (dev.type_of(s) == "virtual-server")
        for (auto& p : s.get_all("pool")) used.insert(std::move(p));
    for (const auto& s : dev.stanzas())
      if (dev.type_of(s) == "pool" && used.count(s.name) == 0)
        sink.report(dev, &s, [&] { return "pool '" + s.name + "' is never used"; });
  }
};

class UnreferencedVlanRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"unreferenced-vlan", "VLAN defined with no member interface anywhere on the device",
            LintCategory::kHygiene, LintSeverity::kInfo};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    std::set<std::string> used;
    for (const auto& s : dev.stanzas())
      if (dev.type_of(s) == "interface")
        for (auto& v : referenced_vlans(s)) used.insert(std::move(v));
    for (const auto& s : dev.stanzas()) {
      if (dev.type_of(s) != "vlan") continue;
      if (used.count(s.name) > 0) continue;
      if (!s.get_all("interface").empty()) continue;  // members listed inline
      sink.report(dev, &s, [&] { return "vlan " + s.name + " has no members"; });
    }
  }
};

class UnusedInterfaceUpRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"unused-interface-up", "Interface carries no config but is not shut down",
            LintCategory::kHygiene, LintSeverity::kInfo};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    // Interfaces referenced by VLAN member lists or LAGs are in use.
    std::set<std::string> referenced;
    for (const auto& s : dev.stanzas()) {
      const std::string_view agnostic = dev.type_of(s);
      if (agnostic == "vlan")
        for (auto& n : s.get_all("interface")) referenced.insert(std::move(n));
      if (agnostic == "link-aggregation")
        for (auto& n : s.get_all("member")) referenced.insert(std::move(n));
    }
    for (const auto& s : dev.stanzas()) {
      if (dev.type_of(s) != "interface") continue;
      if (referenced.count(s.name) > 0) continue;
      bool in_use = false;
      bool shut = false;
      for (const auto& o : s.options) {
        if (o.key == "ip address" || o.key == "ip-address" || o.key == "ip access-group" ||
            o.key == "filter" || o.key == "switchport access vlan" || o.key == "vlan-members") {
          in_use = true;
        }
        if (o.key == "shutdown" || o.key == "disable") shut = true;
      }
      if (!in_use && !shut)
        sink.report(dev, &s, [&] { return s.name + " carries no config; add 'shutdown'"; });
    }
  }
};

// ------------------------------------------------------------- addressing

class DuplicateAddressRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"duplicate-address", "Same IP address configured on two interfaces",
            LintCategory::kAddressing, LintSeverity::kError};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    // ip -> the first device and interface stanza configuring it
    std::map<std::uint32_t, std::pair<const DeviceView*, const Stanza*>> owners;
    for (const DeviceView& dev : net.devices()) {
      for (const auto& ia : dev.iface_addrs()) {
        const auto [it, inserted] = owners.emplace(ia.prefix.addr, std::make_pair(&dev, ia.stanza));
        if (inserted) continue;
        const DeviceView* owner = it->second.first;
        const Stanza* iface = it->second.second;
        sink.report(dev, ia.stanza, [&] {
          return format_ipv4(ia.prefix.addr) + " also on " + owner->device_id() + "/" + iface->name;
        });
      }
    }
  }
};

class SubnetOverlapRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"subnet-overlap", "Interface subnets overlap without being identical",
            LintCategory::kAddressing, LintSeverity::kWarning};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    // Distinct subnets, keeping the first interface seen on each.
    std::map<Ipv4Prefix, std::pair<const DeviceView*, const Stanza*>> subnets;
    for (const DeviceView& dev : net.devices())
      for (const auto& ia : dev.iface_addrs())
        subnets.emplace(ia.prefix.subnet(), std::make_pair(&dev, ia.stanza));
    for (auto a = subnets.begin(); a != subnets.end(); ++a) {
      for (auto b = std::next(a); b != subnets.end(); ++b) {
        const Ipv4Prefix& pa = a->first;
        const Ipv4Prefix& pb = b->first;
        if (pa.len == pb.len) continue;  // identical handled above; equal-len disjoint or same
        const Ipv4Prefix& wide = pa.len < pb.len ? pa : pb;
        const Ipv4Prefix& narrow = pa.len < pb.len ? pb : pa;
        if (!wide.contains(narrow.network())) continue;
        const auto [dev, stanza] = narrow == pa ? a->second : b->second;
        sink.report(*dev, stanza,
                    [&] { return format_prefix(narrow) + " overlaps " + format_prefix(wide); });
      }
    }
  }
};

// --------------------------------------------------------------- protocol

class OneSidedBgpRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"one-sided-bgp-session", "BGP neighbor whose owner runs no BGP process",
            LintCategory::kProtocol, LintSeverity::kWarning};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    for (const auto& proc : net.bgp_procs()) {
      const DeviceView& dev = net.devices()[proc.device];
      for (const auto& v : proc.stanza->get_all("neighbor")) {
        const auto tokens = split_ws(v);
        if (tokens.empty()) continue;
        const auto ip = parse_ipv4(tokens[0]);
        if (!ip) continue;
        const std::size_t owner = net.owner_of(*ip);
        if (owner == NetworkView::npos || net.runs_bgp(owner)) continue;
        sink.report(dev, proc.stanza, [&] {
          return "neighbor " + tokens[0] + " (" + net.devices()[owner].device_id() +
                 " runs no BGP process)";
        });
      }
    }
  }
};

class BgpAsMismatchRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"bgp-as-mismatch", "BGP neighbor's configured remote-as disagrees with the peer",
            LintCategory::kProtocol, LintSeverity::kError};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    // AS number of each BGP-speaking device: the process stanza's name.
    std::map<std::size_t, std::string> as_of;
    for (const auto& proc : net.bgp_procs()) as_of.emplace(proc.device, proc.stanza->name);
    for (const auto& proc : net.bgp_procs()) {
      const DeviceView& dev = net.devices()[proc.device];
      for (const auto& v : proc.stanza->get_all("neighbor")) {
        const auto tokens = split_ws(v);
        // "neighbor <ip> remote-as <asn>"
        if (tokens.size() < 3 || tokens[1] != "remote-as") continue;
        const auto ip = parse_ipv4(tokens[0]);
        if (!ip) continue;
        const std::size_t owner = net.owner_of(*ip);
        if (owner == NetworkView::npos) continue;
        const auto peer_as = as_of.find(owner);
        if (peer_as == as_of.end() || peer_as->second == tokens[2]) continue;
        sink.report(dev, proc.stanza, [&] {
          return "neighbor " + tokens[0] + " remote-as " + tokens[2] + " but " +
                 net.devices()[owner].device_id() + " runs AS " + peer_as->second;
        });
      }
    }
  }
};

class OspfAreaMismatchRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"ospf-area-mismatch", "Devices disagree on the OSPF area of a shared subnet",
            LintCategory::kProtocol, LintSeverity::kError};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    struct Claim {
      std::size_t device;
      const Stanza* stanza;
      std::string area;
    };
    std::map<std::string, std::vector<Claim>> by_prefix;
    for (std::size_t d = 0; d < net.devices().size(); ++d) {
      const DeviceView& dev = net.devices()[d];
      for (const auto& s : dev.stanzas()) {
        if (dev.construct_of(s) != "ospf") continue;
        for (const auto& v : s.get_all("network")) {
          // "network <prefix> area <id>"
          const auto tokens = split_ws(v);
          if (tokens.size() < 3 || tokens[1] != "area") continue;
          by_prefix[tokens[0]].push_back(Claim{d, &s, tokens[2]});
        }
      }
    }
    for (const auto& entry : by_prefix) {
      const std::string& prefix = entry.first;
      std::set<std::string> areas;
      for (const auto& c : entry.second) areas.insert(c.area);
      if (areas.size() <= 1) continue;
      for (const auto& c : entry.second) {
        sink.report(net.devices()[c.device], c.stanza, [&] {
          return prefix + " claimed in area " + c.area + " (network also uses " +
                 join(std::vector<std::string>(areas.begin(), areas.end()), ", ") + ")";
        });
      }
    }
  }
};

class MtuMismatchRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"mtu-mismatch", "Interfaces on an inferred link disagree on MTU",
            LintCategory::kProtocol, LintSeverity::kWarning};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    // Interfaces sharing a subnet form an inferred link; explicit MTU
    // values on them must agree (absent = platform default, unknown).
    struct End {
      const DeviceView* device;
      const Stanza* stanza;
      std::string mtu;
    };
    std::map<Ipv4Prefix, std::vector<End>> links;
    for (const DeviceView& dev : net.devices()) {
      for (const auto& ia : dev.iface_addrs()) {
        const auto mtu = ia.stanza->get("mtu");
        if (!mtu) continue;
        links[ia.prefix.subnet()].push_back(End{&dev, ia.stanza, *mtu});
      }
    }
    for (const auto& link : links) {
      const Ipv4Prefix& subnet = link.first;
      const std::vector<End>& ends = link.second;
      const std::string& first = ends.front().mtu;
      bool mismatch = false;
      for (const auto& e : ends)
        if (e.mtu != first) mismatch = true;
      if (!mismatch) continue;
      for (const auto& e : ends) {
        sink.report(*e.device, e.stanza, [&] {
          return e.stanza->name + " mtu " + e.mtu + " on link " + format_prefix(subnet) +
                 " (peers disagree)";
        });
      }
    }
  }
};

class VlanSpanGapRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"vlan-span-undefined", "VLAN used here but defined only on other devices",
            LintCategory::kProtocol, LintSeverity::kWarning};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    // Where each VLAN id is defined, network-wide.
    std::map<std::string, std::vector<std::size_t>> defined_on;
    for (std::size_t d = 0; d < net.devices().size(); ++d)
      for (const auto& name : net.devices()[d].names_of("vlan"))
        defined_on[name].push_back(d);
    for (std::size_t d = 0; d < net.devices().size(); ++d) {
      const DeviceView& dev = net.devices()[d];
      for (const auto& s : dev.stanzas()) {
        if (dev.type_of(s) != "interface") continue;
        for (const auto& vlan : referenced_vlans(s)) {
          if (dev.defines("vlan", vlan)) continue;
          const auto it = defined_on.find(vlan);
          if (it == defined_on.end() || it->second.empty()) continue;  // dangling-vlan-ref's case
          sink.report(dev, &s, [&] {
            return s.name + " uses vlan " + vlan + " defined on " +
                   net.devices()[it->second.front()].device_id() + " but not here";
          });
        }
      }
    }
  }
};

}  // namespace

const std::vector<std::unique_ptr<LintRule>>& builtin_rules() {
  static const std::vector<std::unique_ptr<LintRule>> rules = [] {
    std::vector<std::unique_ptr<LintRule>> r;
    r.push_back(std::make_unique<DanglingAclRefRule>());
    r.push_back(std::make_unique<DanglingVlanRefRule>());
    r.push_back(std::make_unique<DanglingPoolRefRule>());
    r.push_back(std::make_unique<DanglingLagMemberRule>());
    r.push_back(std::make_unique<EmptyAclRule>());
    r.push_back(std::make_unique<ShadowedAclTermRule>());
    r.push_back(std::make_unique<UnreachableAclTermRule>());
    r.push_back(std::make_unique<UnreferencedAclRule>());
    r.push_back(std::make_unique<UnreferencedPoolRule>());
    r.push_back(std::make_unique<UnreferencedVlanRule>());
    r.push_back(std::make_unique<UnusedInterfaceUpRule>());
    r.push_back(std::make_unique<DuplicateAddressRule>());
    r.push_back(std::make_unique<SubnetOverlapRule>());
    r.push_back(std::make_unique<OneSidedBgpRule>());
    r.push_back(std::make_unique<BgpAsMismatchRule>());
    r.push_back(std::make_unique<OspfAreaMismatchRule>());
    r.push_back(std::make_unique<MtuMismatchRule>());
    r.push_back(std::make_unique<VlanSpanGapRule>());
    return r;
  }();
  return rules;
}

}  // namespace mpa
