// Cross-device facts on hand-built networks, in both dialects: which
// devices carry an address or a subnet, which devices define a VLAN,
// and which routing processes run where, as the network-scope lint
// rules, inter-device references, routing instances and the VLAN count
// read them. The pinned datasets hold no address carried twice, so
// these cases are what tell "the first owner" from "any other carrier".
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "config/lint.hpp"
#include "config/refs.hpp"
#include "config/routing.hpp"
#include "metrics/design_metrics.hpp"

namespace mpa {
namespace {

constexpr Dialect kBothDialects[] = {Dialect::kIosLike, Dialect::kJunosLike};

/// What a stanza of a case is, in terms both dialects spell.
enum class Kind { kIface, kVlan, kBgp, kOspf, kStp };

/// One stanza; the option keys "ip" and "access-vlan" take each
/// dialect's spelling, every other key is the same in both.
struct StanzaSpec {
  Kind kind;
  std::string name;
  std::vector<std::pair<std::string, std::string>> options;
};

struct DeviceSpec {
  std::string id;
  std::vector<StanzaSpec> stanzas;
};

struct NetworkCase {
  const char* what;
  std::vector<DeviceSpec> devices;
  /// "rule device: message" of each network-scope finding, in run order.
  std::vector<std::string> findings;
  std::vector<int> inter_refs;  ///< Per device.
  /// "protocol: member member ..." per instance, in instance order.
  std::vector<std::string> instances;
  int vlans;
};

DeviceConfig build(const DeviceSpec& spec, Dialect d) {
  const bool ios = d == Dialect::kIosLike;
  DeviceConfig c(spec.id);
  for (const StanzaSpec& s : spec.stanzas) {
    Stanza st;
    switch (s.kind) {
      case Kind::kIface: st.type = ios ? "interface" : "interfaces"; break;
      case Kind::kVlan: st.type = ios ? "vlan" : "vlans"; break;
      case Kind::kBgp: st.type = ios ? "router bgp" : "protocols-bgp"; break;
      case Kind::kOspf: st.type = ios ? "router ospf" : "protocols-ospf"; break;
      case Kind::kStp: st.type = ios ? "spanning-tree" : "protocols-mstp"; break;
    }
    st.name = s.name;
    for (const auto& [key, value] : s.options) {
      if (key == "ip")
        st.set(ios ? "ip address" : "ip-address", value);
      else if (key == "access-vlan")
        st.set(ios ? "switchport access vlan" : "vlan-members", value);
      else
        st.set(key, value);
    }
    c.add(std::move(st));
  }
  return c;
}

bool network_scope(std::string_view rule) {
  for (const std::string_view r :
       {"duplicate-address", "subnet-overlap", "one-sided-bgp-session", "bgp-as-mismatch",
        "ospf-area-mismatch", "mtu-mismatch", "vlan-span-undefined"})
    if (rule == r) return true;
  return false;
}

// The two readers that take the network's index.
std::vector<int> inter_refs_of(const std::vector<DeviceConfig>& configs) {
  const std::vector<DeviceView> views = views_of(configs);
  const NetworkView network(views);
  std::vector<int> out;
  for (std::size_t d = 0; d < views.size(); ++d) out.push_back(count_inter_refs(network, d));
  return out;
}

std::vector<RoutingInstance> instances_of(const std::vector<DeviceConfig>& configs) {
  const std::vector<DeviceView> views = views_of(configs);
  return extract_routing_instances(NetworkView(views));
}

DeviceSpec bgp_speaker(const std::string& id, const std::string& addr,
                       std::vector<std::pair<std::string, std::string>> bgp = {}) {
  return {id, {{Kind::kIface, "Eth0", {{"ip", addr}}}, {Kind::kBgp, "65001", std::move(bgp)}}};
}

DeviceSpec ospf_speaker(const std::string& id, const std::vector<std::string>& processes) {
  DeviceSpec spec{id, {}};
  for (std::size_t p = 0; p < processes.size(); ++p)
    spec.stanzas.push_back({Kind::kOspf, std::to_string(p + 1), {{"network", processes[p]}}});
  return spec;
}

DeviceSpec mstp_switch(const std::string& id,
                       std::vector<std::pair<std::string, std::string>> options) {
  return {id, {{Kind::kStp, "mst0", std::move(options)}}};
}

std::vector<NetworkCase> cases() {
  return {
      {"an address on x and y named by a neighbor on z",
       {bgp_speaker("x", "10.0.0.1/24"), bgp_speaker("y", "10.0.0.1/24"),
        bgp_speaker("z", "10.0.1.1/24", {{"neighbor", "10.0.0.1 remote-as 65001"}})},
       {"duplicate-address y: 10.0.0.1 also on x/Eth0"},
       {0, 0, 1},
       {"bgp: x y z"},
       0},
      {"a neighbor and a network statement naming what its own device and a peer carry",
       {bgp_speaker("p", "10.0.0.1/24",
                    {{"neighbor", "10.0.0.1 remote-as 65001"}, {"network", "10.0.0.0/24"}}),
        bgp_speaker("q", "10.0.0.1/24")},
       {"duplicate-address q: 10.0.0.1 also on p/Eth0"},
       {2, 0},
       {"bgp: p q"},
       0},
      {"a vlan defined on a and b and used on c",
       {{"a", {{Kind::kVlan, "100", {}}}},
        {"b", {{Kind::kVlan, "100", {}}}},
        {"c", {{Kind::kIface, "Eth0", {{"access-vlan", "100"}}}}}},
       {"vlan-span-undefined c: Eth0 uses vlan 100 defined on a but not here"},
       {1, 1, 0},
       {},
       1},
      {"two ospf processes on one device sharing a subnet",
       {ospf_speaker("d", {"10.5.0.0/24 area 0", "10.5.0.0/24 area 0"})},
       {},
       {0},
       {"ospf: d", "ospf: d"},
       0},
      {"the same two processes and a peer claiming the subnet",
       {ospf_speaker("d", {"10.5.0.0/24 area 0", "10.5.0.0/24 area 0"}),
        ospf_speaker("e", {"10.5.0.9/24 area 0"})},
       {},
       {0, 0},
       {"ospf: d d e"},
       0},
      {"mstp without a region option groups by stanza name",
       {mstp_switch("s1", {}), mstp_switch("s2", {})},
       {},
       {0, 0},
       {"mstp: s1 s2"},
       0},
      {"mstp with an empty region stays apart",
       {mstp_switch("s1", {{"region", ""}}), mstp_switch("s2", {{"region", ""}})},
       {},
       {0, 0},
       {"mstp: s1", "mstp: s2"},
       0},
  };
}

TEST(NetworkView, CrossDeviceFactsOnHandBuiltNetworks) {
  for (const NetworkCase& c : cases()) {
    for (const Dialect d : kBothDialects) {
      SCOPED_TRACE(std::string(c.what) +
                   (d == Dialect::kIosLike ? " (IOS-like)" : " (JunOS-like)"));
      // Through the text: render, then parse back, as inference reads it.
      std::vector<DeviceConfig> configs;
      std::vector<DeviceText> texts;
      for (const DeviceSpec& spec : c.devices) {
        const std::string text = render(build(spec, d), d);
        configs.push_back(parse(text, d, spec.id));
        texts.push_back(DeviceText{spec.id, text, d});
      }

      std::vector<std::string> findings;
      for (const Diagnostic& diag : lint_network_text(texts))
        if (network_scope(diag.rule_id))
          findings.push_back(diag.rule_id + " " + diag.device_id + ": " + diag.message);
      EXPECT_EQ(findings, c.findings);

      EXPECT_EQ(inter_refs_of(configs), c.inter_refs);

      std::vector<std::string> instances;
      for (const RoutingInstance& inst : instances_of(configs)) {
        std::string line = inst.protocol + ":";
        for (const std::string& member : inst.member_devices) line += " " + member;
        instances.push_back(line);
      }
      EXPECT_EQ(instances, c.instances);

      // The case-table terms over the same configs.
      Case row;
      compute_design_metrics(NetworkRecord{}, {}, configs, row);
      EXPECT_EQ(row[Practice::kNumVlans], c.vlans);
      double inter = 0;
      for (const int refs : c.inter_refs) inter += refs;
      EXPECT_DOUBLE_EQ(row[Practice::kInterDeviceComplexity],
                       inter / static_cast<double>(c.devices.size()));
      const InstanceStats bgp = instance_stats(instances_of(configs), "bgp");
      const InstanceStats ospf = instance_stats(instances_of(configs), "ospf");
      EXPECT_EQ(row[Practice::kNumBgpInstances], bgp.count);
      EXPECT_EQ(row[Practice::kAvgBgpInstanceSize], bgp.mean_size);
      EXPECT_EQ(row[Practice::kNumOspfInstances], ospf.count);
      EXPECT_EQ(row[Practice::kAvgOspfInstanceSize], ospf.mean_size);
    }
  }
}

}  // namespace
}  // namespace mpa
