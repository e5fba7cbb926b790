#include "simulation/config_gen.hpp"

#include <algorithm>

#include "config/addr.hpp"
#include "util/error.hpp"

namespace mpa {

std::string DialectVocab::interface_type() const {
  return dialect == Dialect::kIosLike ? "interface" : "interfaces";
}
std::string DialectVocab::vlan_type() const {
  return dialect == Dialect::kIosLike ? "vlan" : "vlans";
}
std::string DialectVocab::acl_type() const {
  return dialect == Dialect::kIosLike ? "ip access-list" : "firewall-filter";
}
std::string DialectVocab::bgp_type() const {
  return dialect == Dialect::kIosLike ? "router bgp" : "protocols-bgp";
}
std::string DialectVocab::ospf_type() const {
  return dialect == Dialect::kIosLike ? "router ospf" : "protocols-ospf";
}
std::string DialectVocab::mstp_type() const {
  return dialect == Dialect::kIosLike ? "spanning-tree" : "protocols-mstp";
}
std::string DialectVocab::lag_type() const {
  return dialect == Dialect::kIosLike ? "port-channel" : "lag";
}
std::string DialectVocab::user_type() const {
  return dialect == Dialect::kIosLike ? "username" : "login-user";
}
std::string DialectVocab::snmp_type() const {
  return dialect == Dialect::kIosLike ? "snmp-server" : "snmp";
}
std::string DialectVocab::qos_type() const {
  return dialect == Dialect::kIosLike ? "qos policy" : "class-of-service";
}
std::string DialectVocab::ip_address_key() const {
  return dialect == Dialect::kIosLike ? "ip address" : "ip-address";
}
std::string DialectVocab::acl_attach_key() const {
  return dialect == Dialect::kIosLike ? "ip access-group" : "filter";
}
std::string DialectVocab::iface_name(int k) const {
  return dialect == Dialect::kIosLike ? "Eth" + std::to_string(k)
                                      : "xe-0/0/" + std::to_string(k);
}

DialectVocab vocab_for(Vendor v) {
  return DialectVocab{dialect_of(v)};
}

DeviceConfig& GeneratedNetwork::config(const std::string& device_id) {
  const auto it = configs.find(device_id);
  require(it != configs.end(), "GeneratedNetwork::config: unknown device " + device_id);
  return it->second;
}

namespace {

/// Per-network subnet allocator: 10.0.k.0/24, k from a local counter.
/// Address overlap across networks is fine — all reference and
/// adjacency analysis is per network.
class SubnetAllocator {
 public:
  Ipv4Prefix next() {
    const std::uint32_t base = (10u << 24) | (counter_ << 8);
    ++counter_;
    return Ipv4Prefix{base, 24};
  }

 private:
  std::uint32_t counter_ = 0;
};

struct DeviceState {
  const DeviceRecord* record = nullptr;
  DialectVocab vocab;
  int next_iface = 0;
};

// Add an interface on `subnet` with host part `host`; returns its name.
std::string add_link_interface(DeviceConfig& cfg, DeviceState& st, const Ipv4Prefix& subnet,
                               std::uint32_t host) {
  Stanza s;
  s.type = st.vocab.interface_type();
  s.name = st.vocab.iface_name(st.next_iface++);
  s.set(st.vocab.ip_address_key(), format_ipv4(subnet.network() + host) + "/24");
  s.set("description", "link");
  cfg.add(std::move(s));
  return cfg.stanzas().back().name;
}

}  // namespace

GeneratedNetwork generate_configs(NetworkDesign design, Rng& rng) {
  GeneratedNetwork gen;
  SubnetAllocator subnets;

  std::map<std::string, DeviceState> states;
  for (const auto& dev : design.devices) {
    gen.configs.emplace(dev.device_id, DeviceConfig(dev.device_id));
    gen.vendor_of.emplace(dev.device_id, dev.vendor);
    states.emplace(dev.device_id, DeviceState{&dev, vocab_for(dev.vendor), 0});
  }

  const auto routers = design.devices_with_role(Role::kRouter);
  const auto switches = design.devices_with_role(Role::kSwitch);

  // --- Physical links ----------------------------------------------------
  // Routers form a chain; every other device uplinks to a router (or to
  // the first switch when the network has no routers).
  struct LinkAddr {
    std::string iface;
    Ipv4Prefix subnet;
  };
  std::map<std::string, std::vector<LinkAddr>> link_addrs;

  auto connect = [&](const std::string& a, const std::string& b) {
    const Ipv4Prefix sn = subnets.next();
    auto& sa = states.at(a);
    auto& sb = states.at(b);
    const std::string ia = add_link_interface(gen.config(a), sa, sn, 1);
    const std::string ib = add_link_interface(gen.config(b), sb, sn, 2);
    link_addrs[a].push_back(LinkAddr{ia, Ipv4Prefix{sn.network() + 1, 24}});
    link_addrs[b].push_back(LinkAddr{ib, Ipv4Prefix{sn.network() + 2, 24}});
  };

  for (std::size_t i = 1; i < routers.size(); ++i) connect(routers[i - 1], routers[i]);
  for (const auto& dev : design.devices) {
    if (dev.role == Role::kRouter) continue;
    if (!routers.empty()) {
      connect(dev.device_id,
              routers[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(routers.size()) - 1))]);
    } else if (dev.device_id != design.devices.front().device_id) {
      connect(dev.device_id, design.devices.front().device_id);
    }
  }

  // --- Host-facing access ports ------------------------------------------
  // Real switches carry dozens of access ports unrelated to the
  // inter-device topology; port counts vary by hardware, not network
  // size, which keeps interface-derived metrics from mechanically
  // tracking device count.
  for (const auto& dev : design.devices) {
    const int ports = static_cast<int>(rng.uniform_int(2, dev.role == Role::kSwitch ? 12 : 4));
    auto& st = states.at(dev.device_id);
    auto& cfg = gen.config(dev.device_id);
    for (int p = 0; p < ports; ++p) {
      Stanza s;
      s.type = st.vocab.interface_type();
      s.name = st.vocab.iface_name(st.next_iface++);
      s.set("description", "host-port");
      cfg.add(std::move(s));
    }
  }

  // --- VLANs ---------------------------------------------------------------
  // Each VLAN is defined on 1..6 switches (definitions on 2+ devices are
  // inter-device references); on IOS-like switches one interface also
  // takes membership (intra-device reference); on JunOS-like switches
  // the vlans stanza lists the member interface. This asymmetry is the
  // paper's vendor-typification caveat, on purpose.
  const auto& vlan_hosts = switches.empty() ? design.net.device_ids : switches;
  for (int v = 0; v < design.num_vlans; ++v) {
    const std::string vlan_id = std::to_string(100 + v);
    const int spread = static_cast<int>(rng.uniform_int(
        1, std::min<std::int64_t>(6, static_cast<std::int64_t>(vlan_hosts.size()))));
    const auto chosen = rng.sample_indices(vlan_hosts.size(), static_cast<std::size_t>(spread));
    for (std::size_t idx : chosen) {
      const std::string& dev_id = vlan_hosts[idx];
      auto& st = states.at(dev_id);
      auto& cfg = gen.config(dev_id);
      if (cfg.find(st.vocab.vlan_type(), vlan_id) != nullptr) continue;
      Stanza s;
      s.type = st.vocab.vlan_type();
      s.name = vlan_id;
      s.set("l2", "enabled");
      const auto& links = link_addrs[dev_id];
      if (st.vocab.dialect == Dialect::kJunosLike && !links.empty()) {
        s.set("interface", links[0].iface);  // membership lives in the vlan
      }
      cfg.add(std::move(s));
      if (st.vocab.dialect == Dialect::kIosLike && !links.empty()) {
        if (auto* iface = gen.config(dev_id).find(st.vocab.interface_type(), links[0].iface))
          iface->replace("switchport access vlan", vlan_id);
      }
    }
  }

  // --- ACLs on routers and firewalls --------------------------------------
  for (const auto& dev : design.devices) {
    if (dev.role != Role::kRouter && dev.role != Role::kFirewall) continue;
    auto& st = states.at(dev.device_id);
    auto& cfg = gen.config(dev.device_id);
    for (int k = 0; k < design.acls_per_firewall; ++k) {
      Stanza acl;
      acl.type = st.vocab.acl_type();
      acl.name = "acl-" + std::to_string(k);
      const int terms = static_cast<int>(rng.uniform_int(2, 5));
      for (int t = 0; t < terms; ++t) {
        acl.set(rng.bernoulli(0.8) ? "permit" : "deny",
                "tcp any any eq " + std::to_string(rng.uniform_int(20, 9000)));
      }
      cfg.add(std::move(acl));
    }
    // Attach the first ACL to the first interface (intra-device ref).
    const auto& links = link_addrs[dev.device_id];
    if (!links.empty() && design.acls_per_firewall > 0) {
      if (auto* iface = cfg.find(st.vocab.interface_type(), links[0].iface))
        iface->replace(st.vocab.acl_attach_key(), "acl-0");
    }
  }

  // --- BGP instances -------------------------------------------------------
  // Partition routers round-robin over the designed instance count.
  // Within a group, consecutive members peer (neighbor -> peer's real
  // interface address, so extraction recovers exactly one instance per
  // group); singleton groups peer with an external address.
  if (design.use_bgp && !routers.empty()) {
    const int groups = std::min<int>(design.bgp_instances, static_cast<int>(routers.size()));
    std::vector<std::vector<std::string>> members(static_cast<std::size_t>(groups));
    for (std::size_t i = 0; i < routers.size(); ++i)
      members[i % static_cast<std::size_t>(groups)].push_back(routers[i]);
    for (std::size_t g = 0; g < members.size(); ++g) {
      const int asn = 65000 + static_cast<int>(g);
      for (std::size_t m = 0; m < members[g].size(); ++m) {
        const std::string& dev_id = members[g][m];
        auto& st = states.at(dev_id);
        Stanza bgp;
        bgp.type = st.vocab.bgp_type();
        bgp.name = std::to_string(asn);
        if (members[g].size() == 1) {
          bgp.set("neighbor", "192.0.2." + std::to_string(10 + g) + " remote-as " +
                                  std::to_string(64000 + static_cast<int>(g)));
        } else {
          const std::string& peer = members[g][(m + 1) % members[g].size()];
          const auto& peer_links = link_addrs[peer];
          if (!peer_links.empty()) {
            bgp.set("neighbor",
                    format_ipv4(peer_links[0].subnet.addr) + " remote-as " + std::to_string(asn));
          }
        }
        for (const auto& la : link_addrs[dev_id])
          bgp.set("network", format_prefix(la.subnet.subnet()));
        gen.config(dev_id).add(std::move(bgp));
      }
    }
  }

  // --- OSPF instances ------------------------------------------------------
  // Each instance gets its own "area subnet"; every member holds an
  // interface on it and advertises it, so shared-subnet adjacency
  // recovers exactly one instance per group.
  if (design.use_ospf && !routers.empty()) {
    const int groups = std::min<int>(design.ospf_instances, static_cast<int>(routers.size()));
    std::vector<std::vector<std::string>> members(static_cast<std::size_t>(groups));
    for (std::size_t i = 0; i < routers.size(); ++i)
      members[i % static_cast<std::size_t>(groups)].push_back(routers[i]);
    for (std::size_t g = 0; g < members.size(); ++g) {
      const Ipv4Prefix area_subnet = subnets.next();
      std::uint32_t host = 1;
      for (const auto& dev_id : members[g]) {
        auto& st = states.at(dev_id);
        add_link_interface(gen.config(dev_id), st, area_subnet, host++);
        Stanza ospf;
        ospf.type = st.vocab.ospf_type();
        ospf.name = std::to_string(g + 1);
        ospf.set("network", format_prefix(area_subnet) + " area " + std::to_string(g));
        gen.config(dev_id).add(std::move(ospf));
      }
    }
  }

  // --- MSTP, LAG, UDLD, DHCP relay ------------------------------------------
  if (design.use_mstp) {
    const std::string region = "region-" + design.net.network_id;
    for (const auto& dev_id : (switches.empty() ? design.net.device_ids : switches)) {
      auto& st = states.at(dev_id);
      Stanza stp;
      stp.type = st.vocab.mstp_type();
      stp.name = "mst0";
      stp.set("region", region);
      gen.config(dev_id).add(std::move(stp));
    }
  }
  if (design.use_lag) {
    for (const auto& dev_id : switches) {
      if (!rng.bernoulli(0.5)) continue;
      auto& st = states.at(dev_id);
      const auto& links = link_addrs[dev_id];
      if (links.empty()) continue;
      Stanza lag;
      lag.type = st.vocab.lag_type();
      lag.name = "ae0";
      lag.set("member", links[0].iface);
      gen.config(dev_id).add(std::move(lag));
    }
  }
  if (design.use_udld) {
    for (const auto& dev_id : switches) {
      if (!rng.bernoulli(0.6)) continue;
      Stanza udld;
      udld.type = "udld";
      udld.name = "global";
      udld.set("enable", "");
      gen.config(dev_id).add(std::move(udld));
    }
  }
  if (design.use_dhcp_relay) {
    for (const auto& dev_id : (routers.empty() ? switches : routers)) {
      auto& st = states.at(dev_id);
      Stanza relay;
      relay.type = st.vocab.dialect == Dialect::kIosLike ? "ip dhcp-relay" : "dhcp-relay";
      relay.name = "global";
      relay.set("server", "10.250.0.5");
      gen.config(dev_id).add(std::move(relay));
    }
  }

  // --- Middlebox pools -------------------------------------------------------
  for (const auto& dev : design.devices) {
    if (dev.role != Role::kLoadBalancer && dev.role != Role::kAdc) continue;
    auto& cfg = gen.config(dev.device_id);
    const int pools = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < pools; ++k) {
      Stanza pool;
      pool.type = "pool";
      pool.name = "pool-" + std::to_string(k);
      const int members = static_cast<int>(rng.uniform_int(2, 6));
      for (int mbr = 0; mbr < members; ++mbr)
        pool.set("member", "10.200." + std::to_string(k) + "." + std::to_string(10 + mbr) + ":80");
      cfg.add(std::move(pool));
      Stanza vs;
      vs.type = "virtual-server";
      vs.name = "vs-" + std::to_string(k);
      vs.set("pool", "pool-" + std::to_string(k));
      vs.set("listen", "0.0.0.0:443");
      cfg.add(std::move(vs));
    }
  }

  // --- Management-plane plumbing ---------------------------------------------
  for (const auto& dev : design.devices) {
    auto& st = states.at(dev.device_id);
    auto& cfg = gen.config(dev.device_id);
    const int users = static_cast<int>(rng.uniform_int(2, 5));
    for (int u = 0; u < users; ++u) {
      Stanza user;
      user.type = st.vocab.user_type();
      user.name = "ops" + std::to_string(u);
      user.set("role", u == 0 ? "admin" : "operator");
      cfg.add(std::move(user));
    }
    Stanza snmp;
    snmp.type = st.vocab.snmp_type();
    snmp.name = "main";
    snmp.set("community", "monitoring");
    cfg.add(std::move(snmp));
    Stanza ntp;
    ntp.type = st.vocab.dialect == Dialect::kIosLike ? "ntp" : "system-ntp";
    ntp.name = "global";
    ntp.set("server", "10.250.0.1");
    cfg.add(std::move(ntp));
    Stanza logging;
    logging.type = st.vocab.dialect == Dialect::kIosLike ? "logging" : "system-syslog";
    logging.name = "global";
    logging.set("host", "10.250.0.2");
    cfg.add(std::move(logging));
    if (rng.bernoulli(0.5)) {
      Stanza sflow;
      sflow.type = "sflow";
      sflow.name = "global";
      sflow.set("collector", "10.250.0.3");
      sflow.set("rate", "4096");
      cfg.add(std::move(sflow));
    }
    if (rng.bernoulli(0.4)) {
      Stanza qos;
      qos.type = st.vocab.qos_type();
      qos.name = "default";
      qos.set("class", "best-effort");
      cfg.add(std::move(qos));
    }
  }

  gen.design = std::move(design);
  return gen;
}

}  // namespace mpa
