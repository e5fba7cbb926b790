// Rule-engine lint tests: every built-in rule with a positive and a
// negative case in each dialect, suppression pragmas, source spans,
// the rule list, the counting sink, and the LintSummary / LintReport
// aggregation.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "config/lint.hpp"
#include "engine/lint_report.hpp"
#include "metrics/lint_metrics.hpp"
#include "simulation/osp_generator.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

constexpr Dialect kBothDialects[] = {Dialect::kIosLike, Dialect::kJunosLike};

/// Vendor-native vocabulary per dialect, so each rule is exercised
/// through genuine IOS-like and JunOS-like text.
struct Vocab {
  const char* iface;
  const char* vlan;
  const char* acl;
  const char* bgp;
  const char* ospf;
  const char* lag;
  const char* ip_key;        // interface address option
  const char* attach_key;    // ACL attachment option
  const char* vlan_ref_key;  // access-VLAN membership option
  const char* down_key;      // administratively-down flag
};

Vocab vocab(Dialect d) {
  if (d == Dialect::kIosLike) {
    return {"interface", "vlan",        "ip access-list",        "router bgp",
            "router ospf", "port-channel", "ip address",          "ip access-group",
            "switchport access vlan", "shutdown"};
  }
  return {"interfaces", "vlans",       "firewall-filter", "protocols-bgp",
          "protocols-ospf", "lag",     "ip-address",      "filter",
          "vlan-members", "disable"};
}

Stanza make(std::string type, std::string name,
            std::initializer_list<std::pair<const char*, const char*>> options = {}) {
  Stanza s;
  s.type = std::move(type);
  s.name = std::move(name);
  for (const auto& [k, v] : options) s.set(k, v);
  return s;
}

/// Render each config to dialect text and lint through the text path,
/// so every assertion also covers render -> scan -> parse fidelity.
std::vector<Diagnostic> lint_texts(const std::vector<DeviceConfig>& configs, Dialect d,
                                   const LintOptions& opts = {}) {
  std::vector<DeviceText> texts;
  texts.reserve(configs.size());
  for (const auto& c : configs) texts.push_back(DeviceText{c.device_id(), render(c, d), d});
  return lint_network_text(texts, opts);
}

int count_rule(const std::vector<Diagnostic>& diags, std::string_view id) {
  int n = 0;
  for (const auto& d : diags)
    if (d.rule_id == id) ++n;
  return n;
}

const Diagnostic* find_rule(const std::vector<Diagnostic>& diags, std::string_view id) {
  for (const auto& d : diags)
    if (d.rule_id == id) return &d;
  return nullptr;
}

// ----------------------------------------------------- referential rules

TEST(LintRules, DanglingAclRef) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig bad("dev");
    bad.add(make(v.iface, "Eth0", {{v.attach_key, "ghost"}}));
    EXPECT_EQ(count_rule(lint_texts({bad}, d), "dangling-acl-ref"), 1) << v.iface;

    DeviceConfig good("dev");
    good.add(make(v.acl, "edge", {{"permit", "tcp any any eq 443"}}));
    good.add(make(v.iface, "Eth0", {{v.attach_key, "edge"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "dangling-acl-ref"), 0) << v.iface;
  }
}

TEST(LintRules, DanglingVlanRef) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig bad("dev");
    bad.add(make(v.iface, "Eth0", {{v.vlan_ref_key, "404"}}));
    bad.add(make(v.vlan, "10", {{"interface", "Eth9"}}));  // member iface missing
    EXPECT_EQ(count_rule(lint_texts({bad}, d), "dangling-vlan-ref"), 2) << v.iface;

    DeviceConfig good("dev");
    good.add(make(v.iface, "Eth0", {{v.vlan_ref_key, "10"}}));
    good.add(make(v.vlan, "10", {{"interface", "Eth0"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "dangling-vlan-ref"), 0) << v.iface;
  }
}

TEST(LintRules, DanglingPoolRef) {
  // "pool" / "virtual-server" share one native spelling in both dialects.
  for (Dialect d : kBothDialects) {
    DeviceConfig bad("lb");
    bad.add(make("virtual-server", "vip", {{"pool", "ghost"}}));
    EXPECT_EQ(count_rule(lint_texts({bad}, d), "dangling-pool-ref"), 1);

    DeviceConfig good("lb");
    good.add(make("pool", "web", {{"member", "10.0.0.5"}}));
    good.add(make("virtual-server", "vip", {{"pool", "web"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "dangling-pool-ref"), 0);
  }
}

TEST(LintRules, DanglingLagMember) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig bad("dev");
    bad.add(make(v.lag, "ae0", {{"member", "Eth9"}}));
    EXPECT_EQ(count_rule(lint_texts({bad}, d), "dangling-lag-member"), 1) << v.lag;

    DeviceConfig good("dev");
    good.add(make(v.iface, "Eth9", {{"description", "uplink"}}));
    good.add(make(v.lag, "ae0", {{"member", "Eth9"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "dangling-lag-member"), 0) << v.lag;
  }
}

// ---------------------------------------------------------- filter rules

TEST(LintRules, EmptyAcl) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig bad("dev");
    bad.add(make(v.acl, "hollow", {{"remark", "todo"}}));
    EXPECT_EQ(count_rule(lint_texts({bad}, d), "empty-acl"), 1) << v.acl;

    DeviceConfig good("dev");
    good.add(make(v.acl, "edge", {{"deny", "udp any any eq 53"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "empty-acl"), 0) << v.acl;
  }
}

TEST(LintRules, AclShadowedTerm) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig bad("dev");
    bad.add(make(v.acl, "edge",
                 {{"permit", "tcp any any eq 80"}, {"permit", "tcp any any eq 80"}}));
    EXPECT_EQ(count_rule(lint_texts({bad}, d), "acl-shadowed-term"), 1) << v.acl;

    DeviceConfig good("dev");
    good.add(make(v.acl, "edge",
                  {{"permit", "tcp any any eq 80"}, {"deny", "tcp any any eq 80"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "acl-shadowed-term"), 0) << v.acl;
  }
}

TEST(LintRules, AclUnreachableTerm) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig bad("dev");
    bad.add(make(v.acl, "edge", {{"permit", "any"}, {"deny", "tcp any any eq 22"}}));
    const auto diags = lint_texts({bad}, d);
    EXPECT_EQ(count_rule(diags, "acl-unreachable-term"), 1) << v.acl;
    // The dead term is unreachable, not a duplicate.
    EXPECT_EQ(count_rule(diags, "acl-shadowed-term"), 0) << v.acl;

    DeviceConfig good("dev");
    good.add(make(v.acl, "edge", {{"deny", "tcp any any eq 22"}, {"permit", "any"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "acl-unreachable-term"), 0) << v.acl;
  }
}

// --------------------------------------------------------- hygiene rules

TEST(LintRules, UnreferencedAcl) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig bad("dev");
    bad.add(make(v.acl, "lonely", {{"permit", "tcp any any eq 443"}}));
    EXPECT_EQ(count_rule(lint_texts({bad}, d), "unreferenced-acl"), 1) << v.acl;

    DeviceConfig good("dev");
    good.add(make(v.acl, "edge", {{"permit", "tcp any any eq 443"}}));
    good.add(make(v.iface, "Eth0", {{v.attach_key, "edge"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "unreferenced-acl"), 0) << v.acl;
  }
}

TEST(LintRules, UnreferencedPool) {
  for (Dialect d : kBothDialects) {
    DeviceConfig bad("lb");
    bad.add(make("pool", "idle", {{"member", "10.0.0.5"}}));
    EXPECT_EQ(count_rule(lint_texts({bad}, d), "unreferenced-pool"), 1);

    DeviceConfig good("lb");
    good.add(make("pool", "web", {{"member", "10.0.0.5"}}));
    good.add(make("virtual-server", "vip", {{"pool", "web"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "unreferenced-pool"), 0);
  }
}

TEST(LintRules, UnreferencedVlan) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig bad("dev");
    bad.add(make(v.vlan, "30"));
    EXPECT_EQ(count_rule(lint_texts({bad}, d), "unreferenced-vlan"), 1) << v.vlan;

    // In use either through an interface reference or an inline member
    // list (the JunOS-like idiom).
    DeviceConfig good("dev");
    good.add(make(v.iface, "Eth0", {{v.vlan_ref_key, "30"}}));
    good.add(make(v.vlan, "30"));
    good.add(make(v.vlan, "40", {{"interface", "Eth0"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "unreferenced-vlan"), 0) << v.vlan;
  }
}

TEST(LintRules, UnusedInterfaceUp) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig bad("dev");
    bad.add(make(v.iface, "Eth5", {{"description", "spare"}}));
    EXPECT_EQ(count_rule(lint_texts({bad}, d), "unused-interface-up"), 1) << v.iface;

    DeviceConfig good("dev");
    good.add(make(v.iface, "Eth5", {{"description", "spare"}, {v.down_key, ""}}));
    good.add(make(v.iface, "Eth6", {{v.ip_key, "10.0.0.1/30"}}));
    good.add(make(v.iface, "Eth7", {{"description", "lag member"}}));
    good.add(make(v.lag, "ae0", {{"member", "Eth7"}}));
    EXPECT_EQ(count_rule(lint_texts({good}, d), "unused-interface-up"), 0) << v.iface;
  }
}

// A name counts as referenced only from the stanza kinds that refer to
// it: an ACL from an interface, a pool from a virtual server, a VLAN
// from an interface (through every VLAN key the dialect parses), and an
// interface from a VLAN's member list or a LAG. The same option on any
// other stanza kind references nothing.
TEST(LintRules, ReferencesCountOnlyFromTheReferringStanzaKinds) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    SCOPED_TRACE(v.iface);
    const auto findings = [&](std::string_view rule, std::initializer_list<Stanza> stanzas) {
      DeviceConfig config("dev");
      for (const Stanza& s : stanzas) config.add(s);
      return count_rule(lint_texts({config}, d), rule);
    };

    const Stanza spare = make(v.iface, "Eth1", {{"description", "spare"}});
    const char* const unused = "unused-interface-up";
    EXPECT_EQ(findings(unused, {spare, make(v.vlan, "40", {{"interface", "Eth1"}})}), 0);
    EXPECT_EQ(findings(unused, {spare, make(v.lag, "ae0", {{"member", "Eth1"}})}), 0);
    EXPECT_EQ(findings(unused, {spare, make(v.bgp, "65001", {{"interface", "Eth1"}})}), 1);
    EXPECT_EQ(findings(unused, {spare, make("pool", "web", {{"member", "Eth1"}})}), 1);

    const Stanza pool = make("pool", "web", {{"member", "10.0.0.5"}});
    const char* const idle = "unreferenced-pool";
    EXPECT_EQ(findings(idle, {pool, make("virtual-server", "vip", {{"pool", "web"}})}), 0);
    EXPECT_EQ(findings(idle, {pool, make(v.iface, "Eth0", {{"pool", "web"}})}), 1);

    const Stanza acl = make(v.acl, "edge", {{"permit", "tcp any any eq 443"}});
    const char* const detached = "unreferenced-acl";
    EXPECT_EQ(findings(detached, {acl, make(v.iface, "Eth0", {{v.attach_key, "edge"}})}), 0);
    EXPECT_EQ(findings(detached, {acl, make(v.vlan, "30", {{v.attach_key, "edge"}})}), 1);

    std::vector<const char*> vlan_keys = {"vlan-members"};
    if (d == Dialect::kIosLike) {
      vlan_keys.push_back("switchport access vlan");
      vlan_keys.push_back("spanning-tree vlan");
    }
    const Stanza vlan = make(v.vlan, "30");
    for (const char* key : vlan_keys) {
      SCOPED_TRACE(key);
      EXPECT_EQ(findings("unreferenced-vlan", {vlan, make(v.iface, "Eth0", {{key, "30"}})}), 0);
      EXPECT_EQ(findings("unreferenced-vlan", {vlan, make(v.lag, "ae0", {{key, "30"}})}), 1);
    }
  }
}

// ------------------------------------------------------ addressing rules

TEST(LintRules, DuplicateAddress) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig a("a"), b("b");
    a.add(make(v.iface, "Eth0", {{v.ip_key, "10.0.0.1/24"}}));
    b.add(make(v.iface, "Eth0", {{v.ip_key, "10.0.0.1/24"}}));
    const auto diags = lint_texts({a, b}, d);
    EXPECT_EQ(count_rule(diags, "duplicate-address"), 1) << v.ip_key;
    const Diagnostic* diag = find_rule(diags, "duplicate-address");
    ASSERT_NE(diag, nullptr);
    EXPECT_EQ(diag->device_id, "b");  // reported on the second owner

    DeviceConfig c("c");
    c.add(make(v.iface, "Eth0", {{v.ip_key, "10.0.0.2/24"}}));
    EXPECT_EQ(count_rule(lint_texts({a, c}, d), "duplicate-address"), 0) << v.ip_key;
  }
}

TEST(LintRules, SubnetOverlap) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig a("a"), b("b");
    a.add(make(v.iface, "Eth0", {{v.ip_key, "10.1.0.1/16"}}));
    b.add(make(v.iface, "Eth0", {{v.ip_key, "10.1.2.1/24"}}));  // inside 10.1/16
    EXPECT_EQ(count_rule(lint_texts({a, b}, d), "subnet-overlap"), 1) << v.ip_key;

    DeviceConfig c("c");
    c.add(make(v.iface, "Eth0", {{v.ip_key, "10.2.0.1/24"}}));
    EXPECT_EQ(count_rule(lint_texts({a, c}, d), "subnet-overlap"), 0) << v.ip_key;
  }
}

// -------------------------------------------------------- protocol rules

TEST(LintRules, OneSidedBgpSession) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig rt("rt"), peer("peer");
    rt.add(make(v.bgp, "65001", {{"neighbor", "10.0.0.2 remote-as 65002"}}));
    peer.add(make(v.iface, "Eth0", {{v.ip_key, "10.0.0.2/30"}}));  // no BGP process
    EXPECT_EQ(count_rule(lint_texts({rt, peer}, d), "one-sided-bgp-session"), 1) << v.bgp;

    peer.add(make(v.bgp, "65002", {{"neighbor", "10.0.0.1 remote-as 65001"}}));
    EXPECT_EQ(count_rule(lint_texts({rt, peer}, d), "one-sided-bgp-session"), 0) << v.bgp;
  }
}

TEST(LintRules, BgpAsMismatch) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig rt("rt"), peer("peer");
    rt.add(make(v.bgp, "65001", {{"neighbor", "10.0.0.2 remote-as 65999"}}));
    peer.add(make(v.iface, "Eth0", {{v.ip_key, "10.0.0.2/30"}}));
    peer.add(make(v.bgp, "65002", {{"neighbor", "10.0.0.1 remote-as 65001"}}));
    const auto diags = lint_texts({rt, peer}, d);
    EXPECT_EQ(count_rule(diags, "bgp-as-mismatch"), 1) << v.bgp;
    const Diagnostic* diag = find_rule(diags, "bgp-as-mismatch");
    ASSERT_NE(diag, nullptr);
    EXPECT_EQ(diag->device_id, "rt");
    EXPECT_EQ(diag->severity, LintSeverity::kError);

    DeviceConfig ok("rt");
    ok.add(make(v.bgp, "65001", {{"neighbor", "10.0.0.2 remote-as 65002"}}));
    ok.add(make(v.iface, "Eth1", {{v.ip_key, "10.0.0.1/30"}}));
    EXPECT_EQ(count_rule(lint_texts({ok, peer}, d), "bgp-as-mismatch"), 0) << v.bgp;
  }
}

TEST(LintRules, OspfAreaMismatch) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig a("a"), b("b");
    a.add(make(v.ospf, "1", {{"network", "10.0.0.0/24 area 0"}}));
    b.add(make(v.ospf, "1", {{"network", "10.0.0.0/24 area 7"}}));
    // Both claimants are flagged.
    EXPECT_EQ(count_rule(lint_texts({a, b}, d), "ospf-area-mismatch"), 2) << v.ospf;

    DeviceConfig c("c");
    c.add(make(v.ospf, "1", {{"network", "10.0.0.0/24 area 0"}}));
    EXPECT_EQ(count_rule(lint_texts({a, c}, d), "ospf-area-mismatch"), 0) << v.ospf;
  }
}

TEST(LintRules, MtuMismatch) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig a("a"), b("b");
    a.add(make(v.iface, "Eth0", {{v.ip_key, "10.0.0.1/30"}, {"mtu", "9000"}}));
    b.add(make(v.iface, "Eth0", {{v.ip_key, "10.0.0.2/30"}, {"mtu", "1500"}}));
    // Both link ends are flagged.
    EXPECT_EQ(count_rule(lint_texts({a, b}, d), "mtu-mismatch"), 2) << v.ip_key;

    DeviceConfig c("c");
    c.add(make(v.iface, "Eth0", {{v.ip_key, "10.0.0.2/30"}, {"mtu", "9000"}}));
    EXPECT_EQ(count_rule(lint_texts({a, c}, d), "mtu-mismatch"), 0) << v.ip_key;
  }
}

TEST(LintRules, VlanSpanUndefined) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig a("a"), b("b");
    a.add(make(v.vlan, "30", {{"interface", "Eth1"}}));
    a.add(make(v.iface, "Eth1"));
    b.add(make(v.iface, "Eth0", {{v.vlan_ref_key, "30"}}));  // 30 defined only on a
    EXPECT_EQ(count_rule(lint_texts({a, b}, d), "vlan-span-undefined"), 1) << v.vlan;

    b.add(make(v.vlan, "30"));
    EXPECT_EQ(count_rule(lint_texts({a, b}, d), "vlan-span-undefined"), 0) << v.vlan;
  }
}

// ------------------------------------------------------------ suppression

TEST(LintSuppression, StanzaPragmaSuppressesOneRule) {
  const std::string ios =
      "! device dev\n"
      "! lint-disable unreferenced-acl\n"
      "ip access-list lonely\n"
      "  permit tcp any any eq 443\n"
      "!\n";
  const std::string junos =
      "/* device dev */\n"
      "/* lint-disable unreferenced-acl */\n"
      "firewall-filter lonely {\n"
      "    permit tcp any any eq 443;\n"
      "}\n";
  for (const auto& [text, d] : {std::pair{ios, Dialect::kIosLike},
                                std::pair{junos, Dialect::kJunosLike}}) {
    const auto diags = lint_network_text({DeviceText{"dev", text, d}});
    EXPECT_EQ(count_rule(diags, "unreferenced-acl"), 0);
  }
}

TEST(LintSuppression, PragmaOnlyCoversItsStanza) {
  const std::string ios =
      "! device dev\n"
      "! lint-disable unreferenced-acl\n"
      "ip access-list first\n"
      "  permit tcp any any eq 443\n"
      "!\n"
      "ip access-list second\n"
      "  permit tcp any any eq 80\n"
      "!\n";
  const auto diags = lint_network_text({DeviceText{"dev", ios, Dialect::kIosLike}});
  ASSERT_EQ(count_rule(diags, "unreferenced-acl"), 1);
  EXPECT_EQ(find_rule(diags, "unreferenced-acl")->object, "ip access-list second");
}

TEST(LintSuppression, FilePragmaSuppressesWholeDevice) {
  const std::string junos =
      "/* device dev */\n"
      "vlans 30 {\n"
      "}\n"
      "/* lint-disable-file unreferenced-vlan unused-interface-up */\n"
      "interfaces Eth0 {\n"
      "    description spare;\n"
      "}\n";
  const auto diags = lint_network_text({DeviceText{"dev", junos, Dialect::kJunosLike}});
  // The file pragma applies everywhere, even to stanzas above it.
  EXPECT_EQ(count_rule(diags, "unreferenced-vlan"), 0);
  EXPECT_EQ(count_rule(diags, "unused-interface-up"), 0);
}

TEST(LintSuppression, AllDisablesEveryRule) {
  const std::string ios =
      "! device dev\n"
      "! lint-disable-file all\n"
      "interface Eth0\n"
      "  ip access-group ghost\n"
      "!\n";
  EXPECT_TRUE(lint_network_text({DeviceText{"dev", ios, Dialect::kIosLike}}).empty());
}

TEST(LintSuppression, KeepSuppressedRetainsMarkedFindings) {
  const std::string ios =
      "! device dev\n"
      "! lint-disable dangling-acl-ref\n"
      "interface Eth0\n"
      "  ip access-group ghost\n"
      "!\n";
  LintOptions opts;
  opts.keep_suppressed = true;
  const auto diags = lint_network_text({DeviceText{"dev", ios, Dialect::kIosLike}}, opts);
  const Diagnostic* diag = find_rule(diags, "dangling-acl-ref");
  ASSERT_NE(diag, nullptr);
  EXPECT_TRUE(diag->suppressed);
}

TEST(LintSuppression, PragmasSurviveRenderParseRoundTrip) {
  const std::string ios =
      "! device dev\n"
      "! lint-disable unreferenced-acl\n"
      "ip access-list lonely\n"
      "  permit tcp any any eq 443\n"
      "!\n";
  // parse() keeps the config; the pragma lives in the comment stream,
  // invisible to the stanza model but honored by the scanner.
  const DeviceConfig parsed = parse(ios, Dialect::kIosLike, "dev");
  EXPECT_NE(parsed.find("ip access-list", "lonely"), nullptr);
  const LintSource src = LintSource::scan(ios, Dialect::kIosLike);
  EXPECT_TRUE(src.suppresses("unreferenced-acl", 0));
  EXPECT_FALSE(src.suppresses("empty-acl", 0));
}

// ----------------------------------------------------------- source spans

TEST(LintSpans, DiagnosticsCarryRenderedLineRanges) {
  for (Dialect d : kBothDialects) {
    const Vocab v = vocab(d);
    DeviceConfig c("dev");
    c.add(make(v.iface, "Eth0", {{"description", "up front"}}));
    c.add(make(v.acl, "lonely", {{"permit", "tcp any any eq 443"}}));
    const std::string text = render(c, d);
    const auto diags = lint_network_text({DeviceText{"dev", text, d}});
    const Diagnostic* diag = find_rule(diags, "unreferenced-acl");
    ASSERT_NE(diag, nullptr);
    ASSERT_TRUE(diag->span.resolved());
    // The span's first line must be the ACL header in the text.
    const auto lines = split_views(text, '\n');
    ASSERT_LE(static_cast<std::size_t>(diag->span.first_line), lines.size());
    const std::string_view header = lines[static_cast<std::size_t>(diag->span.first_line - 1)];
    EXPECT_NE(header.find("lonely"), std::string::npos) << header;
    EXPECT_GE(diag->span.last_line, diag->span.first_line);
  }
}

/// One stanza's expected source info, in stanza order: its native type
/// and name, its span, and rule ids that must (and must not) be
/// suppressed on it.
struct SpanRow {
  const char* type;
  const char* name;
  int first_line;
  int last_line;
  std::vector<const char*> suppressed;
  std::vector<const char*> active;
};

struct SpanCase {
  const char* label;
  Dialect dialect;
  const char* text;
  std::vector<SpanRow> stanzas;
  std::vector<const char*> file_suppressed;  ///< Device-scope pragma ids.
};

/// Texts with comments and pragmas in both dialects, each with the
/// spans and suppressions its stanzas must get.
std::vector<SpanCase> span_cases() {
  return {
      {"ios stanza open at EOF ends on the line after the final newline",
       Dialect::kIosLike,
       "interface Eth0\n"
       "  description x\n",
       {{"interface", "Eth0", 1, 3, {}, {"all"}}},
       {}},
      {"ios stanza closed by the next header ends on the line before it",
       Dialect::kIosLike,
       "interface Eth0\n"
       "  description x\n"
       "\n"
       "interface Eth1\n"
       "  shutdown\n"
       "!\n",
       {{"interface", "Eth0", 1, 3, {}, {}}, {"interface", "Eth1", 4, 6, {}, {}}},
       {}},
      {"ios comments before the first stanza, file and stanza pragmas",
       Dialect::kIosLike,
       "! device dev\n"                             // 1
       "! lint-disable-file empty-acl\n"            // 2
       "! lint-disable unreferenced-acl\n"          // 3
       "ip access-list lonely\n"                    // 4
       "  permit tcp any any eq 443\n"              // 5
       "!\n"                                        // 6
       "! lint-disable all\n"                       // 7
       "interface Eth0\n"                           // 8
       "  ip access-group ghost\n"                  // 9
       "!\n"                                        // 10
       "router bgp 65001\n"                         // 11
       "  neighbor 10.0.0.2 remote-as 65002\n"      // 12
       "!\n",                                       // 13
       {{"ip access-list", "lonely", 4, 6, {"unreferenced-acl", "empty-acl"},
         {"acl-shadowed-term"}},
        {"interface", "Eth0", 8, 10, {"dangling-acl-ref", "unused-interface-up"}, {}},
        {"router bgp", "65001", 11, 13, {"empty-acl"},
         {"unreferenced-acl", "bgp-as-mismatch"}}},
       {"empty-acl"}},
      {"ios pragma that also terminates the stanza above it",
       Dialect::kIosLike,
       "interface Eth0\n"                           // 1
       "  shutdown\n"                               // 2
       "! lint-disable unused-interface-up\n"       // 3
       "interface Eth1\n"                           // 4
       "  description spare\n"                      // 5
       "\n"                                         // 6
       "!\n"                                        // 7
       "udld\n",                                    // 8
       {{"interface", "Eth0", 1, 3, {}, {"unused-interface-up"}},
        {"interface", "Eth1", 4, 7, {"unused-interface-up"}, {"dangling-vlan-ref"}},
        {"udld", "", 8, 9, {}, {"unused-interface-up"}}},
       {}},
      {"junos comments before the first block, blank lines inside a block",
       Dialect::kJunosLike,
       "/* device dev */\n"                                         // 1
       "/* lint-disable-file unused-interface-up */\n"              // 2
       "/* lint-disable empty-acl */\n"                             // 3
       "firewall-filter edge-in {\n"                                // 4
       "\n"                                                         // 5
       "    permit tcp any any eq 443;\n"                           // 6
       "\n"                                                         // 7
       "}\n"                                                        // 8
       "/* lint-disable unreferenced-vlan dangling-vlan-ref */\n"   // 9
       "vlans 200 {\n"                                              // 10
       "    interface xe-0/0/0;\n"                                  // 11
       "}\n"                                                        // 12
       "\n"                                                         // 13
       "interfaces xe-0/0/0 {\n"                                    // 14
       "    ip-address 10.0.0.2/24;\n"                              // 15
       "}\n"                                                        // 16
       "/* lint-disable all\n"                                      // 17
       "udld {\n"                                                   // 18
       "}\n",                                                       // 19
       {{"firewall-filter", "edge-in", 4, 8, {"empty-acl", "unused-interface-up"},
         {"unreferenced-acl"}},
        {"vlans", "200", 10, 12, {"unreferenced-vlan", "dangling-vlan-ref"}, {"empty-acl"}},
        {"interfaces", "xe-0/0/0", 14, 16, {"unused-interface-up"},
         {"empty-acl", "unreferenced-vlan"}},
        {"udld", "", 18, 19, {"dangling-acl-ref"}, {}}},
       {"unused-interface-up"}},
      {"ios repeated header keeps its own span and pragmas",
       Dialect::kIosLike,
       "! device dev\n"                             // 1
       "! lint-disable unused-interface-up\n"       // 2
       "interface Gi0/1\n"                          // 3
       "  description first\n"                      // 4
       "!\n"                                        // 5
       "interface Gi0/1\n"                          // 6
       "  description second\n"                     // 7
       "!\n",                                       // 8
       {{"interface", "Gi0/1", 3, 5, {"unused-interface-up"}, {}},
        {"interface", "Gi0/1", 6, 8, {}, {"unused-interface-up"}}},
       {}},
      {"junos repeated block keeps its own span and pragmas",
       Dialect::kJunosLike,
       "/* device dev */\n"                          // 1
       "/* lint-disable unused-interface-up */\n"    // 2
       "interfaces xe-0/0/0 {\n"                     // 3
       "    description first;\n"                    // 4
       "}\n"                                         // 5
       "interfaces xe-0/0/0 {\n"                     // 6
       "    description second;\n"                   // 7
       "}\n",                                        // 8
       {{"interfaces", "xe-0/0/0", 3, 5, {"unused-interface-up"}, {}},
        {"interfaces", "xe-0/0/0", 6, 8, {}, {"unused-interface-up"}}},
       {}},
  };
}

TEST(LintSpans, SpanAndPragmaTable) {
  for (const auto& c : span_cases()) {
    SCOPED_TRACE(c.label);
    // Rows are in stanza order: row i describes the parsed config's
    // stanza i, which is what the source is indexed by.
    const DeviceConfig config = parse(c.text, c.dialect, "dev");
    const LintSource src = LintSource::scan(c.text, c.dialect);
    ASSERT_EQ(config.stanzas().size(), c.stanzas.size());
    ASSERT_EQ(src.size(), c.stanzas.size());
    for (std::size_t i = 0; i < c.stanzas.size(); ++i) {
      const SpanRow& row = c.stanzas[i];
      SCOPED_TRACE(std::string(row.type) + " " + row.name);
      EXPECT_EQ(config.stanzas()[i].type, row.type);
      EXPECT_EQ(config.stanzas()[i].name, row.name);
      EXPECT_EQ(src.span_of(i), (SourceSpan{row.first_line, row.last_line}));
      for (const char* id : row.suppressed) EXPECT_TRUE(src.suppresses(id, i)) << id;
      for (const char* id : row.active) EXPECT_FALSE(src.suppresses(id, i)) << id;
    }
    EXPECT_EQ(src.span_of(c.stanzas.size()), SourceSpan{});
    for (const char* id : c.file_suppressed) EXPECT_TRUE(src.suppresses(id)) << id;
    EXPECT_FALSE(src.suppresses("subnet-overlap"));
  }
}

// A header that repeats in one text is two stanzas: each finding on the
// second copy carries the second copy's lines, and a pragma on the
// first copy does not suppress it.
TEST(LintSpans, RepeatedHeaderKeepsItsOwnSpanAndPragmas) {
  const std::string ios =
      "! device dev\n"
      "! lint-disable unused-interface-up\n"
      "interface Gi0/1\n"
      "  description first\n"
      "!\n"
      "interface Gi0/1\n"
      "  description second\n"
      "!\n";
  const std::string junos =
      "/* device dev */\n"
      "/* lint-disable unused-interface-up */\n"
      "interfaces xe-0/0/0 {\n"
      "    description first;\n"
      "}\n"
      "interfaces xe-0/0/0 {\n"
      "    description second;\n"
      "}\n";
  for (const auto& [text, d] : {std::pair{ios, Dialect::kIosLike},
                                std::pair{junos, Dialect::kJunosLike}}) {
    LintOptions opts;
    opts.keep_suppressed = true;
    std::vector<const Diagnostic*> found;
    const auto diags = lint_network_text({DeviceText{"dev", text, d}}, opts);
    for (const auto& diag : diags)
      if (diag.rule_id == "unused-interface-up") found.push_back(&diag);
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0]->span, (SourceSpan{3, 5}));
    EXPECT_TRUE(found[0]->suppressed);
    EXPECT_EQ(found[1]->span, (SourceSpan{6, 8}));
    EXPECT_FALSE(found[1]->suppressed);
  }
}

// The same, in a month-end view over a device timeline: two
// byte-identical blocks in one snapshot, after a snapshot with the same
// blocks, each reuse a stanza of their own and keep their own span and
// pragma set.
TEST(LintSpans, RepeatedBlockInTimelineKeepsItsOwnSpanAndPragmas) {
  const std::string ios =
      "! device dev\n"
      "! lint-disable unused-interface-up\n"
      "interface Gi0/1\n"
      "  description same\n"
      "!\n"
      "interface Gi0/1\n"
      "  description same\n"
      "!\n";
  const std::string junos =
      "/* device dev */\n"
      "/* lint-disable unused-interface-up */\n"
      "interfaces xe-0/0/0 {\n"
      "    description same;\n"
      "}\n"
      "interfaces xe-0/0/0 {\n"
      "    description same;\n"
      "}\n";
  const std::string dev = "dev";
  for (const auto& [text, d] : {std::pair{ios, Dialect::kIosLike},
                                std::pair{junos, Dialect::kJunosLike}}) {
    StanzaInterner timeline(d);
    LintSource source;
    timeline.read(text, source);
    const auto facts = timeline.read(text, source);
    ASSERT_EQ(facts.size(), 2u);
    EXPECT_NE(facts[0]->stanza, facts[1]->stanza);
    EXPECT_EQ(*facts[0]->stanza, *facts[1]->stanza);
    EXPECT_EQ(timeline.reused(), 2u);
    const std::vector<DeviceView> month_end = {DeviceView(dev, facts, &source)};
    LintOptions opts;
    opts.keep_suppressed = true;
    std::vector<const Diagnostic*> found;
    const auto diags = run_lint(NetworkView(month_end), opts);
    for (const auto& diag : diags)
      if (diag.rule_id == "unused-interface-up") found.push_back(&diag);
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0]->span, (SourceSpan{3, 5}));
    EXPECT_TRUE(found[0]->suppressed);
    EXPECT_EQ(found[1]->span, (SourceSpan{6, 8}));
    EXPECT_FALSE(found[1]->suppressed);
  }
}

// -------------------------------------------------------------- registry

TEST(LintRegistry, BuiltinHasUniqueIdsAndFullCoverage) {
  const auto& rules = builtin_rules();
  EXPECT_GE(rules.size(), 15u);
  std::set<std::string_view> ids;
  std::set<LintCategory> categories;
  for (const auto& rule : rules) {
    const RuleInfo info = rule.info;
    EXPECT_FALSE(info.id.empty());
    EXPECT_TRUE(ids.insert(info.id).second) << "duplicate id " << info.id;
    EXPECT_FALSE(info.summary.empty()) << info.id;
    categories.insert(info.category);
  }
  EXPECT_EQ(static_cast<int>(categories.size()), kNumLintCategories);
  EXPECT_EQ(ids.count("dangling-acl-ref"), 1u);
}

// The SARIF driver lists every rule's id, summary, level and category in
// run order, so its digest pins the whole table: a rule that moves, or
// that swaps its severity or category, changes it.
TEST(LintRegistry, RuleTableIsPinned) {
  Fnv h;
  h.str(LintReport{}.to_sarif());
  EXPECT_EQ(h.value(), 0x9308e5da43c70bddULL);
}

// --------------------------------------------------------------- counting

/// One network's month-end state: each device's config and source.
struct MonthEnd {
  std::string label;
  std::vector<DeviceConfig> configs;
  std::vector<LintSource> sources;

  void add(std::string_view text, Dialect d, std::string device_id) {
    configs.push_back(parse(text, d, std::move(device_id), sources.emplace_back()));
  }
  std::vector<DeviceView> views() const {
    std::vector<DeviceView> out;
    for (std::size_t i = 0; i < configs.size(); ++i) out.emplace_back(configs[i], &sources[i]);
    return out;
  }
};

/// Every network-month of the pinned 8 x 4, seed-3 dataset; then each
/// pragma text alone, and each dialect's pragma texts as one network.
std::vector<MonthEnd> counting_networks() {
  OspOptions gen;
  gen.num_networks = 8;
  gen.num_months = 4;
  gen.seed = 3;
  const OspDataset data = generate_osp(gen);
  std::vector<MonthEnd> out;
  for (const auto& net : data.inventory.networks()) {
    for (int m = 0; m < gen.num_months; ++m) {
      MonthEnd& me = out.emplace_back();
      me.label = net.network_id + " month " + std::to_string(m);
      for (const auto* dev : data.inventory.devices_in(net.network_id)) {
        const ConfigSnapshot* last = nullptr;
        for (const auto& snap : data.snapshots.for_device(dev->device_id))
          if (snap.time < month_start(m + 1)) last = &snap;
        if (last != nullptr) me.add(last->text, dialect_of(dev->vendor), dev->device_id);
      }
    }
  }
  for (const Dialect d : kBothDialects) {
    MonthEnd all;
    all.label = std::string(d == Dialect::kIosLike ? "ios" : "junos") + " pragma texts";
    for (const auto& c : span_cases()) {
      if (c.dialect != d) continue;
      all.add(c.text, d, "dev" + std::to_string(all.configs.size()));
      MonthEnd& one = out.emplace_back();
      one.label = c.label;
      one.add(c.text, d, "dev");
    }
    out.push_back(std::move(all));
  }
  return out;
}

// The counting sink that inference uses gives what the summary of the
// full diagnostics gives, on every network-month of the pinned dataset
// and on the pragma texts: under default options and with suppressed
// findings kept.
TEST(LintCounting, CountingSinkAgreesWithDiagnosticsSummary) {
  std::vector<std::pair<const char*, LintOptions>> setups(2);
  setups[0].first = "default options";
  setups[1].first = "keep suppressed";
  setups[1].second.keep_suppressed = true;

  std::vector<LintSummary> sums(setups.size());
  for (const MonthEnd& network : counting_networks()) {
    SCOPED_TRACE(network.label);
    const std::vector<DeviceView> views = network.views();
    const NetworkView index(views);
    for (std::size_t k = 0; k < setups.size(); ++k) {
      SCOPED_TRACE(setups[k].first);
      const LintSummary want = LintSummary::of(run_lint(index, setups[k].second), views.size());
      const LintSummary got = count_lint(index, setups[k].second);
      EXPECT_EQ(got, want);
      sums[k].total += got.total;
      sums[k].suppressed += got.suppressed;
    }
  }
  // Each setup moved the counts the way it should.
  EXPECT_GT(sums[0].total, 0);
  EXPECT_EQ(sums[0].suppressed, 0);
  EXPECT_GT(sums[1].suppressed, 0);
  EXPECT_EQ(sums[1].total, sums[0].total);
}

// ------------------------------------------------- summary + report forms

TEST(LintSummaryTest, CountsAndDensity) {
  std::vector<Diagnostic> diags(3);
  diags[0].rule_id = "a";
  diags[0].severity = LintSeverity::kError;
  diags[0].category = LintCategory::kReferential;
  diags[1].rule_id = "a";
  diags[1].severity = LintSeverity::kInfo;
  diags[1].category = LintCategory::kHygiene;
  diags[2].rule_id = "b";
  diags[2].severity = LintSeverity::kWarning;
  diags[2].category = LintCategory::kProtocol;
  diags[2].suppressed = true;
  const LintSummary s = LintSummary::of(diags, 4);
  EXPECT_EQ(s.total, 2);
  EXPECT_EQ(s.suppressed, 1);
  EXPECT_EQ(s.rules_hit, 1);  // only "a" fired unsuppressed
  EXPECT_EQ(s.by_severity[static_cast<std::size_t>(LintSeverity::kError)], 1);
  EXPECT_DOUBLE_EQ(s.density, 0.5);

  Case c;
  apply_lint_metrics(s, c);
  EXPECT_DOUBLE_EQ(c[Practice::kLintIssues], 2);
  EXPECT_DOUBLE_EQ(c[Practice::kLintErrors], 1);
  EXPECT_DOUBLE_EQ(c[Practice::kLintRulesHit], 1);
  EXPECT_DOUBLE_EQ(c[Practice::kLintDensity], 0.5);
}

LintReport sample_report() {
  LintReport report;
  NetworkLint net;
  net.network_id = "net0";
  net.num_devices = 3;
  Diagnostic d;
  d.rule_id = "bgp-as-mismatch";
  d.severity = LintSeverity::kError;
  d.category = LintCategory::kProtocol;
  d.device_id = "rt-0";
  d.object = "router bgp 65001";
  d.message = "neighbor 10.0.0.2 remote-as 65999, but peer runs AS 65002";
  d.span = SourceSpan{12, 15};
  net.diagnostics.push_back(d);
  d.rule_id = "unreferenced-acl";
  d.severity = LintSeverity::kInfo;
  d.category = LintCategory::kHygiene;
  d.message = "acl 'x' is never attached";
  d.suppressed = true;
  net.diagnostics.push_back(d);
  report.networks.push_back(std::move(net));
  NetworkLint clean;
  clean.network_id = "net1";
  clean.num_devices = 2;
  report.networks.push_back(std::move(clean));
  return report;
}

TEST(LintReportTest, CsvRoundTripPreservesEverything) {
  const LintReport report = sample_report();
  const LintReport back = LintReport::from_csv(report.to_csv());
  ASSERT_EQ(back.networks.size(), 2u);
  EXPECT_EQ(back.networks[0].network_id, "net0");
  EXPECT_EQ(back.networks[0].num_devices, 3u);
  EXPECT_EQ(back.networks[1].num_devices, 2u);
  ASSERT_EQ(back.networks[0].diagnostics.size(), 2u);
  const Diagnostic& d = back.networks[0].diagnostics[0];
  EXPECT_EQ(d.rule_id, "bgp-as-mismatch");
  EXPECT_EQ(d.severity, LintSeverity::kError);
  EXPECT_EQ(d.category, LintCategory::kProtocol);
  EXPECT_EQ(d.device_id, "rt-0");
  EXPECT_EQ(d.object, "router bgp 65001");
  // The comma inside the message survives the round trip.
  EXPECT_EQ(d.message, "neighbor 10.0.0.2 remote-as 65999, but peer runs AS 65002");
  EXPECT_EQ(d.span, (SourceSpan{12, 15}));
  EXPECT_TRUE(back.networks[0].diagnostics[1].suppressed);
}

TEST(LintReportTest, SeverityFloorFilters) {
  const LintReport errors_only = sample_report().at_least(LintSeverity::kError);
  ASSERT_EQ(errors_only.networks.size(), 2u);
  EXPECT_EQ(errors_only.networks[0].diagnostics.size(), 1u);
  EXPECT_EQ(errors_only.total_findings(), 1u);
}

TEST(LintReportTest, TextListsFindingsAndTotals) {
  const std::string text = sample_report().to_text();
  EXPECT_NE(text.find("net0"), std::string::npos);
  EXPECT_NE(text.find("rt-0:12-15 error bgp-as-mismatch"), std::string::npos) << text;
  EXPECT_NE(text.find("total:"), std::string::npos);
}

TEST(LintReportTest, JsonAndSarifAreWellFormed) {
  const std::string json = sample_report().to_json();
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"bgp-as-mismatch\""), std::string::npos);

  const std::string sarif = sample_report().to_sarif();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"bgp-as-mismatch\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(sarif.find("\"suppressions\""), std::string::npos);
  // The driver advertises the whole registry even for sparse findings.
  for (const auto& rule : builtin_rules())
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(rule.info.id) + "\""), std::string::npos)
        << rule.info.id;
}

TEST(LintReportTest, SarifListsAtLeastFifteenRules) {
  std::size_t count = 0;
  const std::string sarif = LintReport{}.to_sarif();
  for (std::size_t pos = sarif.find("\"id\": \""); pos != std::string::npos;
       pos = sarif.find("\"id\": \"", pos + 1)) {
    ++count;
  }
  EXPECT_GE(count, 15u);
}

}  // namespace
}  // namespace mpa
