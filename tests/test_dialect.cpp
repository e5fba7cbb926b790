// Tests for the vendor dialect renderers/parsers, including round-trips
// and a mutation test over generated snapshot text.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

#include "config/dialect.hpp"
#include "config/lint.hpp"
#include "simulation/osp_generator.hpp"

namespace mpa {
namespace {

DeviceConfig sample_config() {
  DeviceConfig c("dev1");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("ip address", "10.0.0.1/24");
  i.set("switchport access vlan", "100");
  i.set("shutdown", "");  // flag-style option
  c.add(i);
  Stanza acl;
  acl.type = "ip access-list";
  acl.name = "web-in";
  acl.set("permit", "tcp any any eq 80");
  acl.set("deny", "tcp any any eq 23");
  c.add(acl);
  Stanza bgp;
  bgp.type = "router bgp";
  bgp.name = "65001";
  bgp.set("neighbor", "10.0.0.2 remote-as 65001");
  bgp.set("network", "10.0.0.0/24");
  c.add(bgp);
  return c;
}

DeviceConfig sample_junos_config() {
  DeviceConfig c("dev2");
  Stanza i;
  i.type = "interfaces";
  i.name = "xe-0/0/0";
  i.set("ip-address", "10.0.0.2/24");
  i.set("filter", "edge-in");
  c.add(i);
  Stanza fw;
  fw.type = "firewall-filter";
  fw.name = "edge-in";
  fw.set("permit", "tcp any any eq 443");
  c.add(fw);
  Stanza v;
  v.type = "vlans";
  v.name = "200";
  v.set("interface", "xe-0/0/0");
  c.add(v);
  return c;
}

TEST(Dialect, VendorMapping) {
  EXPECT_EQ(dialect_of(Vendor::kCirrus), Dialect::kIosLike);
  EXPECT_EQ(dialect_of(Vendor::kAristos), Dialect::kIosLike);
  EXPECT_EQ(dialect_of(Vendor::kJunegrass), Dialect::kJunosLike);
  EXPECT_EQ(dialect_of(Vendor::kBrocatel), Dialect::kJunosLike);
}

TEST(Dialect, IosRoundTrip) {
  const DeviceConfig c = sample_config();
  const std::string text = render(c, Dialect::kIosLike);
  const DeviceConfig parsed = parse(text, Dialect::kIosLike, "dev1");
  EXPECT_EQ(parsed, c);
}

TEST(Dialect, JunosRoundTrip) {
  const DeviceConfig c = sample_junos_config();
  const std::string text = render(c, Dialect::kJunosLike);
  const DeviceConfig parsed = parse(text, Dialect::kJunosLike, "dev2");
  EXPECT_EQ(parsed, c);
}

TEST(Dialect, IosRendersBangTerminators) {
  const std::string text = render(sample_config(), Dialect::kIosLike);
  EXPECT_NE(text.find("interface Eth0"), std::string::npos);
  EXPECT_NE(text.find("ip access-list web-in"), std::string::npos);
  EXPECT_NE(text.find("\n!\n"), std::string::npos);
}

TEST(Dialect, JunosRendersBraces) {
  const std::string text = render(sample_junos_config(), Dialect::kJunosLike);
  EXPECT_NE(text.find("interfaces xe-0/0/0 {"), std::string::npos);
  EXPECT_NE(text.find("ip-address 10.0.0.2/24;"), std::string::npos);
}

TEST(Dialect, IosParsesMultiwordTypesAndKeys) {
  const std::string text =
      "router bgp 65001\n"
      "  neighbor 10.0.0.9 remote-as 65001\n"
      "!\n"
      "interface Eth3\n"
      "  switchport access vlan 42\n"
      "!\n";
  const DeviceConfig c = parse(text, Dialect::kIosLike, "d");
  ASSERT_NE(c.find("router bgp", "65001"), nullptr);
  const Stanza* iface = c.find("interface", "Eth3");
  ASSERT_NE(iface, nullptr);
  EXPECT_EQ(iface->get("switchport access vlan"), "42");
}

TEST(Dialect, IosIgnoresComments) {
  const std::string text = "! a comment\ninterface Eth0\n  shutdown\n!\n";
  const DeviceConfig c = parse(text, Dialect::kIosLike, "d");
  EXPECT_EQ(c.stanzas().size(), 1u);
}

TEST(Dialect, IosRejectsOrphanOption) {
  EXPECT_THROW(parse("  orphan option\n", Dialect::kIosLike, "d"), DataError);
}

TEST(Dialect, JunosRejectsMalformed) {
  EXPECT_THROW(parse("}\n", Dialect::kJunosLike, "d"), DataError);
  EXPECT_THROW(parse("vlans 100 {\n", Dialect::kJunosLike, "d"), DataError);
  EXPECT_THROW(parse("vlans 100 {\n  missing-semicolon\n}\n", Dialect::kJunosLike, "d"),
               DataError);
  EXPECT_THROW(parse("stmt outside;\n", Dialect::kJunosLike, "d"), DataError);
}

TEST(Dialect, UnknownTypesSurvive) {
  const std::string text = "frobnicator gadget-1\n  knob 11\n!\n";
  const DeviceConfig c = parse(text, Dialect::kIosLike, "d");
  const Stanza* s = c.find("frobnicator", "gadget-1");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->get("knob"), "11");
}

TEST(Dialect, NamelessStanza) {
  const DeviceConfig c = parse("udld\n  enable\n!\n", Dialect::kIosLike, "d");
  const Stanza* s = c.find("udld", "");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->get("enable").has_value());
}

// Round-trip property over a parameterized family of option counts.
class DialectRoundTrip : public ::testing::TestWithParam<std::tuple<Dialect, int>> {};

TEST_P(DialectRoundTrip, ManyStanzas) {
  const auto [dialect, n] = GetParam();
  DeviceConfig c("dev");
  for (int i = 0; i < n; ++i) {
    Stanza s;
    s.type = dialect == Dialect::kIosLike ? "vlan" : "vlans";
    s.name = std::to_string(100 + i);
    s.set("l2", "enabled");
    s.set("note", "v" + std::to_string(i));
    c.add(s);
  }
  EXPECT_EQ(parse(render(c, dialect), dialect, "dev"), c);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DialectRoundTrip,
                         ::testing::Combine(::testing::Values(Dialect::kIosLike,
                                                              Dialect::kJunosLike),
                                            ::testing::Values(0, 1, 5, 50)));

// ------------------------------------------------------------- mutation

/// Bytes that carry structure in one dialect or the other.
constexpr std::string_view kStructural = "\n \t!{};/*\r";

/// One seeded mutation of `text`: a byte flip, a structural byte
/// written over a random one, a truncation, or a splice of a slice of
/// `donor` over a random range.
std::string mutate(std::string text, const std::string& donor, Rng& rng) {
  const auto pos = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  if (text.empty()) return donor;
  switch (rng.uniform_int(0, 3)) {
    case 0:
      for (std::int64_t k = rng.uniform_int(1, 4); k > 0; --k)
        text[pos(text.size() - 1)] ^= static_cast<char>(rng.uniform_int(1, 255));
      break;
    case 1:
      for (std::int64_t k = rng.uniform_int(1, 4); k > 0; --k)
        text[pos(text.size() - 1)] = kStructural[pos(kStructural.size() - 1)];
      break;
    case 2:
      text.resize(pos(text.size()));
      break;
    default: {
      const std::size_t from = pos(donor.size());
      const std::string_view slice =
          std::string_view(donor).substr(from, pos(donor.size() - from));
      const std::size_t at = pos(text.size());
      text.replace(at, pos(text.size() - at), slice);
      break;
    }
  }
  return text;
}

// Every mutant of a real snapshot is either accepted or rejected with a
// DataError by both parse() and LintSource::scan(); any other exception
// fails the test, and the sanitizer builds catch memory errors and UB.
TEST(DialectMutation, AcceptsOrRejectsWithDataError) {
  constexpr int kMutantsPerDialect = 1500;
  OspOptions gen;
  gen.num_networks = 8;
  gen.num_months = 4;
  gen.seed = 3;
  const OspDataset data = generate_osp(gen);
  std::vector<std::string> seeds[2];
  for (const auto& dev : data.inventory.devices())
    for (const auto& snap : data.snapshots.for_device(dev.device_id))
      seeds[dialect_of(dev.vendor) == Dialect::kIosLike ? 0 : 1].push_back(snap.text);

  Rng rng(14);
  for (const Dialect d : {Dialect::kIosLike, Dialect::kJunosLike}) {
    const auto& texts = seeds[d == Dialect::kIosLike ? 0 : 1];
    ASSERT_FALSE(texts.empty());
    const auto pick = [&]() -> const std::string& {
      return texts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(texts.size()) - 1))];
    };
    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < kMutantsPerDialect; ++i) {
      const std::string& base = pick();
      const std::string text = mutate(base, pick(), rng);
      try {
        parse(text, d, "dev");
        ++accepted;
      } catch (const DataError&) {
        ++rejected;
      }
      try {
        LintSource::scan(text, d);
      } catch (const DataError&) {
      }
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
  }
}

}  // namespace
}  // namespace mpa
