// Tests for the vendor dialect renderers/parsers, including round-trips,
// the interned timeline parse, and mutation tests over generated
// snapshot text.
#include <gtest/gtest.h>

#include <optional>
#include <string_view>
#include <vector>

#include "mutation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "config/dialect.hpp"
#include "config/diff.hpp"
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
      seeds[dialect_of(dev.vendor) == Dialect::kIosLike ? 0 : 1].emplace_back(snap.text);

  Rng rng(fuzz_seed(14));
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

// ------------------------------------------------------ interned timeline

/// The pinned 8 x 4, seed-3 dataset: each device's snapshot texts, in
/// archive order, with its dialect.
struct Timeline {
  Dialect dialect;
  std::vector<std::string> texts;
};

std::vector<Timeline> pinned_timelines() {
  OspOptions gen;
  gen.num_networks = 8;
  gen.num_months = 4;
  gen.seed = 3;
  const OspDataset data = generate_osp(gen);
  std::vector<Timeline> out;
  for (const auto& dev : data.inventory.devices()) {
    Timeline& tl = out.emplace_back(Timeline{dialect_of(dev.vendor), {}});
    for (const auto& snap : data.snapshots.for_device(dev.device_id))
      tl.texts.emplace_back(snap.text);
  }
  return out;
}

std::string describe(const std::vector<StanzaChange>& changes) {
  std::string out;
  for (const auto& c : changes)
    out += std::string(to_string(c.kind)) + " " + c.native_type + "|" + c.agnostic_type + "|" +
           c.name + "|" + std::to_string(c.options_touched) + "\n";
  return out;
}

/// What parse() makes of one snapshot: the config and source map, or
/// the DataError message.
struct Parsed {
  std::optional<DeviceConfig> config;
  SourceMap source;
  std::string error;
};

Parsed parse_one(const std::string& text, Dialect d) {
  Parsed p;
  try {
    p.config = parse(text, d, "dev", p.source);
  } catch (const DataError& e) {
    p.error = e.what();
  }
  return p;
}

/// Runs `texts` through one interner and checks each snapshot against
/// parse(): the same stanzas by value (no handle repeated), the same
/// source map where one is asked for, and the same diff from the last
/// snapshot that parsed; or a DataError with the same message. Snapshot
/// i is parsed with a source map when `sourced` is empty or sourced[i]
/// is set. Returns the snapshots parsed.
std::size_t expect_interned_matches_parse(const Timeline& tl, StanzaInterner& interner,
                                          const std::vector<bool>& sourced = {}) {
  std::vector<const Stanza*> last_handles;
  std::optional<DeviceConfig> last_config;
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < tl.texts.size(); ++i) {
    SCOPED_TRACE("snapshot " + std::to_string(i));
    const Parsed want = parse_one(tl.texts[i], tl.dialect);
    const bool with_source = sourced.empty() || sourced[i];
    SourceMap source;
    std::vector<const Stanza*> handles;
    try {
      handles = with_source ? interner.parse(tl.texts[i], source) : interner.parse(tl.texts[i]);
    } catch (const DataError& e) {
      EXPECT_EQ(e.what(), want.error);
      continue;
    }
    if (!want.config) {
      ADD_FAILURE() << "parse() rejects what the interner accepts: " << want.error;
      continue;
    }
    ++parsed;
    const auto& stanzas = want.config->stanzas();
    if (with_source) {
      EXPECT_EQ(source, want.source);
    }
    EXPECT_NO_THROW(HandleIndex{handles});
    if (handles.size() != stanzas.size()) {
      ADD_FAILURE() << handles.size() << " handles for " << stanzas.size() << " stanzas";
      continue;
    }
    for (std::size_t k = 0; k < stanzas.size(); ++k) EXPECT_EQ(*handles[k], stanzas[k]) << k;
    if (last_config) {
      EXPECT_EQ(describe(diff(last_handles, handles)), describe(diff(*last_config, *want.config)));
    }
    last_handles = std::move(handles);
    last_config = want.config;
  }
  return parsed;
}

// Every device timeline of the pinned dataset, snapshot by snapshot: the
// interned parse gives what parse() gives, and consecutive snapshots
// share most stanza blocks.
TEST(StanzaInterner, MatchesParseOnPinnedDataset) {
  std::size_t snapshots = 0, stanzas = 0, blocks = 0, reused = 0;
  for (const Timeline& tl : pinned_timelines()) {
    StanzaInterner interner(tl.dialect);
    snapshots += expect_interned_matches_parse(tl, interner);
    for (const auto& text : tl.texts) stanzas += parse(text, tl.dialect, "dev").stanzas().size();
    blocks += interner.blocks();
    reused += interner.reused();
  }
  EXPECT_GT(snapshots, 100u);
  EXPECT_EQ(blocks, stanzas);
  EXPECT_GT(reused, blocks / 2);
}

// Without a source map the interner skips a block it knows only when
// the block ends in a newline: a last block without one is a prefix of
// a longer line here, and skipping it would read the rest of that line
// ("ion2") as a header.
TEST(StanzaInterner, SkipsOnlyAKnownBlockThatEndsInANewline) {
  const Timeline tl{Dialect::kIosLike,
                    {"interface A\n  opt", "interface A\n  option2\n", "interface A\n  option2\n"}};
  StanzaInterner interner(tl.dialect);
  EXPECT_EQ(expect_interned_matches_parse(tl, interner, std::vector<bool>(3, false)), 3u);
  EXPECT_EQ(interner.blocks(), 3u);
  EXPECT_EQ(interner.reused(), 1u);
}

// A mutant of one snapshot of a real timeline: the interned timeline
// agrees with per-snapshot parse() at every snapshot, through the
// mutant and after it, whether the mutant parses or not.
TEST(DialectMutation, TimelineAgreesWithParse) {
  constexpr int kMutantsPerDialect = 300;
  const auto timelines = pinned_timelines();
  Rng rng(fuzz_seed(16));
  for (const Dialect d : {Dialect::kIosLike, Dialect::kJunosLike}) {
    std::vector<const Timeline*> pool;
    for (const auto& tl : timelines)
      if (tl.dialect == d && tl.texts.size() >= 3) pool.push_back(&tl);
    ASSERT_FALSE(pool.empty());
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    int rejected = 0;
    for (int i = 0; i < kMutantsPerDialect; ++i) {
      Timeline tl = *pool[pick(pool.size())];
      const std::size_t at = pick(tl.texts.size());
      tl.texts[at] = mutate(tl.texts[at], tl.texts[pick(tl.texts.size())], rng);
      SCOPED_TRACE("mutant " + std::to_string(i) + " at snapshot " + std::to_string(at));
      StanzaInterner interner(d);
      if (expect_interned_matches_parse(tl, interner) < tl.texts.size()) ++rejected;
    }
    EXPECT_GT(rejected, 0);
    EXPECT_LT(rejected, kMutantsPerDialect);
  }
}

// The same for timelines with one to three mutants each, and a source
// map asked for on about a quarter of the snapshots: the rest take the
// interner's skip over known blocks, and still agree with parse() on
// stanzas, diffs and errors.
TEST(DialectMutation, SourcelessTimelineAgreesWithParse) {
  constexpr int kMutantsPerDialect = 300;
  const auto timelines = pinned_timelines();
  Rng rng(fuzz_seed(17));
  for (const Dialect d : {Dialect::kIosLike, Dialect::kJunosLike}) {
    std::vector<const Timeline*> pool;
    for (const auto& tl : timelines)
      if (tl.dialect == d && tl.texts.size() >= 3) pool.push_back(&tl);
    ASSERT_FALSE(pool.empty());
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    int rejected = 0;
    for (int i = 0; i < kMutantsPerDialect; ++i) {
      Timeline tl = *pool[pick(pool.size())];
      for (std::int64_t k = rng.uniform_int(1, 3); k > 0; --k) {
        const std::size_t at = pick(tl.texts.size());
        tl.texts[at] = mutate(tl.texts[at], tl.texts[pick(tl.texts.size())], rng);
      }
      std::vector<bool> sourced(tl.texts.size());
      for (std::size_t s = 0; s < sourced.size(); ++s) sourced[s] = rng.uniform_int(0, 3) == 0;
      SCOPED_TRACE("mutant timeline " + std::to_string(i));
      StanzaInterner interner(d);
      if (expect_interned_matches_parse(tl, interner, sourced) < tl.texts.size()) ++rejected;
    }
    EXPECT_GT(rejected, 0);
    EXPECT_LT(rejected, kMutantsPerDialect);
  }
}

}  // namespace
}  // namespace mpa
