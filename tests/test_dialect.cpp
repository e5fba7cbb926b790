// Tests for the vendor dialect renderers/parsers, including round-trips,
// the interned timeline parse, and mutation tests over generated
// snapshot text.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "mutation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "config/dialect.hpp"
#include "config/diff.hpp"
#include "config/lint.hpp"
#include "metrics/design_metrics.hpp"
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
  EXPECT_EQ(iface->options, (std::vector<Option>{{"switchport access vlan", "42"}}));
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
  EXPECT_EQ(s->options, (std::vector<Option>{{"knob", "11"}}));
}

TEST(Dialect, NamelessStanza) {
  const DeviceConfig c = parse("udld\n  enable\n!\n", Dialect::kIosLike, "d");
  const Stanza* s = c.find("udld", "");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->options, (std::vector<Option>{{"enable", ""}}));
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

/// What parse() makes of one snapshot: the config and source, or the
/// DataError message.
struct Parsed {
  std::optional<DeviceConfig> config;
  LintSource source;
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
/// parse(): the same stanzas by value (no facts handle repeated), the
/// same source where one is asked for, and the same diff from the
/// last snapshot that parsed; or a DataError with the same message.
/// Snapshot i is read with a source when `sourced` is empty or
/// sourced[i] is set. Returns the snapshots parsed.
std::size_t expect_interned_matches_parse(const Timeline& tl, StanzaInterner& interner,
                                          const std::vector<bool>& sourced = {}) {
  std::vector<const StanzaFacts*> last_facts;
  std::optional<DeviceConfig> last_config;
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < tl.texts.size(); ++i) {
    SCOPED_TRACE("snapshot " + std::to_string(i));
    const Parsed want = parse_one(tl.texts[i], tl.dialect);
    const bool with_source = sourced.empty() || sourced[i];
    LintSource source;
    std::vector<const StanzaFacts*> facts;
    try {
      facts = with_source ? interner.read(tl.texts[i], source) : interner.read(tl.texts[i]);
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
    std::vector<const StanzaFacts*> sorted = facts;
    std::sort(sorted.begin(), sorted.end(), std::less<>());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    if (facts.size() != stanzas.size()) {
      ADD_FAILURE() << facts.size() << " handles for " << stanzas.size() << " stanzas";
      continue;
    }
    for (std::size_t k = 0; k < stanzas.size(); ++k) EXPECT_EQ(*facts[k]->stanza, stanzas[k]) << k;
    if (last_config) {
      EXPECT_EQ(describe(diff(last_facts, facts)), describe(diff(*last_config, *want.config)));
    }
    last_facts = std::move(facts);
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

// Without a source the interner skips a block it knows only when
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

// retain() keeps the blocks of the listed handles and of the last
// snapshot read, so their facts still read back, and the next read
// still reuses the last snapshot's blocks.
TEST(StanzaInterner, RetainKeepsTheListedAndTheLastSnapshot) {
  const std::string a = "interface A\n  ip address 10.0.0.1/24\n!\nvlan 10\n!\n";
  const std::string b = "interface A\n  ip address 10.0.0.2/24\n!\nvlan 10\n!\n";
  const std::string c = "interface A\n  ip address 10.0.0.3/24\n!\nvlan 20\n!\n";
  StanzaInterner interner(Dialect::kIosLike);
  const auto first = interner.read(a);
  interner.read(b);
  const auto last = interner.read(c);
  interner.retain(first);
  for (const auto& [text, facts] : {std::pair{&a, &first}, std::pair{&c, &last}}) {
    const DeviceConfig want = parse(*text, Dialect::kIosLike, "dev");
    ASSERT_EQ(facts->size(), want.stanzas().size());
    for (std::size_t k = 0; k < facts->size(); ++k) {
      const StanzaFacts& got = *(*facts)[k];
      EXPECT_EQ(*got.stanza, want.stanzas()[k]);
      StanzaFacts expect = facts_of(want.stanzas()[k]);
      expect.stanza = got.stanza;
      EXPECT_TRUE(got == expect) << k;
    }
  }
  const std::size_t reused = interner.reused();
  EXPECT_EQ(interner.read(c), last);
  EXPECT_EQ(interner.reused(), reused + 2);
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

// Mutant network timelines, read through one interner per device: at
// every snapshot the facts the interner built once per distinct block
// equal the facts facts_of() builds from parse()'s config, and at every
// month end the lint counts and design metrics read from the interned
// views equal those read from views over the parsed configs. A fact the
// interner kept from another block (a stale cache) fails both.
TEST(DialectMutation, InternedFactsAgreeWithParsedConfigs) {
  constexpr int kMutantNetworks = 24;
  OspOptions gen;
  gen.num_networks = 8;
  gen.num_months = 4;
  gen.seed = 3;
  const OspDataset data = generate_osp(gen);
  const auto& networks = data.inventory.networks();
  Rng rng(fuzz_seed(18));
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  /// One snapshot read both ways; `facts` is empty when it did not parse.
  struct Read {
    Timestamp time = 0;
    std::vector<const StanzaFacts*> facts;
    std::optional<DeviceConfig> config;
    std::optional<LintSource> source;  ///< Set when read with a source.
  };
  std::size_t snapshots = 0, rejected = 0, month_ends = 0;
  for (int n = 0; n < kMutantNetworks; ++n) {
    const NetworkRecord& net = networks[pick(networks.size())];
    const auto devices = data.inventory.devices_in(net.network_id);
    SCOPED_TRACE("mutant network " + std::to_string(n) + " (" + net.network_id + ")");
    std::vector<std::unique_ptr<StanzaInterner>> interners;
    std::vector<std::vector<Read>> reads(devices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const Dialect dialect = dialect_of(devices[d]->vendor);
      const auto& snaps = data.snapshots.for_device(devices[d]->device_id);
      std::vector<std::string> texts;
      for (const auto& snap : snaps) texts.emplace_back(snap.text);
      if (!texts.empty() && rng.uniform_int(0, 1) == 0) {
        const std::size_t at = pick(texts.size());
        texts[at] = mutate(texts[at], texts[pick(texts.size())], rng);
      }
      auto& interner = *interners.emplace_back(std::make_unique<StanzaInterner>(dialect));
      for (std::size_t i = 0; i < texts.size(); ++i) {
        SCOPED_TRACE(devices[d]->device_id + " snapshot " + std::to_string(i));
        Read& r = reads[d].emplace_back();
        r.time = snaps[i].time;
        const bool with_source = rng.uniform_int(0, 1) == 0;
        const Parsed want = parse_one(texts[i], dialect);
        LintSource source;
        try {
          r.facts = with_source ? interner.read(texts[i], source) : interner.read(texts[i]);
        } catch (const DataError&) {
          ++rejected;
          continue;
        }
        ASSERT_TRUE(want.config.has_value()) << want.error;
        ++snapshots;
        r.config = want.config;
        r.config->set_device_id(devices[d]->device_id);
        if (with_source) r.source.emplace(std::move(source));
        const auto& stanzas = r.config->stanzas();
        ASSERT_EQ(r.facts.size(), stanzas.size());
        for (std::size_t k = 0; k < stanzas.size(); ++k) {
          StanzaFacts expect = facts_of(stanzas[k]);
          EXPECT_EQ(*r.facts[k]->stanza, stanzas[k]) << k;
          expect.stanza = r.facts[k]->stanza;
          EXPECT_TRUE(*r.facts[k] == expect) << "stanza " << k << ": " << stanzas[k].type << " "
                                             << stanzas[k].name;
        }
      }
    }
    for (int m = 0; m < gen.num_months; ++m) {
      // Each device's last snapshot before the month ends that parsed.
      std::vector<DeviceView> interned, parsed;
      for (std::size_t d = 0; d < devices.size(); ++d) {
        const Read* last = nullptr;
        for (const Read& r : reads[d])
          if (r.time < month_start(m + 1) && r.config) last = &r;
        if (last == nullptr) continue;
        const LintSource* source = last->source ? &*last->source : nullptr;
        interned.emplace_back(devices[d]->device_id, last->facts, source);
        parsed.emplace_back(*last->config, source);
      }
      SCOPED_TRACE("month " + std::to_string(m));
      EXPECT_EQ(count_lint(NetworkView(interned)), count_lint(NetworkView(parsed)));
      Case by_interned, by_parsed;
      compute_design_metrics(net, devices, interned, by_interned);
      compute_design_metrics(net, devices, parsed, by_parsed);
      EXPECT_EQ(std::memcmp(by_interned.practice.data(), by_parsed.practice.data(),
                            sizeof by_parsed.practice),
                0);
      ++month_ends;
    }
  }
  EXPECT_GT(snapshots, 100u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(month_ends, static_cast<std::size_t>(kMutantNetworks * gen.num_months));
}

}  // namespace
}  // namespace mpa
