// Tests for stanza-level config diffing.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "config/diff.hpp"

namespace mpa {
namespace {

DeviceConfig base() {
  DeviceConfig c("d");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("description", "uplink");
  c.add(i);
  Stanza a;
  a.type = "ip access-list";
  a.name = "web";
  a.set("permit", "tcp any any eq 80");
  c.add(a);
  return c;
}

TEST(Diff, IdenticalConfigsNoChange) {
  const DeviceConfig a = base(), b = base();
  EXPECT_TRUE(diff(a, b).empty());
}

TEST(Diff, DetectsUpdate) {
  const DeviceConfig a = base();
  DeviceConfig b = base();
  b.find("interface", "Eth0")->replace("description", "downlink");
  const auto changes = diff(a, b);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].kind, ChangeKind::kUpdated);
  EXPECT_EQ(changes[0].native_type, "interface");
  EXPECT_EQ(changes[0].agnostic_type, "interface");
  EXPECT_EQ(changes[0].name, "Eth0");
  EXPECT_EQ(changes[0].options_touched, 1);
}

TEST(Diff, DetectsAddAndRemove) {
  const DeviceConfig a = base();
  DeviceConfig b = base();
  b.remove("ip access-list", "web");
  Stanza v;
  v.type = "vlan";
  v.name = "100";
  v.set("l2", "enabled");
  b.add(v);
  const auto changes = diff(a, b);
  ASSERT_EQ(changes.size(), 2u);
  // Removal reported from `before` order first, then additions.
  EXPECT_EQ(changes[0].kind, ChangeKind::kRemoved);
  EXPECT_EQ(changes[0].agnostic_type, "acl");
  EXPECT_EQ(changes[1].kind, ChangeKind::kAdded);
  EXPECT_EQ(changes[1].agnostic_type, "vlan");
  EXPECT_EQ(changes[1].options_touched, 1);
}

TEST(Diff, OptionsTouchedCountsModificationsOnce) {
  const DeviceConfig a = base();
  DeviceConfig b = base();
  // Modify one option value: one removal + one addition in multiset
  // terms, but it should count as 1.
  b.find("ip access-list", "web")->replace("permit", "tcp any any eq 8080");
  auto changes = diff(a, b);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].options_touched, 1);
  // Add two more options: 2 additions -> max(0 removed, 2 added) + the
  // modified one = 3 total differing lines on the larger side.
  b.find("ip access-list", "web")->set("permit", "udp any any eq 53");
  b.find("ip access-list", "web")->set("deny", "ip any any");
  changes = diff(a, b);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].options_touched, 3);
}

TEST(Diff, ReorderedOptionsCountAsEqual) {
  DeviceConfig a("d"), b("d");
  Stanza s1;
  s1.type = "interface";
  s1.name = "Eth0";
  s1.set("a", "1");
  s1.set("b", "2");
  a.add(s1);
  Stanza s2;
  s2.type = "interface";
  s2.name = "Eth0";
  s2.set("b", "2");
  s2.set("a", "1");
  b.add(s2);
  // Stanzas differ by order, so it is an update, but no option content
  // actually changed -> options_touched == 0.
  const auto changes = diff(a, b);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].options_touched, 0);
}

TEST(Diff, SameNameDifferentTypeIsAddPlusRemove) {
  DeviceConfig a("d"), b("d");
  Stanza s1;
  s1.type = "vlan";
  s1.name = "100";
  a.add(s1);
  Stanza s2;
  s2.type = "interface";
  s2.name = "100";
  b.add(s2);
  const auto changes = diff(a, b);
  EXPECT_EQ(changes.size(), 2u);
}

// ---------------------------------------------------------- handle core
//
// Each case diffs two facts handle lists that share handles, as two
// snapshots of one interned device timeline do, and the configs holding
// the same stanzas by value. Both must give the output pinned here,
// which is what diff() gave before it had a handle core.

Stanza stanza(std::string type, std::string name, std::string description) {
  Stanza s;
  s.type = std::move(type);
  s.name = std::move(name);
  s.set("description", std::move(description));
  return s;
}

/// A config holding copies of `stanzas`, repeats and all.
DeviceConfig config_of(const std::vector<const Stanza*>& stanzas) {
  DeviceConfig c("d");
  for (const Stanza* s : stanzas) c.stanzas().push_back(*s);
  return c;
}

std::string describe(const std::vector<StanzaChange>& changes) {
  std::string out;
  for (const auto& c : changes)
    out += std::string(to_string(c.kind)) + " " + c.native_type + " " + c.name + " " +
           std::to_string(c.options_touched) + ";";
  return out;
}

void expect_diff(const std::vector<const Stanza*>& before, const std::vector<const Stanza*>& after,
                 const std::string& want) {
  // One facts record per stanza, so a stanza in both lists is one handle
  // in both.
  std::map<const Stanza*, StanzaFacts> facts;
  const auto handles = [&](const std::vector<const Stanza*>& stanzas) {
    std::vector<const StanzaFacts*> out;
    for (const Stanza* s : stanzas)
      out.push_back(&facts.try_emplace(s, facts_of(*s)).first->second);
    return out;
  };
  EXPECT_EQ(describe(diff(handles(before), handles(after))), want);
  EXPECT_EQ(describe(diff(config_of(before), config_of(after))), want);
}

// A repeated (type, name) whose copies differ: every copy is compared
// with the first match, so the second copy reads as updated even when
// both snapshots hold the very same stanzas.
TEST(Diff, RepeatedKeyComparesEachCopyWithTheFirstMatch) {
  const Stanza a = stanza("interface", "Eth0", "first");
  const Stanza b = stanza("interface", "Eth0", "second");
  const Stanza v = stanza("vlan", "10", "users");
  expect_diff({&a, &b, &v}, {&a, &b, &v}, "updated interface Eth0 1;");
  const Stanza a2 = stanza("interface", "Eth0", "changed");
  expect_diff({&a, &b, &v}, {&a2, &b, &v}, "updated interface Eth0 1;updated interface Eth0 1;");
  expect_diff({&a, &v}, {&a, &b, &v}, "");
  expect_diff({&a, &b, &v}, {&b, &v}, "updated interface Eth0 1;");
}

// Stanzas reordered, one inserted in front and one updated: positions
// shift, yet only the update and the addition are reported, removals
// and updates in `before` order, then additions in `after` order.
TEST(Diff, ReorderedStanzasReportOnlyRealChanges) {
  const Stanza x = stanza("interface", "Eth0", "x");
  const Stanza y = stanza("interface", "Eth1", "y");
  const Stanza y2 = stanza("interface", "Eth1", "y2");
  const Stanza z = stanza("ip access-list", "web", "z");
  const Stanza w = stanza("vlan", "20", "w");
  const Stanza u = stanza("vlan", "30", "u");
  expect_diff({&x, &y, &z, &u}, {&w, &z, &x, &y2},
              "updated interface Eth1 1;removed vlan 30 1;added vlan 20 1;");
  expect_diff({&x, &y, &z}, {&z, &y, &x}, "");
}

// A handle present in both lists, but not the first stanza of `after`
// with its key: it is compared with that first match, not skipped.
TEST(Diff, SharedHandleThatIsNotTheFirstMatchIsCompared) {
  const Stanza a = stanza("interface", "Eth0", "a");
  const Stanza b = stanza("interface", "Eth0", "b");
  const Stanza c = stanza("interface", "Eth0", "c");
  expect_diff({&a, &b}, {&c, &b}, "updated interface Eth0 1;updated interface Eth0 1;");
  // An equal-valued first match is no change.
  const Stanza b_copy = b;
  expect_diff({&b}, {&b_copy, &b}, "");
}

TEST(Diff, ChangeKindNames) {
  EXPECT_EQ(to_string(ChangeKind::kAdded), "added");
  EXPECT_EQ(to_string(ChangeKind::kRemoved), "removed");
  EXPECT_EQ(to_string(ChangeKind::kUpdated), "updated");
}

}  // namespace
}  // namespace mpa
