// Tests for the extension modules: Mahalanobis matching, typed event
// grouping, Miller-Madow MI correction, health metrics, custom causal
// outcomes, and config lint.
#include <gtest/gtest.h>

#include <cmath>

#include "config/lint.hpp"
#include "simulation/config_gen.hpp"
#include "metrics/change_analysis.hpp"
#include "mpa/causal.hpp"
#include "stats/info.hpp"
#include "stats/matching.hpp"
#include "telemetry/health_metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

// ---------------------------------------------------------------- Cholesky

TEST(Cholesky, FactorsKnownMatrix) {
  const Matrix a{{4, 2}, {2, 3}};
  Matrix l;
  ASSERT_TRUE(cholesky(a, l));
  EXPECT_NEAR(l[0][0], 2.0, 1e-12);
  EXPECT_NEAR(l[1][0], 1.0, 1e-12);
  EXPECT_NEAR(l[1][1], std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(l[0][1], 0.0);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix l;
  EXPECT_FALSE(cholesky(Matrix{{1, 2}, {2, 1}}, l));  // eigenvalues 3, -1
}

// ------------------------------------------------------------- Mahalanobis

TEST(Mahalanobis, MatchesNearestInWhitenedSpace) {
  // Feature 2 has 100x the spread of feature 1; raw Euclidean distance
  // would pick the candidate close in f2, Mahalanobis must pick the one
  // close in f1. The scale-establishing background lives on the treated
  // side so it cannot compete as a match target.
  Matrix treated{{1.0, 0.0}};
  Rng rng(1);
  for (int i = 0; i < 200; ++i) treated.push_back({rng.normal(0, 1), rng.normal(0, 100)});
  const Matrix untreated{{1.2, 50.0},   // close in f1 (0.2 sd), far in raw f2
                         {9.0, 5.0}};   // ~8 sd away in f1, close in raw f2
  const MatchResult res = mahalanobis_match(treated, untreated, 0);
  ASSERT_FALSE(res.pairs.empty());
  ASSERT_EQ(res.pairs[0].treated_index, 0u);  // the probe matches first
  EXPECT_EQ(res.pairs[0].untreated_index, 0u);  // the f1-close candidate
}

TEST(Mahalanobis, MaxReuseHonored) {
  Rng rng(2);
  Matrix treated, untreated;
  for (int i = 0; i < 50; ++i) treated.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
  for (int i = 0; i < 30; ++i) untreated.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
  const MatchResult one = mahalanobis_match(treated, untreated, 1);
  EXPECT_EQ(one.untreated_matched_distinct, one.pairs.size());
  EXPECT_LE(one.pairs.size(), 30u);
  const MatchResult unlimited = mahalanobis_match(treated, untreated, 0);
  EXPECT_EQ(unlimited.pairs.size(), 50u);
}

TEST(Mahalanobis, BalancesOverlappingGroups) {
  Rng rng(3);
  Matrix treated, untreated;
  for (int i = 0; i < 3000; ++i) {
    const double z = rng.uniform(0, 1);
    std::vector<double> row{z, 2 * z + rng.normal(0, 0.2)};
    (rng.bernoulli(0.2 + 0.6 * z) ? treated : untreated).push_back(std::move(row));
  }
  const MatchResult res = mahalanobis_match(treated, untreated, 3);
  EXPECT_GT(res.pairs.size(), 200u);
  EXPECT_LT(res.worst_abs_std_diff(), 0.25);
}

TEST(Mahalanobis, ConstantConfounderIsLeftOut) {
  // A confounder equal in every case leaves the covariance singular; it
  // separates no cases, so the pairs are those of the input without it.
  Rng rng(3);
  Matrix treated, untreated;
  for (int i = 0; i < 400; ++i) {
    const double z = rng.uniform(0, 1);
    std::vector<double> row{z, 2 * z + rng.normal(0, 0.2)};
    (rng.bernoulli(0.2 + 0.6 * z) ? treated : untreated).push_back(std::move(row));
  }
  const MatchResult want = mahalanobis_match(treated, untreated, 3);
  for (auto* m : {&treated, &untreated})
    for (auto& row : *m) row.insert(row.begin() + 1, 0.0);
  const MatchResult got = mahalanobis_match(treated, untreated, 3);
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  for (std::size_t k = 0; k < want.pairs.size(); ++k) {
    EXPECT_EQ(got.pairs[k].treated_index, want.pairs[k].treated_index);
    EXPECT_EQ(got.pairs[k].untreated_index, want.pairs[k].untreated_index);
    EXPECT_EQ(got.pairs[k].score_diff, want.pairs[k].score_diff);
  }
  ASSERT_EQ(got.confounder_balance.size(), 3u);
  EXPECT_EQ(got.confounder_balance[1].std_diff_of_means, 0.0);
}

TEST(Mahalanobis, Rejects) {
  EXPECT_THROW(mahalanobis_match({}, {{1.0}}), PreconditionError);
  EXPECT_THROW(mahalanobis_match({{1.0}}, {}), PreconditionError);
}

// ----------------------------------------------------------- typed grouping

ChangeRecord make_change(Timestamp t, const std::string& dev, const std::string& type) {
  ChangeRecord c;
  c.device_id = dev;
  c.network_id = "net";
  c.time = t;
  c.stanza_changes.push_back(StanzaChange{type, type, "x", ChangeKind::kUpdated, 1});
  return c;
}

TEST(TypedGrouping, SeparatesInterleavedActivities) {
  // ACL work and pool work interleaved within delta: plain grouping
  // chains them into one event; typed grouping keeps two.
  std::vector<ChangeRecord> recs{
      make_change(0, "fw0", "acl"), make_change(2, "lb0", "pool"),
      make_change(4, "fw1", "acl"), make_change(6, "lb1", "pool")};
  std::vector<const ChangeRecord*> p;
  for (const auto& r : recs) p.push_back(&r);
  EXPECT_EQ(group_events(p, 5).size(), 1u);
  const auto typed = group_events_typed(p, 5);
  ASSERT_EQ(typed.size(), 2u);
  EXPECT_TRUE(typed[0].touches_type("acl"));
  EXPECT_FALSE(typed[0].touches_type("pool"));
  EXPECT_EQ(typed[0].changes.size(), 2u);
  EXPECT_EQ(typed[1].changes.size(), 2u);
}

TEST(TypedGrouping, ChainsSameTypeAcrossDevices) {
  std::vector<ChangeRecord> recs{make_change(0, "sw0", "vlan"), make_change(3, "sw1", "vlan"),
                                 make_change(30, "sw2", "vlan")};
  std::vector<const ChangeRecord*> p;
  for (const auto& r : recs) p.push_back(&r);
  const auto typed = group_events_typed(p, 5);
  ASSERT_EQ(typed.size(), 2u);  // gap of 27 min splits the third change
  EXPECT_EQ(typed[0].changes.size(), 2u);
}

TEST(TypedGrouping, DeltaZeroDisables) {
  std::vector<ChangeRecord> recs{make_change(0, "a", "acl"), make_change(1, "b", "acl")};
  std::vector<const ChangeRecord*> p;
  for (const auto& r : recs) p.push_back(&r);
  EXPECT_EQ(group_events_typed(p, 0).size(), 2u);
}

TEST(TypedGrouping, MultiTypeChangeBridges) {
  // A change touching both types joins the acl event; a later pool
  // change then chains onto it through the shared pool type.
  std::vector<ChangeRecord> recs{make_change(0, "fw0", "acl"), make_change(2, "lb0", "pool")};
  recs[0].stanza_changes.push_back(StanzaChange{"pool", "pool", "p", ChangeKind::kUpdated, 1});
  std::vector<const ChangeRecord*> p;
  for (const auto& r : recs) p.push_back(&r);
  EXPECT_EQ(group_events_typed(p, 5).size(), 1u);
}

// --------------------------------------------------------- MI bias correction

TEST(MillerMadow, ShrinksSmallSampleMi) {
  Rng rng(7);
  std::vector<int> x, y;
  for (int i = 0; i < 60; ++i) {  // small sample, 10x10 bins: biased MI
    x.push_back(static_cast<int>(rng.uniform_int(0, 9)));
    y.push_back(static_cast<int>(rng.uniform_int(0, 9)));
  }
  const double plug_in = mutual_information(x, y);
  const double corrected = mutual_information_mm(x, y);
  EXPECT_GT(plug_in, 0.3);          // independence, but bias inflates it
  EXPECT_LT(corrected, plug_in);    // correction pulls it down
  EXPECT_GE(corrected, 0.0);
}

TEST(MillerMadow, PreservesStrongDependence) {
  std::vector<int> x, y;
  for (int i = 0; i < 2000; ++i) {
    x.push_back(i % 4);
    y.push_back(i % 4);
  }
  EXPECT_NEAR(mutual_information_mm(x, y), mutual_information(x, y), 0.01);
  EXPECT_GT(mutual_information_mm(x, y), 1.9);
}

// ------------------------------------------------------------ health metrics

TicketLog metric_log() {
  TicketLog log;
  log.add(Ticket{"t1", "n1", 10, 130, {"d1", "d2"}, TicketOrigin::kMonitoringAlarm,
                 "device-unreachable"});
  log.add(Ticket{"t2", "n1", 20, 80, {"d1"}, TicketOrigin::kUserReport, "high-latency"});
  log.add(Ticket{"t3", "n1", 30, 40, {}, TicketOrigin::kMaintenance, "planned-maintenance"});
  log.add(Ticket{"t4", "n1", kMinutesPerMonth + 1, kMinutesPerMonth + 61, {"d3"},
                 TicketOrigin::kMonitoringAlarm, "link-down"});
  return log;
}

TEST(HealthMetrics, SummaryPerMonth) {
  const TicketLog log = metric_log();
  const HealthSummary m0 = summarize_health(log, "n1", 0);
  EXPECT_EQ(m0.tickets, 2);  // maintenance excluded
  EXPECT_EQ(m0.high_impact, 1);
  EXPECT_EQ(m0.user_reported, 1);
  EXPECT_EQ(m0.distinct_devices, 2);
  EXPECT_DOUBLE_EQ(m0.mean_minutes_to_resolve, (120 + 60) / 2.0);
  const HealthSummary m1 = summarize_health(log, "n1", 1);
  EXPECT_EQ(m1.tickets, 1);
  EXPECT_EQ(m1.high_impact, 1);
  EXPECT_EQ(summarize_health(log, "ghost", 0).tickets, 0);
}

TEST(HealthMetrics, HighImpactClassifier) {
  EXPECT_TRUE(is_high_impact_symptom("device-unreachable"));
  EXPECT_TRUE(is_high_impact_symptom("link-down"));
  EXPECT_FALSE(is_high_impact_symptom("high-latency"));
}

// --------------------------------------------------------- custom outcomes

TEST(CausalOutcome, CustomOutcomeChangesConclusion) {
  // Treatment drives outcome A but not outcome B; the same matched
  // design must find the effect only under outcome A.
  Rng rng(11);
  CaseTable table;
  std::vector<double> outcome_b;
  for (int i = 0; i < 3000; ++i) {
    const double z = rng.uniform(0, 10);
    const double treatment = z + rng.uniform(0, 10);
    Case c;
    c.network_id = "n" + std::to_string(i);
    c.month = i % 4;
    c[Practice::kNumChangeEvents] = treatment;
    c[Practice::kNumDevices] = z;
    c.tickets = std::max(0.0, 0.8 * treatment + 0.5 * z + rng.normal(0, 1));
    table.add(c);
    outcome_b.push_back(std::max(0.0, 0.8 * z + rng.normal(0, 1)));  // no treatment term
  }
  const CausalResult with_effect = causal_analysis(table, Practice::kNumChangeEvents);
  const CausalResult without_effect =
      causal_analysis_outcome(table, Practice::kNumChangeEvents, outcome_b);
  ASSERT_NE(with_effect.low_bins(), nullptr);
  ASSERT_NE(without_effect.low_bins(), nullptr);
  EXPECT_LT(with_effect.low_bins()->outcome.p_value, 1e-3);
  EXPECT_GT(without_effect.low_bins()->outcome.p_value, 1e-3);
}

TEST(CausalOutcome, RejectsLengthMismatch) {
  CaseTable table;
  Case c;
  c.network_id = "n";
  table.add(c);
  const std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(causal_analysis_outcome(table, Practice::kNumDevices, wrong), PreconditionError);
}

// ------------------------------------------------------------------- lint

DeviceConfig lint_subject() {
  DeviceConfig c("dev");
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("ip address", "10.0.0.1/24");
  i.set("ip access-group", "ghost-acl");
  i.set("switchport access vlan", "404");
  c.add(i);
  Stanza acl;
  acl.type = "ip access-list";
  acl.name = "empty";
  acl.set("remark", "todo");
  c.add(acl);
  Stanza vs;
  vs.type = "virtual-server";
  vs.name = "vip";
  vs.set("pool", "ghost-pool");
  c.add(vs);
  Stanza lag;
  lag.type = "port-channel";
  lag.name = "ae0";
  lag.set("member", "Eth9");
  c.add(lag);
  return c;
}

int count_rule(const std::vector<Diagnostic>& diags, std::string_view id) {
  int n = 0;
  for (const auto& d : diags)
    if (d.rule_id == id) ++n;
  return n;
}

/// run_lint() over a network given as configs.
std::vector<Diagnostic> lint_configs(const std::vector<DeviceConfig>& configs) {
  const auto views = views_of(configs);
  return run_lint(NetworkView(views));
}

TEST(Lint, FindsDanglingReferences) {
  const auto diags = lint_configs({lint_subject()});
  EXPECT_EQ(count_rule(diags, "dangling-acl-ref"), 1);
  EXPECT_EQ(count_rule(diags, "dangling-vlan-ref"), 1);
  EXPECT_EQ(count_rule(diags, "dangling-pool-ref"), 1);
  EXPECT_EQ(count_rule(diags, "dangling-lag-member"), 1);
  EXPECT_EQ(count_rule(diags, "empty-acl"), 1);
}

TEST(Lint, CleanConfigHasNoIssues) {
  DeviceConfig c("dev");
  Stanza acl;
  acl.type = "ip access-list";
  acl.name = "edge";
  acl.set("permit", "tcp any any eq 443");
  c.add(acl);
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("ip access-group", "edge");
  c.add(i);
  EXPECT_TRUE(lint_configs({c}).empty());
}

TEST(Lint, NetworkLevelDuplicateAddress) {
  DeviceConfig a("a"), b("b");
  for (auto* cfg : {&a, &b}) {
    Stanza i;
    i.type = "interface";
    i.name = "Eth0";
    i.set("ip address", "10.0.0.1/24");
    cfg->add(i);
  }
  const auto diags = lint_configs({a, b});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, "duplicate-address");
  EXPECT_EQ(diags[0].severity, LintSeverity::kError);
}

TEST(Lint, OneSidedBgpSession) {
  DeviceConfig rt("rt"), sw("sw");
  Stanza bgp;
  bgp.type = "router bgp";
  bgp.name = "65001";
  bgp.set("neighbor", "10.0.0.2 remote-as 65001");
  rt.add(bgp);
  Stanza i;
  i.type = "interface";
  i.name = "Eth0";
  i.set("ip address", "10.0.0.2/24");
  sw.add(i);  // sw owns the address but runs no BGP
  EXPECT_EQ(count_rule(lint_configs({rt, sw}), "one-sided-bgp-session"), 1);
}

TEST(Lint, GeneratedConfigsHaveNoBrokenReferences) {
  // The simulator must not produce *broken* configs: every generated
  // reference resolves and protocols agree by construction, so no
  // referential-category or error-severity finding may fire. Hygiene
  // findings (unreferenced ACLs, bare host ports) are expected — they
  // are exactly the realistic config sloppiness the H metrics measure.
  Rng rng(13);
  NetworkDesign design = sample_network_design(3, rng);
  const GeneratedNetwork gen = generate_configs(std::move(design), rng);
  std::vector<DeviceConfig> configs;
  for (const auto& [id, cfg] : gen.configs) configs.push_back(cfg);
  for (const auto& d : lint_configs(configs)) {
    if (d.category == LintCategory::kReferential || d.severity == LintSeverity::kError)
      ADD_FAILURE() << d.device_id << ": " << d.rule_id << " " << d.message;
  }
}

}  // namespace
}  // namespace mpa
