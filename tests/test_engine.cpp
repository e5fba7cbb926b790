// Tests for the engine layer: AnalysisSession memoization and
// incremental appends, the persistent ArtifactStore, and the determinism
// contract — same seed + dataset must yield bit-identical case
// tables, causal results, and CV evaluations across 1, 2, and 8
// threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "engine/session.hpp"
#include "io/dataset_io.hpp"
#include "mutation.hpp"
#include "obs/metrics.hpp"
#include "simulation/osp_generator.hpp"
#include "telemetry/time.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

constexpr int kNetworks = 40;
constexpr int kMonths = 6;

OspDataset test_osp() {
  OspOptions opts;
  opts.num_networks = kNetworks;
  opts.num_months = kMonths;
  opts.seed = 99;
  return generate_osp(opts);
}

AnalysisSession make_session(int threads, SessionOptions opts = {}) {
  OspDataset data = test_osp();
  opts.threads = threads;
  opts.inference.num_months = kMonths;
  return AnalysisSession(std::move(data.inventory), std::move(data.snapshots),
                         std::move(data.tickets), std::move(opts));
}

TEST(Session, MemoizesAndInvalidates) {
  AnalysisSession session = make_session(2);
  const CaseTable* first = &session.case_table();
  const CaseTable* again = &session.case_table();
  EXPECT_EQ(first, again);
  EXPECT_EQ(session.stats().table_builds, 1u);
  EXPECT_EQ(session.stats().hits, 1u);

  const CausalResult* causal = &session.causal(Practice::kNumChangeEvents);
  EXPECT_EQ(causal, &session.causal(Practice::kNumChangeEvents));
  EXPECT_EQ(session.stats().causal_runs, 1u);

  const EvalResult* cv = &session.evaluate_cv(2, ModelKind::kDecisionTree);
  EXPECT_EQ(cv, &session.evaluate_cv(2, ModelKind::kDecisionTree));
  EXPECT_EQ(session.stats().cv_runs, 1u);

  // The memo is per session: a fresh one over the same data rebuilds.
  AnalysisSession fresh = make_session(2);
  EXPECT_EQ(fresh.case_table().to_csv(), first->to_csv());
  EXPECT_EQ(fresh.stats().table_builds, 1u);
}

TEST(Session, CaseTableBitIdenticalAcrossThreadCounts) {
  AnalysisSession serial = make_session(1);
  const std::string expected = serial.case_table().to_csv();
  EXPECT_EQ(serial.threads(), 1);
  for (int threads : {2, 8}) {
    AnalysisSession session = make_session(threads);
    EXPECT_EQ(session.threads(), threads);
    EXPECT_EQ(session.case_table().to_csv(), expected) << threads << " threads";
  }
}

TEST(Session, CausalBitIdenticalAcrossThreadCounts) {
  AnalysisSession serial = make_session(1);
  const CausalResult& expected = serial.causal(Practice::kNumChangeEvents);
  ASSERT_FALSE(expected.comparisons.empty());
  for (int threads : {2, 8}) {
    AnalysisSession session = make_session(threads);
    const CausalResult& got = session.causal(Practice::kNumChangeEvents);
    ASSERT_EQ(got.comparisons.size(), expected.comparisons.size()) << threads << " threads";
    for (std::size_t i = 0; i < expected.comparisons.size(); ++i) {
      const ComparisonResult& e = expected.comparisons[i];
      const ComparisonResult& g = got.comparisons[i];
      EXPECT_EQ(g.untreated_bin, e.untreated_bin);
      EXPECT_EQ(g.untreated_cases, e.untreated_cases);
      EXPECT_EQ(g.treated_cases, e.treated_cases);
      EXPECT_EQ(g.pairs, e.pairs);
      EXPECT_EQ(g.worst_abs_std_diff, e.worst_abs_std_diff);  // bitwise
      EXPECT_EQ(g.vr_pass_fraction, e.vr_pass_fraction);
      EXPECT_EQ(g.balanced, e.balanced);
      EXPECT_EQ(g.outcome.p_value, e.outcome.p_value);
      EXPECT_EQ(g.outcome.n_pos, e.outcome.n_pos);
      EXPECT_EQ(g.outcome.n_neg, e.outcome.n_neg);
      EXPECT_EQ(g.causal, e.causal);
    }
  }
}

TEST(Session, CvBitIdenticalAcrossThreadCounts) {
  AnalysisSession serial = make_session(1);
  const EvalResult& expected = serial.evaluate_cv(2, ModelKind::kDtBoostOversample);
  for (int threads : {2, 8}) {
    AnalysisSession session = make_session(threads);
    const EvalResult& got = session.evaluate_cv(2, ModelKind::kDtBoostOversample);
    EXPECT_EQ(got.accuracy, expected.accuracy) << threads << " threads";  // bitwise
    EXPECT_EQ(got.confusion, expected.confusion) << threads << " threads";
  }
}

TEST(Session, DependenceBitIdenticalAcrossThreadCounts) {
  AnalysisSession serial = make_session(1);
  const DependenceAnalysis& expected = serial.dependence();
  ASSERT_FALSE(expected.mi_ranking().empty());
  ASSERT_FALSE(expected.cmi_ranking().empty());
  for (int threads : {2, 8}) {
    AnalysisSession session = make_session(threads);
    const DependenceAnalysis& got = session.dependence();
    ASSERT_EQ(got.mi_ranking().size(), expected.mi_ranking().size()) << threads << " threads";
    for (std::size_t i = 0; i < expected.mi_ranking().size(); ++i) {
      EXPECT_EQ(got.mi_ranking()[i].practice, expected.mi_ranking()[i].practice);
      EXPECT_EQ(got.mi_ranking()[i].avg_monthly_mi,
                expected.mi_ranking()[i].avg_monthly_mi);  // bitwise
    }
    ASSERT_EQ(got.cmi_ranking().size(), expected.cmi_ranking().size()) << threads << " threads";
    for (std::size_t i = 0; i < expected.cmi_ranking().size(); ++i) {
      EXPECT_EQ(got.cmi_ranking()[i].a, expected.cmi_ranking()[i].a);
      EXPECT_EQ(got.cmi_ranking()[i].b, expected.cmi_ranking()[i].b);
      EXPECT_EQ(got.cmi_ranking()[i].avg_monthly_cmi, expected.cmi_ranking()[i].avg_monthly_cmi);
    }
  }
}

TEST(Session, DependenceMemoizedAndPoolWired) {
  AnalysisSession session = make_session(2);
  const DependenceAnalysis* first = &session.dependence();
  EXPECT_EQ(first, &session.dependence());
  const std::size_t k = analysis_practices().size();
  EXPECT_EQ(first->cmi_ranking().size(), k * (k - 1) / 2);
  // The session fanned the pairs out on its pool (jobs counter moved).
  EXPECT_GT(session.pool().stats().jobs, 0u);
}

TEST(Session, OnlineAccuracyBitIdenticalAcrossThreadCounts) {
  AnalysisSession serial = make_session(1);
  const double expected =
      serial.online_accuracy(2, 2, ModelKind::kDecisionTree, 2, kMonths - 1);
  for (int threads : {2, 8}) {
    AnalysisSession session = make_session(threads);
    EXPECT_EQ(session.online_accuracy(2, 2, ModelKind::kDecisionTree, 2, kMonths - 1),
              expected)
        << threads << " threads";
  }
}

TEST(Session, CvIndependentOfRequestOrder) {
  AnalysisSession a = make_session(2);
  AnalysisSession b = make_session(2);
  // b computes other artifacts first; the DT evaluation must not care.
  b.evaluate_cv(2, ModelKind::kMajority);
  b.causal(Practice::kNumDevices);
  EXPECT_EQ(a.evaluate_cv(2, ModelKind::kDecisionTree).accuracy,
            b.evaluate_cv(2, ModelKind::kDecisionTree).accuracy);
}

TEST(Session, LintMemoizedAndInvalidated) {
  AnalysisSession session = make_session(2);
  const LintReport* first = &session.lint();
  EXPECT_EQ(first, &session.lint());
  EXPECT_EQ(session.stats().lint_runs, 1u);
  EXPECT_EQ(session.stats().hits, 1u);
  EXPECT_EQ(first->networks.size(), static_cast<std::size_t>(kNetworks));
  EXPECT_GT(first->total_findings(), 0u);  // hygiene findings exist by design
  for (const auto& net : first->networks) EXPECT_GT(net.num_devices, 0u);

  // The memo is per session: a fresh one over the same data re-lints.
  AnalysisSession fresh = make_session(2);
  EXPECT_EQ(fresh.lint().to_csv(), first->to_csv());
  EXPECT_EQ(fresh.stats().lint_runs, 1u);
}

TEST(Session, LintBitIdenticalAcrossThreadCounts) {
  AnalysisSession serial = make_session(1);
  const std::string expected = serial.lint().to_csv();
  for (int threads : {2, 8}) {
    AnalysisSession session = make_session(threads);
    EXPECT_EQ(session.lint().to_csv(), expected) << threads << " threads";
  }
}

std::uint64_t fnv_of(const std::string& s) {
  Fnv h;
  h.str(s);
  return h.value();
}

// The thread-count and format identity tests compare a binary with
// itself; this pins the case CSV and the lint CSV (every finding and
// its span) to fixed values, so a refactor that shifts a practice
// value or a span consistently still fails. The fixture is the CI
// dataset shape: 8 networks x 4 months, seed 3, one thread.
TEST(Session, PinnedCaseAndLintDigests) {
  OspOptions gen;
  gen.num_networks = 8;
  gen.num_months = 4;
  gen.seed = 3;
  OspDataset data = generate_osp(gen);
  SessionOptions opts;
  opts.threads = 1;
  opts.inference.num_months = gen.num_months;
  AnalysisSession session(std::move(data.inventory), std::move(data.snapshots),
                          std::move(data.tickets), std::move(opts));
  EXPECT_EQ(fnv_of(session.case_table().to_csv()), 0x03423e45707bc37dULL);
  EXPECT_EQ(fnv_of(session.lint().to_csv()), 0x25f02135979de222ULL);
}

void fnv_double(Fnv& h, double v) { h.bytes(&v, sizeof v); }

void fnv_eval(Fnv& h, const EvalResult& r) {
  fnv_double(h, r.accuracy);
  for (double v : r.precision) fnv_double(h, v);
  for (double v : r.recall) fnv_double(h, v);
  for (const auto& row : r.confusion)
    for (int n : row) h.u64(static_cast<std::uint64_t>(n));
}

// Pins every analysis answer the propensity fit, the tree learner and
// the binner feed: each field of every causal comparison (for every
// analysis practice), the boosted-tree CV evaluations at 2 and 5
// classes, and two online accuracies. The thread-count tests compare a
// binary with itself, so a kernel rewrite that moved one rounding step
// everywhere would pass them; these fixed values would not.
TEST(Session, PinnedAnalysisDigests) {
  AnalysisSession session = make_session(1);
  Fnv causal;
  for (Practice p : analysis_practices()) {
    const CausalResult& r = session.causal(p);
    causal.u64(static_cast<std::uint64_t>(r.treatment));
    for (const ComparisonResult& c : r.comparisons) {
      causal.u64(static_cast<std::uint64_t>(c.untreated_bin));
      causal.u64(c.untreated_cases);
      causal.u64(c.treated_cases);
      causal.u64(c.pairs);
      causal.u64(c.untreated_matched);
      fnv_double(causal, c.propensity_balance.std_diff_of_means);
      fnv_double(causal, c.propensity_balance.variance_ratio);
      fnv_double(causal, c.worst_abs_std_diff);
      fnv_double(causal, c.vr_pass_fraction);
      causal.u64(c.balanced ? 1 : 0);
      causal.u64(static_cast<std::uint64_t>(c.outcome.n_pos));
      causal.u64(static_cast<std::uint64_t>(c.outcome.n_neg));
      causal.u64(static_cast<std::uint64_t>(c.outcome.n_zero));
      fnv_double(causal, c.outcome.p_value);
      causal.u64(c.causal ? 1 : 0);
    }
  }
  Fnv cv;
  for (int classes : {2, 5})
    fnv_eval(cv, session.evaluate_cv(classes, ModelKind::kDtBoostOversample));
  Fnv online;
  for (const auto& [classes, history] : {std::pair{2, 1}, std::pair{5, 3}})
    fnv_double(online, session.online_accuracy(classes, history, ModelKind::kDtBoostOversample,
                                               std::min(kMonths - 1, history), kMonths - 1));
  EXPECT_EQ(causal.value(), 0xa493a3e95e1b2648ULL);
  EXPECT_EQ(cv.value(), 0xe4d7d8e30d363fcaULL);
  EXPECT_EQ(online.value(), 0xbef0ef8b4dcf8d71ULL);
}

TEST(Session, LintFindingsResolveSpans) {
  AnalysisSession session = make_session(2);
  std::size_t resolved = 0, total = 0;
  for (const auto& net : session.lint().networks) {
    for (const auto& d : net.diagnostics) {
      ++total;
      if (d.span.resolved()) ++resolved;
    }
  }
  ASSERT_GT(total, 0u);
  // Every finding anchored to a stanza of rendered text has a span.
  EXPECT_EQ(resolved, total);
}

TEST(Session, PersistsLintReportThroughArtifactStore) {
  SessionOptions opts;
  opts.artifact_dir = testing::TempDir();
  opts.artifact_key = "mpa_engine_test_lint";
  ArtifactStore(opts.artifact_dir).remove(opts.artifact_key);

  AnalysisSession first = make_session(2, opts);
  const std::string csv = first.lint().to_csv();
  EXPECT_EQ(first.stats().lint_runs, 1u);
  EXPECT_EQ(first.stats().lint_loads, 0u);

  AnalysisSession second = make_session(2, opts);
  EXPECT_EQ(second.lint().to_csv(), csv);
  EXPECT_EQ(second.stats().lint_runs, 0u);
  EXPECT_EQ(second.stats().lint_loads, 1u);
  ArtifactStore(opts.artifact_dir).remove(opts.artifact_key);
}

TEST(ArtifactStore, LintReportRoundTripAndCorruptionMiss) {
  const std::string dir = testing::TempDir();
  const ArtifactStore store(dir);
  const std::string key = "mpa_engine_test_lint_artifact";
  store.remove(key);

  AnalysisSession session = make_session(1);
  const LintReport& report = session.lint();
  ASSERT_TRUE(store.save_lint_report(key, report));
  const auto loaded = store.load_lint_report(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->to_csv(), report.to_csv());

  {
    std::ofstream out(store.path_for(key + ".lint"));
    out << "record,network_id\nnet,broken\n";
  }
  EXPECT_FALSE(store.load_lint_report(key).has_value());
  store.remove(key);
  EXPECT_FALSE(store.load_lint_report(key).has_value());
}

TEST(ArtifactStore, CsvArtifactsKeepSeparatorsInFields) {
  // Stanza names, messages and ids are outside text: a comma, quote or
  // line break in them must survive the store's reload unchanged.
  const std::string dir = testing::TempDir();
  const ArtifactStore store(dir);
  const std::string key = "mpa_engine_test_csv_fields";
  store.remove(key);

  Diagnostic d;
  d.rule_id = "unused-interface";
  d.severity = LintSeverity::kWarning;
  d.category = LintCategory::kHygiene;
  d.device_id = "dev\n1";
  d.object = "interface Gi0/1,\"x\"";
  d.message = "x,enabled but unused";
  d.span.first_line = 3;
  d.span.last_line = 5;
  LintReport report;
  report.networks.push_back(NetworkLint{"net7", 1, {d}});
  ASSERT_TRUE(store.save_lint_report(key, report));
  const auto lint = store.load_lint_report(key);
  ASSERT_TRUE(lint.has_value());
  ASSERT_EQ(lint->total_findings(), 1u);
  const Diagnostic& back = lint->networks[0].diagnostics[0];
  EXPECT_EQ(back.device_id, d.device_id);
  EXPECT_EQ(back.object, d.object);
  EXPECT_EQ(back.message, d.message);
  EXPECT_EQ(back.span.last_line, 5);
  EXPECT_EQ(lint->to_csv(), report.to_csv());

  Case c;
  c.network_id = "net,1";
  c.month = 2;
  c.practice.fill(0.5);
  c.tickets = 3;
  const CaseTable table({c});
  ASSERT_TRUE(store.save_case_table(key, table));
  const auto loaded = store.load_case_table(key);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].network_id, "net,1");
  EXPECT_EQ(loaded->to_csv(), table.to_csv());
  store.remove(key);
}

// --- defective stored CSVs ------------------------------------------------

/// The CI-shaped fixture (8 networks x 4 months, seed 3), keyed into
/// `dir` under `key` when `key` is not empty.
AnalysisSession small_session(const std::string& dir = "", const std::string& key = "") {
  OspOptions gen;
  gen.num_networks = 8;
  gen.num_months = 4;
  gen.seed = 3;
  OspDataset data = generate_osp(gen);
  SessionOptions opts;
  opts.threads = 1;
  opts.inference.num_months = gen.num_months;
  opts.artifact_dir = dir;
  opts.artifact_key = key;
  return AnalysisSession(std::move(data.inventory), std::move(data.snapshots),
                         std::move(data.tickets), std::move(opts));
}

/// `csv` with cell `col` of line `line` (0 = the header) replaced by
/// `value`. The cells before `col` must hold no commas.
std::string with_cell(const std::string& csv, std::size_t line, std::size_t col,
                      const std::string& value) {
  const std::vector<std::string_view> line_views = split_views(csv, '\n');
  const std::vector<std::string_view> cell_views = split_views(line_views.at(line), ',');
  std::vector<std::string> lines(line_views.begin(), line_views.end());
  std::vector<std::string> cells(cell_views.begin(), cell_views.end());
  cells.at(col) = value;
  lines[line] = join(cells, ",");
  return join(lines, "\n");
}

struct Defect {
  std::string name;
  std::string csv;
  std::string message;  ///< Expected in the DataError's what().
};

/// One stored case table per defect, each wrong in one cell of the
/// first data row (row 2; the header is row 1).
std::vector<Defect> case_table_defects(const std::string& csv) {
  const std::size_t tickets_col = 2 + kNumPractices;
  const std::string practice(split_views(split_views(csv, '\n').at(0), ',').at(2));
  return {
      {"nan practice", with_cell(csv, 1, 2, "nan"), "row 2, column " + practice},
      {"inf tickets", with_cell(csv, 1, tickets_col, "inf"), "row 2, column tickets"},
      {"trailing bytes", with_cell(csv, 1, 1, "3x"), "row 2, column month"},
      {"month -1", with_cell(csv, 1, 1, "-1"), "row 2, column month"},
      {"month too late", with_cell(csv, 1, 1, std::to_string(kMaxMonths)), "row 2, column month"},
      {"wrong header", with_cell(csv, 0, 2, practice + "_renamed"), "header"},
  };
}

/// One stored lint report per defect: an integer cell too long for int.
/// Line index of the first finding row of a lint report CSV.
std::size_t first_finding_line(const std::string& csv) {
  const std::vector<std::string_view> lines = split_views(csv, '\n');
  std::size_t line = 0;
  while (!lines.at(line).starts_with("diag,")) ++line;
  return line;
}

std::vector<Defect> lint_report_defects(const std::string& csv) {
  const std::size_t diag = first_finding_line(csv);
  const std::string at = "row " + std::to_string(diag + 1) + ": ";
  const std::string too_long = "99999999999";
  return {
      {"device count", with_cell(csv, 1, 2, too_long), "row 2: device count"},
      {"first_line", with_cell(csv, diag, 5, too_long), at + "first_line"},
      {"INT_MAX + 1", with_cell(csv, diag, 6, "2147483648"), at + "last_line"},
  };
}

/// Each defect must fail `parse` with a DataError carrying its message.
template <typename Parse>
void expect_each_rejected(const std::vector<Defect>& defects, Parse parse) {
  for (const Defect& defect : defects) {
    try {
      parse(defect.csv);
      ADD_FAILURE() << defect.name << ": loaded";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find(defect.message), std::string::npos)
          << defect.name << ": " << e.what();
    }
  }
}

TEST(StoredCsv, EachDefectIsADataErrorNamingRowAndColumn) {
  AnalysisSession session = small_session();
  const auto parse_table = [](const std::string& csv) { CaseTable::from_csv(csv); };
  const auto parse_lint = [](const std::string& csv) { LintReport::from_csv(csv); };
  expect_each_rejected(case_table_defects(session.case_table().to_csv()), parse_table);
  expect_each_rejected(lint_report_defects(session.lint().to_csv()), parse_lint);
  // INT_MAX itself is a valid line number.
  const std::string lint_csv = session.lint().to_csv();
  const LintReport max =
      LintReport::from_csv(with_cell(lint_csv, first_finding_line(lint_csv), 6, "2147483647"));
  ASSERT_FALSE(max.networks.empty());
}

TEST(StoredCsv, KeyedSessionRecomputesOverEachDefectiveEntry) {
  const std::string dir = testing::TempDir();
  const ArtifactStore store(dir);
  const std::string key = "mpa_engine_test_defective_entry";
  AnalysisSession plain = small_session();
  const std::string table_csv = plain.case_table().to_csv();
  const std::string lint_csv = plain.lint().to_csv();

  for (const Defect& defect : case_table_defects(table_csv)) {
    store.remove(key);
    std::ofstream(store.path_for(key)) << defect.csv;
    AnalysisSession keyed = small_session(dir, key);
    EXPECT_EQ(keyed.case_table().to_csv(), table_csv) << defect.name;
    EXPECT_EQ(keyed.stats().table_loads, 0u) << defect.name;
    EXPECT_EQ(keyed.stats().table_builds, 1u) << defect.name;
  }
  for (const Defect& defect : lint_report_defects(lint_csv)) {
    store.remove(key);
    std::ofstream(store.path_for(key + ".lint")) << defect.csv;
    AnalysisSession keyed = small_session(dir, key);
    EXPECT_EQ(keyed.lint().to_csv(), lint_csv) << defect.name;
    EXPECT_EQ(keyed.stats().lint_loads, 0u) << defect.name;
    EXPECT_EQ(keyed.stats().lint_runs, 1u) << defect.name;
  }
  store.remove(key);
}

TEST(StoredCsv, FuzzMutantsLoadOrRaiseDataError) {
  AnalysisSession session = small_session();
  const std::string table_csv = session.case_table().to_csv();
  const std::string lint_csv = session.lint().to_csv();
  Rng rng(fuzz_seed(21));
  std::size_t loaded = 0, rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    try {
      const CaseTable table = CaseTable::from_csv(mutate(table_csv, lint_csv, rng));
      for (const Case& c : table.cases()) {
        ASSERT_GE(c.month, 0);
        ASSERT_LT(c.month, kMaxMonths);
        ASSERT_TRUE(std::isfinite(c.tickets));
        for (double v : c.practice) ASSERT_TRUE(std::isfinite(v));
      }
      ++loaded;
    } catch (const DataError&) {
      ++rejected;
    }
    try {
      LintReport::from_csv(mutate(lint_csv, table_csv, rng));
      ++loaded;
    } catch (const DataError&) {
      ++rejected;
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ArtifactStore, DisabledStoreMissesAndIgnoresSaves) {
  const ArtifactStore store;
  EXPECT_FALSE(store.enabled());
  EXPECT_FALSE(store.load_case_table("anything").has_value());
  EXPECT_FALSE(store.save_case_table("anything", CaseTable{}));
}

TEST(ArtifactStore, RoundTripsAndTreatsCorruptionAsMiss) {
  const std::string dir = testing::TempDir();
  const ArtifactStore store(dir);
  const std::string key = "mpa_engine_test_artifact";
  store.remove(key);

  AnalysisSession session = make_session(1);
  const CaseTable& table = session.case_table();
  ASSERT_TRUE(store.save_case_table(key, table));
  const auto loaded = store.load_case_table(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->to_csv(), table.to_csv());

  {
    std::ofstream out(store.path_for(key));
    out << "not,a,case,table\n1,2\n";
  }
  EXPECT_FALSE(store.load_case_table(key).has_value());
  store.remove(key);
  EXPECT_FALSE(store.load_case_table(key).has_value());
}

TEST(Session, PersistsCaseTableThroughArtifactStore) {
  SessionOptions opts;
  opts.artifact_dir = testing::TempDir();
  opts.artifact_key = "mpa_engine_test_session";
  ArtifactStore(opts.artifact_dir).remove(opts.artifact_key);

  AnalysisSession first = make_session(2, opts);
  const std::string csv = first.case_table().to_csv();
  EXPECT_EQ(first.stats().table_builds, 1u);
  EXPECT_EQ(first.stats().table_loads, 0u);

  AnalysisSession second = make_session(2, opts);
  EXPECT_EQ(second.case_table().to_csv(), csv);
  EXPECT_EQ(second.stats().table_builds, 0u);
  EXPECT_EQ(second.stats().table_loads, 1u);
  ArtifactStore(opts.artifact_dir).remove(opts.artifact_key);
}

// --- run manifests ----------------------------------------------------

TEST(RunManifest, RecordsStagesWithSources) {
  AnalysisSession session = make_session(2);
  session.case_table();
  session.case_table();  // memo hit
  session.lint();
  const RunManifest m = session.manifest();
  ASSERT_EQ(m.stages.size(), 3u);
  EXPECT_EQ(m.stages[0].stage, "case_table");
  EXPECT_EQ(m.stages[0].source, "computed");
  EXPECT_GT(m.stages[0].seconds, 0.0);
  EXPECT_EQ(m.stages[1].stage, "case_table");
  EXPECT_EQ(m.stages[1].source, "memo");
  EXPECT_EQ(m.stages[2].stage, "lint");
  EXPECT_EQ(m.stages[2].source, "computed");
  EXPECT_EQ(m.threads, 2);
  EXPECT_EQ(m.months, kMonths);
  EXPECT_EQ(m.networks, static_cast<std::uint64_t>(kNetworks));
  EXPECT_EQ(m.cache.at("hits"), 1u);
  EXPECT_EQ(m.cache.at("table_builds"), 1u);
  EXPECT_EQ(m.cache.at("lint_runs"), 1u);
  EXPECT_EQ(m.dataset_fingerprint.size(), 16u);
}

TEST(RunManifest, FingerprintStableAndDataSensitive) {
  const OspDataset a = test_osp();
  const OspDataset b = test_osp();
  const std::uint64_t ha = dataset_fingerprint(a.inventory, a.snapshots, a.tickets);
  EXPECT_EQ(ha, dataset_fingerprint(b.inventory, b.snapshots, b.tickets));

  OspOptions other;
  other.num_networks = kNetworks;
  other.num_months = kMonths;
  other.seed = 100;  // one seed apart: every source differs
  const OspDataset c = generate_osp(other);
  EXPECT_NE(ha, dataset_fingerprint(c.inventory, c.snapshots, c.tickets));
  EXPECT_EQ(fingerprint_hex(ha).size(), 16u);
}

TEST(RunManifest, JsonRoundTrip) {
  AnalysisSession session = make_session(1);
  session.case_table();
  const RunManifest m = session.manifest();
  const RunManifest back = RunManifest::from_json(m.to_json());
  EXPECT_EQ(back.dataset_fingerprint, m.dataset_fingerprint);
  EXPECT_EQ(back.seed, m.seed);
  EXPECT_EQ(back.threads, m.threads);
  EXPECT_EQ(back.months, m.months);
  EXPECT_EQ(back.networks, m.networks);
  EXPECT_EQ(back.devices, m.devices);
  EXPECT_EQ(back.snapshots, m.snapshots);
  EXPECT_EQ(back.tickets, m.tickets);
  ASSERT_EQ(back.stages.size(), m.stages.size());
  for (std::size_t i = 0; i < m.stages.size(); ++i) {
    EXPECT_EQ(back.stages[i].stage, m.stages[i].stage);
    EXPECT_EQ(back.stages[i].source, m.stages[i].source);
    EXPECT_DOUBLE_EQ(back.stages[i].seconds, m.stages[i].seconds);
  }
  EXPECT_EQ(back.cache, m.cache);
  EXPECT_EQ(back.counters, m.counters);
  // And the round trip is textually a fixed point.
  EXPECT_EQ(back.to_json(), m.to_json());
}

TEST(RunManifest, CountsOutsideIntAreRejectedByName) {
  // Regression: threads 4294967297 and months 4294967300 were cast to
  // int, so `report` printed threads 1 and months 4.
  const std::string json = RunManifest{}.to_json();
  for (const std::string field : {"threads", "months"}) {
    for (const char* bad : {"4294967297", "4294967300", "-1", "2.5"}) {
      std::string edited = json;
      const std::string from = "\"" + field + "\":0";
      edited.replace(edited.find(from), from.size(), "\"" + field + "\":" + bad);
      try {
        RunManifest::from_json(edited);
        ADD_FAILURE() << field << " " << bad << " accepted";
      } catch (const DataError& e) {
        EXPECT_NE(std::string(e.what()).find("run manifest: " + field + ":"), std::string::npos)
            << e.what();
      }
    }
  }
  // A whole number is read by value, like a request's integer fields.
  std::string whole = json;
  whole.replace(whole.find("\"threads\":0"), 11, "\"threads\":4.0");
  EXPECT_EQ(RunManifest::from_json(whole).threads, 4);
}

TEST(RunManifest, InfiniteStageSecondsAreADataError) {
  // Regression: strtod read 1e999 as infinity, and `report` printed a
  // stage that took "inf" seconds.
  RunManifest m;
  m.stages.push_back(StageRun{"case_table", "computed", 0.5});
  std::string json = m.to_json();
  const std::string from = "\"seconds\":0.5";
  EXPECT_NO_THROW(RunManifest::from_json(json));
  json.replace(json.find(from), from.size(), "\"seconds\":1e999");
  EXPECT_THROW(RunManifest::from_json(json), DataError);
}

TEST(RunManifest, KeyedSessionPersistsManifestBesideArtifacts) {
  SessionOptions opts;
  opts.artifact_dir = testing::TempDir();
  opts.artifact_key = "mpa_engine_test_manifest";
  const ArtifactStore store(opts.artifact_dir);
  store.remove(opts.artifact_key);

  {
    AnalysisSession session = make_session(2, opts);
    session.case_table();
  }  // dtor persists <key>.manifest.json
  const auto json = store.load_manifest_json(opts.artifact_key);
  ASSERT_TRUE(json.has_value());
  const RunManifest m = RunManifest::from_json(*json);
  EXPECT_EQ(m.artifact_key, opts.artifact_key);
  ASSERT_EQ(m.stages.size(), 1u);
  EXPECT_EQ(m.stages[0].source, "computed");

  // A rebuilt session over the same data serves from the store and
  // says so in its manifest; the fingerprint matches the first run.
  {
    AnalysisSession session = make_session(2, opts);
    session.case_table();
  }
  const RunManifest second = RunManifest::from_json(*store.load_manifest_json(opts.artifact_key));
  EXPECT_EQ(second.stages.at(0).source, "store");
  EXPECT_EQ(second.dataset_fingerprint, m.dataset_fingerprint);

  // remove() drops the manifest along with the artifacts.
  store.remove(opts.artifact_key);
  EXPECT_FALSE(store.load_manifest_json(opts.artifact_key).has_value());
}

// --- incremental month-delta ingestion (DESIGN.md §13) ----------------

/// Split the canonical test dataset at `first_delta_month`.
SplitDataset split_osp(int first_delta_month) {
  OspDataset data = test_osp();
  return split_dataset(DiskDataset{std::move(data.inventory), std::move(data.snapshots),
                                   std::move(data.tickets)},
                       first_delta_month);
}

/// The merged containers after replaying every delta over the base —
/// exactly the data an appended session holds, so a from-scratch
/// session over them is the bit-exactness oracle.
DiskDataset replay_split(const SplitDataset& split) {
  DiskDataset merged{split.base.inventory, split.base.snapshots, split.base.tickets};
  for (const MonthDelta& delta : split.deltas) {
    for (const auto& s : delta.snapshots) merged.snapshots.add(s);
    for (const auto& t : delta.tickets) merged.tickets.add(t);
  }
  return merged;
}

AnalysisSession session_over(const DiskDataset& data, int months, int threads) {
  SessionOptions opts;
  opts.threads = threads;
  opts.inference.num_months = months;
  return AnalysisSession(data.inventory, data.snapshots, data.tickets, std::move(opts));
}

void expect_same_rankings(const DependenceAnalysis& got, const DependenceAnalysis& want) {
  ASSERT_EQ(got.mi_ranking().size(), want.mi_ranking().size());
  for (std::size_t i = 0; i < want.mi_ranking().size(); ++i) {
    EXPECT_EQ(got.mi_ranking()[i].practice, want.mi_ranking()[i].practice);
    EXPECT_EQ(got.mi_ranking()[i].avg_monthly_mi,
              want.mi_ranking()[i].avg_monthly_mi);  // bitwise
  }
  ASSERT_EQ(got.cmi_ranking().size(), want.cmi_ranking().size());
  for (std::size_t i = 0; i < want.cmi_ranking().size(); ++i) {
    EXPECT_EQ(got.cmi_ranking()[i].a, want.cmi_ranking()[i].a);
    EXPECT_EQ(got.cmi_ranking()[i].b, want.cmi_ranking()[i].b);
    EXPECT_EQ(got.cmi_ranking()[i].avg_monthly_cmi, want.cmi_ranking()[i].avg_monthly_cmi);
  }
}

TEST(SessionAppend, IncrementalEqualsFromScratchBitExactAcrossThreadCounts) {
  const SplitDataset split = split_osp(2);
  ASSERT_EQ(split.deltas.size(), static_cast<std::size_t>(kMonths - 2));

  AnalysisSession oracle = session_over(replay_split(split), kMonths, 1);
  const std::string want_table = oracle.case_table().to_csv();
  const std::string want_lint = oracle.lint().to_csv();
  const std::string want_fp = oracle.manifest().dataset_fingerprint;
  Rng oracle_rng(123);
  const auto want_ci =
      oracle.dependence().mi_confidence_interval(Practice::kNumChangeEvents, oracle_rng, 50);

  for (int threads : {1, 2, 8}) {
    AnalysisSession session = session_over(split.base, 2, threads);
    // Warm every maintained artifact so the appends exercise the
    // incremental paths rather than leaving lazy rebuilds to hide bugs.
    session.case_table();
    session.lint();
    session.dependence();
    for (const MonthDelta& delta : split.deltas) {
      const AnalysisSession::AppendResult res = session.append_month(delta);
      EXPECT_EQ(res.month, delta.month);
      EXPECT_TRUE(res.table_incremental) << "month " << delta.month;
      EXPECT_TRUE(res.lint_incremental) << "month " << delta.month;
    }
    EXPECT_EQ(session.num_months(), kMonths);
    EXPECT_EQ(session.stats().appends, split.deltas.size());

    EXPECT_EQ(session.case_table().to_csv(), want_table) << threads << " threads";
    EXPECT_EQ(session.lint().to_csv(), want_lint) << threads << " threads";
    expect_same_rankings(session.dependence(), oracle.dependence());
    Rng rng(123);
    const auto ci =
        session.dependence().mi_confidence_interval(Practice::kNumChangeEvents, rng, 50);
    EXPECT_EQ(ci.first, want_ci.first) << threads << " threads";  // bitwise
    EXPECT_EQ(ci.second, want_ci.second) << threads << " threads";
    EXPECT_EQ(session.manifest().dataset_fingerprint, want_fp) << threads << " threads";
  }
}

TEST(SessionAppend, EverySplitPointConvergesToTheSameArtifacts) {
  // Randomized append sequences: the same final dataset reached through
  // different base/delta cuts (5, 3, then 1 appended months) must land
  // on bit-identical artifacts, warm or cold.
  const SplitDataset reference = split_osp(1);
  AnalysisSession oracle = session_over(replay_split(reference), kMonths, 1);
  const std::string want_table = oracle.case_table().to_csv();
  const std::string want_lint = oracle.lint().to_csv();

  for (int cut : {1, 3, 5}) {
    const SplitDataset split = split_osp(cut);
    AnalysisSession warm = session_over(split.base, cut, 2);
    warm.case_table();
    warm.lint();
    warm.dependence();
    AnalysisSession cold = session_over(split.base, cut, 2);
    for (const MonthDelta& delta : split.deltas) {
      warm.append_month(delta);
      // A cold session has nothing resident to maintain; append_month
      // only ingests the records and the artifacts build lazily.
      const AnalysisSession::AppendResult res = cold.append_month(delta);
      EXPECT_FALSE(res.table_incremental);
    }
    EXPECT_EQ(warm.case_table().to_csv(), want_table) << "cut " << cut;
    EXPECT_EQ(warm.lint().to_csv(), want_lint) << "cut " << cut;
    EXPECT_EQ(cold.case_table().to_csv(), want_table) << "cut " << cut;
    EXPECT_EQ(cold.lint().to_csv(), want_lint) << "cut " << cut;
    expect_same_rankings(warm.dependence(), oracle.dependence());
    expect_same_rankings(cold.dependence(), oracle.dependence());
  }
}

TEST(SessionAppend, DroppedArtifactsRecomputeOverMergedData) {
  // Causal and CV have no additive form; after appends they must equal
  // a from-scratch run over the merged data.
  const SplitDataset split = split_osp(kMonths - 1);
  AnalysisSession oracle = session_over(replay_split(split), kMonths, 2);
  AnalysisSession session = session_over(split.base, kMonths - 1, 2);
  session.case_table();
  session.causal(Practice::kNumChangeEvents);  // becomes stale; must be dropped
  for (const MonthDelta& delta : split.deltas) session.append_month(delta);

  const CausalResult& want = oracle.causal(Practice::kNumChangeEvents);
  const CausalResult& got = session.causal(Practice::kNumChangeEvents);
  ASSERT_EQ(got.comparisons.size(), want.comparisons.size());
  for (std::size_t i = 0; i < want.comparisons.size(); ++i) {
    EXPECT_EQ(got.comparisons[i].pairs, want.comparisons[i].pairs);
    EXPECT_EQ(got.comparisons[i].outcome.p_value, want.comparisons[i].outcome.p_value);
    EXPECT_EQ(got.comparisons[i].causal, want.comparisons[i].causal);
  }
  EXPECT_EQ(session.evaluate_cv(2, ModelKind::kDecisionTree).accuracy,
            oracle.evaluate_cv(2, ModelKind::kDecisionTree).accuracy);  // bitwise
}

TEST(SessionAppend, RejectsInvalidDeltasAndLeavesSessionUnchanged) {
  const SplitDataset split = split_osp(kMonths - 1);
  ASSERT_EQ(split.deltas.size(), 1u);
  const MonthDelta& good = split.deltas.front();
  AnalysisSession session = session_over(split.base, kMonths - 1, 2);
  const std::string table_before = session.case_table().to_csv();

  // Out-of-order months are rejected by name.
  MonthDelta skip = good;
  skip.month = kMonths;  // skips month kMonths-1
  try {
    session.append_month(skip);
    FAIL() << "out-of-order month accepted";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("out-of-order month"), std::string::npos) << e.what();
  }

  MonthDelta ghost = good;
  ASSERT_FALSE(ghost.snapshots.empty());
  ghost.snapshots.front().device_id = "ghost-device";
  EXPECT_THROW(session.append_month(ghost), DataError);

  MonthDelta outside = good;
  outside.snapshots.front().time = 0;  // month 0, not kMonths-1
  EXPECT_THROW(session.append_month(outside), DataError);

  MonthDelta badlogin = good;
  badlogin.snapshots.front().login = "al ice";
  EXPECT_THROW(session.append_month(badlogin), DataError);

  MonthDelta badticket = good;
  ASSERT_FALSE(badticket.tickets.empty());
  badticket.tickets.front().resolved = badticket.tickets.front().created - 1;
  EXPECT_THROW(session.append_month(badticket), DataError);

  // The first two snapshots of one device, swapped: the first is in
  // order, the second is not, and neither may be applied.
  MonthDelta swapped = good;
  const auto pair = std::adjacent_find(
      swapped.snapshots.begin(), swapped.snapshots.end(),
      [](const ConfigSnapshot& a, const ConfigSnapshot& b) {
        return a.device_id == b.device_id && a.time < b.time;
      });
  ASSERT_NE(pair, swapped.snapshots.end());
  std::iter_swap(pair, pair + 1);
  EXPECT_THROW(session.append_month(swapped), DataError);

  // Validate-then-mutate: every rejection left the session untouched,
  // so the real delta still applies cleanly afterwards.
  EXPECT_EQ(session.num_months(), kMonths - 1);
  EXPECT_EQ(session.stats().appends, 0u);
  EXPECT_EQ(session.case_table().to_csv(), table_before);
  EXPECT_NO_THROW(session.append_month(good));
  EXPECT_EQ(session.num_months(), kMonths);

  // And the appended month itself is now out of order by name.
  EXPECT_THROW(session.append_month(good), DataError);
}

TEST(SessionAppend, KeyedSessionMaintainsPersistedArtifacts) {
  SessionOptions opts;
  opts.artifact_dir = testing::TempDir();
  opts.artifact_key = "mpa_engine_test_append_store";
  const ArtifactStore store(opts.artifact_dir);
  store.remove(opts.artifact_key);

  const SplitDataset split = split_osp(kMonths - 1);
  SessionOptions keyed = opts;
  keyed.threads = 2;
  keyed.inference.num_months = kMonths - 1;
  AnalysisSession first(split.base.inventory, split.base.snapshots, split.base.tickets, keyed);
  first.case_table();
  first.lint();
  first.append_month(split.deltas.front());
  // The maintained artifacts were re-persisted at the new shape.
  const auto stored = store.load_case_table(opts.artifact_key);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->to_csv(), first.case_table().to_csv());
  const auto stored_lint = store.load_lint_report(opts.artifact_key);
  ASSERT_TRUE(stored_lint.has_value());
  EXPECT_EQ(stored_lint->to_csv(), first.lint().to_csv());
  store.remove(opts.artifact_key);
}

// --- stale-state bugfix sweep -----------------------------------------

TEST(Session, AppendRemovesManifestAndLintSidecars) {
  const SplitDataset split = split_osp(kMonths - 1);
  SessionOptions opts;
  opts.threads = 2;
  opts.inference.num_months = kMonths - 1;
  opts.artifact_dir = testing::TempDir();
  opts.artifact_key = "mpa_engine_test_sidecars";
  const ArtifactStore store(opts.artifact_dir);
  store.remove(opts.artifact_key);

  {
    AnalysisSession session(split.base.inventory, split.base.snapshots, split.base.tickets, opts);
    session.case_table();
    session.lint();
  }  // dtor persists <key>.manifest.json beside the artifacts
  ASSERT_TRUE(store.load_case_table(opts.artifact_key).has_value());
  ASSERT_TRUE(store.load_lint_report(opts.artifact_key).has_value());
  ASSERT_TRUE(store.load_manifest_json(opts.artifact_key).has_value());

  AnalysisSession session(split.base.inventory, split.base.snapshots, split.base.tickets, opts);
  session.append_month(split.deltas.front());
  // Regression: with nothing resident to refresh, the append must drop
  // every persisted sidecar, not just the case-table CSV — a stale lint
  // report or manifest would otherwise be served to the next keyed
  // session.
  EXPECT_FALSE(store.load_case_table(opts.artifact_key).has_value());
  EXPECT_FALSE(store.load_lint_report(opts.artifact_key).has_value());
  EXPECT_FALSE(store.load_manifest_json(opts.artifact_key).has_value());
}

/// CacheStats keyed like the manifest's cache map.
std::map<std::string, std::uint64_t> cache_map(const AnalysisSession::CacheStats& s) {
  const std::map<std::string, std::uint64_t> stats = {
      {"hits", s.hits},         {"table_builds", s.table_builds}, {"table_loads", s.table_loads},
      {"lint_runs", s.lint_runs}, {"lint_loads", s.lint_loads},   {"causal_runs", s.causal_runs},
      {"cv_runs", s.cv_runs},   {"online_runs", s.online_runs},   {"appends", s.appends}};
  return stats;
}

TEST(Session, OneStageRecordFeedsEveryView) {
  obs::set_enabled(true);
  const SplitDataset split = split_osp(kMonths - 1);
  SessionOptions opts;
  opts.threads = 2;
  opts.inference.num_months = kMonths - 1;
  opts.artifact_dir = testing::TempDir();
  opts.artifact_key = "mpa_engine_test_views";
  ArtifactStore(opts.artifact_dir).remove(opts.artifact_key);
  {
    AnalysisSession warm(split.base.inventory, split.base.snapshots, split.base.tickets, opts);
    warm.case_table();
    warm.lint();
  }  // Persisted: the next session loads both from the store.
  obs::Registry::global().reset_values();

  AnalysisSession session(split.base.inventory, split.base.snapshots, split.base.tickets, opts);
  session.case_table();  // store
  session.lint();        // store
  session.dependence();
  session.causal(Practice::kNumChangeEvents);
  session.causal(Practice::kNumChangeEvents);  // memo
  session.evaluate_cv(2, ModelKind::kDecisionTree);
  session.online_accuracy(2, 1, ModelKind::kDecisionTree, 1, kMonths - 2);
  session.append_month(split.deltas.front());
  // A fresh unkeyed session over the same base computes what the first
  // one loaded.
  SessionOptions unkeyed = opts;
  unkeyed.artifact_key.clear();
  AnalysisSession fresh(split.base.inventory, split.base.snapshots, split.base.tickets, unkeyed);
  fresh.case_table();  // computed
  fresh.lint();        // computed

  // The spec of each view, as counts over one session's stage record;
  // the process-wide registry sums both sessions.
  const std::map<std::pair<std::string, std::string>, std::string> kinds = {
      {{"case_table", "computed"}, "table_builds"}, {{"case_table", "store"}, "table_loads"},
      {{"lint", "computed"}, "lint_runs"},          {{"lint", "store"}, "lint_loads"},
      {{"causal", "computed"}, "causal_runs"},      {{"cv", "computed"}, "cv_runs"},
      {{"online", "computed"}, "online_runs"},      {{"append", "computed"}, "appends"}};
  std::map<std::string, std::uint64_t> total;
  for (const auto& [pair, key] : kinds) total[key] = 0;
  total["hits"] = 0;
  std::map<std::string, std::uint64_t> computed_by_stage;
  for (const AnalysisSession* one : {&session, &fresh}) {
    std::map<std::string, std::uint64_t> want;
    for (const auto& [key, count] : total) want[key] = 0;
    const RunManifest m = one->manifest();
    for (const StageRun& run : m.stages) {
      if (run.source == "memo") {
        ++want["hits"];
        EXPECT_EQ(run.seconds, 0.0) << run.stage;
        continue;
      }
      const auto it = kinds.find({run.stage, run.source});
      if (it != kinds.end()) ++want[it->second];
      if (run.source == "computed") ++computed_by_stage[run.stage];
    }
    EXPECT_EQ(cache_map(one->stats()), want);
    EXPECT_EQ(m.cache, want);
    for (const auto& [key, count] : want) total[key] += count;
  }
  for (const auto& [key, count] : total) EXPECT_GE(count, 1u) << key;

  auto& reg = obs::Registry::global();
  for (const auto& [key, count] : total) {
    const std::string counter =
        "mpa_session_" + (key == "hits" ? std::string("memo_hits") : key) + "_total";
    EXPECT_EQ(reg.counter(counter).value(), count) << counter;
  }
  // One histogram sample per computed stage request.
  for (const auto& [stage, count] : computed_by_stage) {
    const std::string hist =
        stage == "append" ? "mpa_ingest_seconds" : "mpa_stage_seconds_" + stage;
    EXPECT_EQ(reg.histogram(hist).count(), count) << hist;
  }
  EXPECT_EQ(computed_by_stage.at("dependence"), 1u);
  obs::set_enabled(false);
  obs::Registry::global().reset_values();
}

TEST(RunManifest, AppendMovesTheFingerprint) {
  const SplitDataset split = split_osp(kMonths - 1);
  AnalysisSession session = session_over(split.base, kMonths - 1, 1);
  const std::string before = session.manifest().dataset_fingerprint;
  session.append_month(split.deltas.front());
  const std::string after = session.manifest().dataset_fingerprint;
  EXPECT_NE(after, before);
  EXPECT_EQ(after, session_over(replay_split(split), kMonths, 1).manifest().dataset_fingerprint);
}

}  // namespace
}  // namespace mpa
