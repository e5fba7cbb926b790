// Tests for the observability layer (src/obs/): metric instruments and
// exports, span nesting and per-thread recording, the
// zero-overhead-when-disabled contract, and the determinism pin — an
// instrumented pipeline run must record identical span names/counts
// and structural counters at 1, 2, and 8 threads.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/session.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "simulation/osp_generator.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace mpa {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::global().reset_values();
    obs::Tracer::global().clear();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::global().reset_values();
    obs::Tracer::global().clear();
  }
};

TEST_F(ObsTest, CounterAndGaugeBasics) {
  obs::Counter& c = obs::Registry::global().counter("obs_test_total");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&obs::Registry::global().counter("obs_test_total"), &c);

  obs::Gauge& g = obs::Registry::global().gauge("obs_test_gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

TEST_F(ObsTest, HistogramBucketsAndSum) {
  obs::Histogram& h = obs::Registry::global().histogram("obs_test_hist", {0.1, 1.0});
  h.observe(0.05);   // bucket 0 (le 0.1)
  h.observe(0.5);    // bucket 1 (le 1.0)
  h.observe(100.0);  // +Inf bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 100.55, 1e-9);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
}

TEST_F(ObsTest, PrometheusExportShape) {
  obs::Registry::global().counter("obs_prom_total").add(7);
  obs::Registry::global().histogram("obs_prom_hist", {0.5}).observe(0.1);
  const std::string text = obs::Registry::global().to_prometheus();
  EXPECT_NE(text.find("# TYPE obs_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("obs_prom_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_prom_hist histogram"), std::string::npos);
  EXPECT_NE(text.find("obs_prom_hist_bucket{le=\"0.5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("obs_prom_hist_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("obs_prom_hist_count 1"), std::string::npos);
}

TEST_F(ObsTest, JsonExportShape) {
  obs::Registry::global().counter("obs_json_total").add(3);
  obs::Registry::global().histogram("obs_json_hist", {0.5}).observe(2.0);
  const std::string json = obs::Registry::global().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_json_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
}

TEST_F(ObsTest, SpanNestingBuildsPaths) {
  {
    obs::Span outer("outer");
    EXPECT_EQ(obs::Tracer::current_path(), "outer");
    {
      obs::Span inner("inner");
      EXPECT_EQ(obs::Tracer::current_path(), "outer/inner");
    }
    EXPECT_EQ(obs::Tracer::current_path(), "outer");
  }
  EXPECT_EQ(obs::Tracer::current_path(), "");
  std::multiset<std::string> paths;
  for (const auto& s : obs::Tracer::global().snapshot()) paths.insert(s.path);
  EXPECT_EQ(paths, (std::multiset<std::string>{"outer", "outer/inner"}));
}

TEST_F(ObsTest, WithPathAdoptsParentAcrossThreads) {
  {
    obs::Span stage("stage");
    const std::string task_path = obs::Tracer::current_path() + "/task";
    std::thread worker([&] {
      // A pool worker has no thread-local parent; with_path adopts one.
      obs::Span task = obs::Span::with_path(task_path);
      EXPECT_EQ(obs::Tracer::current_path(), "stage/task");
    });
    worker.join();
  }
  std::multiset<std::string> paths;
  for (const auto& s : obs::Tracer::global().snapshot()) paths.insert(s.path);
  EXPECT_EQ(paths, (std::multiset<std::string>{"stage", "stage/task"}));
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  obs::set_enabled(false);
  {
    obs::Span span("ghost");
    EXPECT_EQ(obs::Tracer::current_path(), "");
  }
  EXPECT_TRUE(obs::Tracer::global().snapshot().empty());
}

TEST_F(ObsTest, EachThreadKeepsOneTidPastItsExitAndClear) {
  { obs::Span s("main"); }
  for (int t = 0; t < 3; ++t) {
    std::thread worker([t] { obs::Span s("worker" + std::to_string(t)); });
    worker.join();
  }
  // The exited workers' spans survive; every thread has its own tid.
  std::map<std::string, std::uint32_t> tid_of;
  for (const auto& s : obs::Tracer::global().snapshot()) tid_of[s.path] = s.tid;
  ASSERT_EQ(tid_of.size(), 4u);
  std::set<std::uint32_t> tids;
  for (const auto& [path, tid] : tid_of) {
    EXPECT_GE(tid, 1u) << path;
    tids.insert(tid);
  }
  EXPECT_EQ(tids.size(), 4u);
  // clear() empties the buffers but keeps their registrations.
  obs::Tracer::global().clear();
  { obs::Span s("main"); }
  const auto after = obs::Tracer::global().snapshot();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].tid, tid_of.at("main"));
}

TEST_F(ObsTest, SummaryAggregatesByPath) {
  { obs::Span a("alpha"); }
  { obs::Span a("alpha"); }
  {
    obs::Span a("alpha");
    obs::Span b("beta");
  }
  const std::string summary = obs::Tracer::global().summary();
  EXPECT_NE(summary.find("alpha  count=3"), std::string::npos);
  EXPECT_NE(summary.find("beta  count=1"), std::string::npos);
}

TEST_F(ObsTest, PoolStatsCountJobsAndTasks) {
  ThreadPool pool(4);
  pool.parallel_for(10, [](std::size_t) {});
  pool.parallel_for(3, [](std::size_t) {});
  const ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.jobs, 2u);
  EXPECT_EQ(s.tasks, 13u);
}

TEST_F(ObsTest, PoolStructuralCountsThreadCountInvariant) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> observed;  // (jobs, tasks)
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    pool.parallel_for(16, [&](std::size_t) {
      // Nested fan-out runs inline on workers but still counts.
      pool.parallel_for(2, [](std::size_t) {});
    });
    const ThreadPool::Stats s = pool.stats();
    observed.emplace_back(s.jobs, s.tasks);
  }
  EXPECT_EQ(observed[0], observed[1]);
  EXPECT_EQ(observed[0], observed[2]);
  EXPECT_EQ(observed[0].first, 17u);   // 1 outer + 16 nested
  EXPECT_EQ(observed[0].second, 48u);  // 16 outer + 16*2 nested
}

// --- pipeline determinism pin -----------------------------------------

struct PipelineObservation {
  std::multiset<std::string> span_paths;
  std::map<std::string, std::uint64_t> counters;
};

/// Run every session stage instrumented by the engine and return what
/// the obs layer recorded. Only structural counters — identical by the
/// PR 1 determinism contract — are kept; timing-class ones
/// (queue wait, worker joins, inline split) depend on scheduling.
PipelineObservation run_pipeline(int threads) {
  obs::Registry::global().reset_values();
  obs::Tracer::global().clear();

  OspOptions gen;
  gen.num_networks = 12;
  gen.num_months = 4;
  gen.seed = 17;
  OspDataset data = generate_osp(gen);
  {
    SessionOptions opts;
    opts.threads = threads;
    opts.inference.num_months = gen.num_months;
    AnalysisSession session(std::move(data.inventory), std::move(data.snapshots),
                            std::move(data.tickets), std::move(opts));
    session.case_table();
    session.lint();
    session.dependence();
    session.causal(Practice::kNumChangeEvents);
    session.evaluate_cv(2, ModelKind::kDecisionTree);
    session.online_accuracy(2, 1, ModelKind::kDecisionTree, 1, gen.num_months - 1);
  }  // session dtor publishes pool counters

  PipelineObservation obs_out;
  for (const auto& s : obs::Tracer::global().snapshot()) obs_out.span_paths.insert(s.path);
  static const std::set<std::string> structural = {
      "mpa_session_memo_hits_total",    "mpa_session_table_builds_total",
      "mpa_session_table_loads_total",  "mpa_session_lint_runs_total",
      "mpa_session_lint_loads_total",   "mpa_session_causal_runs_total",
      "mpa_session_cv_runs_total",      "mpa_session_online_runs_total",
      "mpa_session_cmi_pairs_total",    "mpa_artifact_store_hits_total",
      "mpa_artifact_store_misses_total",
      "mpa_artifact_store_saves_total", "mpa_pool_jobs_total",
      "mpa_pool_tasks_total"};
  for (const auto& [name, value] : obs::Registry::global().counters_snapshot())
    if (structural.count(name)) obs_out.counters[name] = value;
  return obs_out;
}

TEST_F(ObsTest, PipelineSpansAndCountersDeterministicAcrossThreadCounts) {
  const PipelineObservation serial = run_pipeline(1);

  // The taxonomy the engine promises (DESIGN.md §8).
  EXPECT_EQ(serial.span_paths.count("case_table"), 1u);
  EXPECT_EQ(serial.span_paths.count("lint"), 1u);
  EXPECT_EQ(serial.span_paths.count("lint/network"), 12u);
  EXPECT_EQ(serial.span_paths.count("dependence"), 1u);
  EXPECT_EQ(serial.span_paths.count("causal"), 1u);
  EXPECT_EQ(serial.span_paths.count("cv"), 1u);
  EXPECT_EQ(serial.span_paths.count("online"), 1u);

  EXPECT_EQ(serial.counters.at("mpa_session_table_builds_total"), 1u);
  EXPECT_EQ(serial.counters.at("mpa_session_lint_runs_total"), 1u);
  // dependence/causal/cv/online each re-request the memoized table.
  EXPECT_EQ(serial.counters.at("mpa_session_memo_hits_total"), 4u);
  EXPECT_GT(serial.counters.at("mpa_pool_tasks_total"), 0u);
  // One CMI pair per unordered pair of analysis practices.
  const std::size_t k = analysis_practices().size();
  EXPECT_EQ(serial.counters.at("mpa_session_cmi_pairs_total"), k * (k - 1) / 2);

  for (int threads : {2, 8}) {
    const PipelineObservation parallel = run_pipeline(threads);
    EXPECT_EQ(parallel.span_paths, serial.span_paths) << threads << " threads";
    EXPECT_EQ(parallel.counters, serial.counters) << threads << " threads";
  }
}

TEST_F(ObsTest, StageHistogramsRecordWallTime) {
  run_pipeline(2);
  auto& reg = obs::Registry::global();
  for (const char* stage : {"case_table", "lint", "dependence", "causal", "cv", "online"}) {
    EXPECT_EQ(reg.histogram(std::string("mpa_stage_seconds_") + stage).count(), 1u) << stage;
  }
  // The dependence stage records one timing sample per CMI pair.
  const std::size_t k = analysis_practices().size();
  EXPECT_EQ(reg.histogram("mpa_dependence_pair_seconds").count(), k * (k - 1) / 2);
}

// --- histogram quantiles ----------------------------------------------

TEST_F(ObsTest, HistogramQuantileInterpolatesWithinBucket) {
  obs::Histogram& h = obs::Registry::global().histogram("obs_quant_hist", {10.0});
  h.observe(5.0);  // one sample in (0, 10]
  // Linear interpolation inside the only occupied bucket, clamped to
  // the samples seen: q=1 is the largest sample, not the bucket bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST_F(ObsTest, HistogramQuantileWalksBuckets) {
  obs::Histogram& h = obs::Registry::global().histogram("obs_quant_walk", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  h.observe(100.0);  // +Inf bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  // A rank inside the +Inf bucket interpolates from the highest finite
  // bound toward the largest sample: 4 + (100 - 4) * 0.96.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 96.16);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST_F(ObsTest, HistogramQuantileOfOneSampleIsThatSample) {
  // A single 2.83 s stage sample, in the (1, 5] bucket of the default
  // bounds, and a sample past the last bound.
  for (const double v : {2.83, 1e-7, 42.0}) {
    obs::Histogram h(obs::latency_buckets_seconds());
    h.observe(v);
    for (const double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) EXPECT_DOUBLE_EQ(h.quantile(q), v) << q;
    h.reset();
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  }
}

TEST_F(ObsTest, HistogramQuantileEmptyIsZero) {
  obs::Histogram& h = obs::Registry::global().histogram("obs_quant_empty", {1.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST_F(ObsTest, QuantileFromBucketsEmptyIsZero) {
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets({1.0, 2.0}, {}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets({1.0, 2.0}, {0, 0, 0}, 0.5), 0.0);
  // No finite bounds at all: every sample is +Inf-bucketed, and there
  // is no finite bound to clamp to.
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets({}, {3}, 0.99), 0.0);
}

TEST_F(ObsTest, QuantileFromBucketsAllMassInFirstBucket) {
  // Every sample in (0, 10]: q=1 is the bucket's upper bound, interior
  // quantiles interpolate linearly from zero.
  const std::vector<double> bounds = {10.0, 20.0};
  const std::vector<std::uint64_t> counts = {4, 0, 0};
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(bounds, counts, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(bounds, counts, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(bounds, counts, 0.0), 0.0);
}

TEST_F(ObsTest, QuantileFromBucketsClampsRankAndInfinity) {
  const std::vector<double> bounds = {1.0, 4.0};
  const std::vector<std::uint64_t> counts = {1, 1, 2};  // two samples past 4.0
  // Out-of-range and NaN ranks clamp instead of walking off the array.
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(bounds, counts, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(bounds, counts, 2.0), 4.0);
  // Rank inside the +Inf bucket clamps to the highest finite bound.
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(bounds, counts, 0.99), 4.0);
}

TEST_F(ObsTest, HistogramExportsCarryQuantiles) {
  obs::Registry::global().histogram("obs_quant_export", {10.0}).observe(5.0);
  const std::string json = obs::Registry::global().to_json();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  const std::string text = obs::Registry::global().to_text();
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

// --- structured event log ---------------------------------------------

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_log_min_level(obs::LogLevel::kDebug);
    obs::set_log_enabled(true);
    obs::Logger::global().set_ring_capacity(0);
    obs::Logger::global().clear();
  }
  void TearDown() override {
    obs::set_log_enabled(false);
    obs::set_log_min_level(obs::LogLevel::kDebug);
    obs::Logger::global().set_ring_capacity(0);
    obs::Logger::global().clear();
  }
};

TEST_F(LogTest, LevelNamesRoundTrip) {
  for (obs::LogLevel l : {obs::LogLevel::kDebug, obs::LogLevel::kInfo, obs::LogLevel::kWarn,
                          obs::LogLevel::kError}) {
    obs::LogLevel parsed = obs::LogLevel::kDebug;
    ASSERT_TRUE(obs::parse_log_level(obs::to_string(l), &parsed));
    EXPECT_EQ(parsed, l);
  }
  obs::LogLevel parsed = obs::LogLevel::kDebug;
  EXPECT_FALSE(obs::parse_log_level("verbose", &parsed));
}

TEST_F(LogTest, EventRecordsTypedFields) {
  obs::LogEvent(obs::LogLevel::kWarn, "typed")
      .str("s", "hello")
      .i64("i", -3)
      .u64("u", 18446744073709551615ULL)
      .boolean("b", true);
  const auto records = obs::Logger::global().snapshot();
  ASSERT_EQ(records.size(), 1u);
  const obs::LogRecord& rec = records[0];
  EXPECT_EQ(rec.level, obs::LogLevel::kWarn);
  EXPECT_EQ(rec.name, "typed");
  EXPECT_GT(rec.t_ns, 0u);
  ASSERT_EQ(rec.fields.size(), 4u);
  // JSONL line parses back with every key and exact u64 value.
  const JsonValue doc = parse_json(rec.to_json());
  EXPECT_EQ(doc.at("level").as_string(), "warn");
  EXPECT_EQ(doc.at("name").as_string(), "typed");
  const JsonValue& fields = doc.at("fields");
  EXPECT_EQ(fields.at("s").as_string(), "hello");
  EXPECT_EQ(fields.at("i").as_number(), -3.0);
  EXPECT_EQ(fields.at("u").as_u64(), 18446744073709551615ULL);
  EXPECT_TRUE(fields.at("b").as_bool());
}

TEST_F(LogTest, DisabledEventIsInert) {
  obs::set_log_enabled(false);
  {
    obs::LogEvent ev(obs::LogLevel::kError, "ghost");
    ev.str("k", "v");
    EXPECT_TRUE(obs::Logger::global().snapshot().empty());
  }
  EXPECT_TRUE(obs::Logger::global().snapshot().empty());  // nothing committed
}

TEST_F(LogTest, MinLevelFiltersAtTheGate) {
  obs::set_log_min_level(obs::LogLevel::kWarn);
  { obs::LogEvent(obs::LogLevel::kDebug, "below"); }
  { obs::LogEvent(obs::LogLevel::kInfo, "below"); }
  { obs::LogEvent(obs::LogLevel::kWarn, "at"); }
  { obs::LogEvent(obs::LogLevel::kError, "above"); }
  const auto records = obs::Logger::global().snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "at");
  EXPECT_EQ(records[1].name, "above");
  // Re-enabling keeps the configured floor (the gate packs both).
  obs::set_log_enabled(false);
  obs::set_log_enabled(true);
  { obs::LogEvent(obs::LogLevel::kInfo, "still_below"); }
  EXPECT_EQ(obs::Logger::global().snapshot().size(), 2u);
}

TEST_F(LogTest, RingBufferKeepsMostRecentAndCountsDrops) {
  obs::Logger::global().set_ring_capacity(4);
  for (int i = 0; i < 10; ++i) {
    obs::LogEvent(obs::LogLevel::kInfo, "tick").i64("n", i);
  }
  const auto records = obs::Logger::global().snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(obs::Logger::global().dropped(), 6u);
  // The retained four are the most recent four (6..9), oldest evicted.
  std::multiset<std::int64_t> kept;
  for (const auto& rec : records) kept.insert(std::get<std::int64_t>(rec.fields.at(0).value));
  EXPECT_EQ(kept, (std::multiset<std::int64_t>{6, 7, 8, 9}));
}

TEST_F(LogTest, RingBoundIsPerThread) {
  // Each thread's buffer is bounded on its own: three threads of ten
  // events each keep their own last four and drop their own first six.
  obs::Logger::global().set_ring_capacity(4);
  for (std::uint64_t t = 0; t < 3; ++t) {
    std::thread worker([t] {
      for (std::uint64_t seq = 0; seq < 10; ++seq) {
        obs::LogEvent(obs::LogLevel::kInfo, "tick").u64("thread", t).u64("seq", seq);
      }
    });
    worker.join();
  }
  const auto records = obs::Logger::global().snapshot();
  EXPECT_EQ(records.size(), 12u);
  EXPECT_EQ(obs::Logger::global().dropped(), 18u);
  using Kept = std::map<std::uint64_t, std::multiset<std::uint64_t>>;
  Kept kept;  // thread -> the sequence numbers its buffer kept
  for (const auto& rec : records) {
    const JsonValue fields = parse_json(rec.to_json()).at("fields");
    kept[fields.at("thread").as_u64()].insert(fields.at("seq").as_u64());
  }
  const std::multiset<std::uint64_t> last_four{6, 7, 8, 9};
  EXPECT_EQ(kept, (Kept{{0, last_four}, {1, last_four}, {2, last_four}}));
}

TEST_F(LogTest, JsonlIsOneObjectPerLine) {
  { obs::LogEvent(obs::LogLevel::kInfo, "first").u64("n", 1); }
  { obs::LogEvent(obs::LogLevel::kInfo, "second").u64("n", 2); }
  const std::string jsonl = obs::Logger::global().to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    const JsonValue doc = parse_json(line);
    EXPECT_NE(doc.find("t_ns"), nullptr);
    EXPECT_NE(doc.find("level"), nullptr);
    EXPECT_NE(doc.find("name"), nullptr);
    EXPECT_NE(doc.find("fields"), nullptr);
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST_F(LogTest, CanonicalJsonlOmitsTimestampsAndSorts) {
  { obs::LogEvent(obs::LogLevel::kInfo, "zeta"); }
  { obs::LogEvent(obs::LogLevel::kInfo, "alpha"); }
  const std::string canonical = obs::Logger::global().canonical_jsonl();
  EXPECT_EQ(canonical.find("t_ns"), std::string::npos);
  // Content-sorted: "alpha" precedes "zeta" despite later commit order.
  EXPECT_LT(canonical.find("alpha"), canonical.find("zeta"));
}

/// Run the instrumented pipeline stages with the event log on and
/// return the canonical (timestamp-free, content-sorted) stream.
std::string run_logged_pipeline(int threads) {
  obs::Logger::global().clear();
  OspOptions gen;
  gen.num_networks = 12;
  gen.num_months = 4;
  gen.seed = 17;
  OspDataset data = generate_osp(gen);
  {
    SessionOptions opts;
    opts.threads = threads;
    opts.inference.num_months = gen.num_months;
    AnalysisSession session(std::move(data.inventory), std::move(data.snapshots),
                            std::move(data.tickets), std::move(opts));
    session.case_table();
    session.lint();
    session.dependence();
    session.causal(Practice::kNumChangeEvents);
    session.case_table();  // memo hit: a "stage" event with source=memo
  }
  return obs::Logger::global().canonical_jsonl();
}

TEST_F(LogTest, EventStreamBitIdenticalAcrossThreadCounts) {
  const std::string serial = run_logged_pipeline(1);
  // The stream carries the session lifecycle, one stage event per
  // request, and one debug event per linted network.
  EXPECT_NE(serial.find("\"name\":\"session_open\""), std::string::npos);
  EXPECT_NE(serial.find("\"name\":\"session_close\""), std::string::npos);
  EXPECT_NE(serial.find("\"stage\":\"case_table\",\"source\":\"computed\""), std::string::npos);
  EXPECT_NE(serial.find("\"stage\":\"case_table\",\"source\":\"memo\""), std::string::npos);
  EXPECT_NE(serial.find("\"name\":\"lint_network\""), std::string::npos);
  for (int threads : {2, 8}) {
    EXPECT_EQ(run_logged_pipeline(threads), serial) << threads << " threads";
  }
}

// --- Chrome trace export ----------------------------------------------

TEST_F(ObsTest, ChromeTraceExportShape) {
  {
    obs::Span outer("outer");
    obs::Span inner("inner");
  }
  const std::string json = obs::chrome_trace_json(obs::Tracer::global().snapshot());
  const JsonValue doc = parse_json(json);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  std::multiset<std::string> paths;
  for (const JsonValue& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_FALSE(e.at("name").as_string().empty());
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    EXPECT_GE(e.at("ts").as_number(), 0.0);
    EXPECT_EQ(e.at("pid").as_u64(), 1u);
    EXPECT_GE(e.at("tid").as_u64(), 1u);
    paths.insert(e.at("args").at("path").as_string());
  }
  EXPECT_EQ(paths, (std::multiset<std::string>{"outer", "outer/inner"}));
}

/// Spans on two threads, so the snapshot carries two distinct tids.
std::vector<obs::SpanRecord> record_spans_on_two_threads() {
  {
    obs::Span a("alpha");
    obs::Span b("beta");
  }
  std::thread worker([] { obs::Span c("gamma"); });
  worker.join();
  const auto spans = obs::Tracer::global().snapshot();
  std::set<std::uint32_t> tids;
  for (const auto& s : spans) tids.insert(s.tid);
  EXPECT_EQ(tids.size(), 2u);
  return spans;
}

TEST_F(ObsTest, ChromeTraceRoundTripPreservesSpans) {
  const auto spans = record_spans_on_two_threads();
  const auto parsed = obs::parse_trace_json(obs::chrome_trace_json(spans));
  ASSERT_EQ(parsed.size(), spans.size());
  // Microsecond decimals carry three fractional digits, so nanosecond
  // starts and durations survive the round trip exactly.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].path, spans[i].path);
    EXPECT_EQ(parsed[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(parsed[i].dur_ns, spans[i].dur_ns);
    EXPECT_EQ(parsed[i].tid, spans[i].tid);
  }
}

TEST_F(ObsTest, ParseTraceJsonAcceptsTracerFormat) {
  const auto spans = record_spans_on_two_threads();
  const auto parsed = obs::parse_trace_json(obs::Tracer::global().to_json());
  ASSERT_EQ(parsed.size(), spans.size());
  // The span JSON is written in snapshot order and keeps each span's
  // thread lane, like the Chrome trace.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].path, spans[i].path);
    EXPECT_EQ(parsed[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(parsed[i].dur_ns, spans[i].dur_ns);
    EXPECT_EQ(parsed[i].tid, spans[i].tid);
  }
  EXPECT_THROW(obs::parse_trace_json("{\"neither\":1}"), DataError);
}

/// parse_trace_json's DataError for `json`, or "" when it parses.
std::string trace_error(const std::string& json) {
  try {
    obs::parse_trace_json(json);
    return "";
  } catch (const DataError& e) {
    return e.what();
  }
}

std::string chrome_event(const std::string& fields) {
  return R"({"traceEvents":[{"name":"x","ph":"X","pid":1,)" + fields + "}]}";
}

std::string span(const std::string& fields) {
  return R"({"spans":[{"path":"x",)" + fields + "}]}";
}

TEST(TraceReader, ChromeDurationTooLongForNanosecondsIsRejectedByName) {
  // Regression: us_to_ns rounded 1e300 µs out of range, and `trace
  // summarize` printed total=9.22337e+09s.
  const std::string err = trace_error(chrome_event(R"("ts":1,"dur":1e300,"tid":1)"));
  EXPECT_NE(err.find("chrome trace event: dur:"), std::string::npos) << err;
}

TEST(TraceReader, ChromeTidMustBeAWholeUint32) {
  // Regression: the double was cast straight to uint32_t, undefined for
  // 1e300 (float-cast-overflow).
  for (const char* tid : {"1e300", "-1", "4294967296", "2.5"}) {
    const std::string err =
        trace_error(chrome_event(R"("ts":1,"dur":2,"tid":)" + std::string(tid)));
    EXPECT_NE(err.find("chrome trace event: tid:"), std::string::npos) << tid << ": " << err;
  }
  EXPECT_EQ(obs::parse_trace_json(chrome_event(R"("ts":1,"dur":2,"tid":4294967295)"))[0].tid,
            4294967295u);
}

TEST(TraceReader, BothShapesRejectANegativeDurationByName) {
  // Regression: a Chrome "dur":-5 read as 0 s, while the span shape's
  // "dur_ns":-5 was refused without naming the field.
  std::string err = trace_error(chrome_event(R"("ts":1,"dur":-5,"tid":1)"));
  EXPECT_NE(err.find("chrome trace event: dur:"), std::string::npos) << err;
  err = trace_error(span(R"("start_ns":1,"dur_ns":-5)"));
  EXPECT_NE(err.find("trace span: dur_ns:"), std::string::npos) << err;
}

TEST(TraceReader, SpanTidAndChromeStartOutsideTheirTypeAreRejectedByName) {
  // Regression: a span "tid":4294967297 read as tid 1, and a Chrome
  // "ts":1e300 as start_ns 9223372036854775808.
  std::string err = trace_error(span(R"("start_ns":1,"dur_ns":5,"tid":4294967297)"));
  EXPECT_NE(err.find("trace span: tid:"), std::string::npos) << err;
  err = trace_error(chrome_event(R"("ts":1e300,"dur":2,"tid":1)"));
  EXPECT_NE(err.find("chrome trace event: ts:"), std::string::npos) << err;
}

TEST(TraceReader, BothShapesReadAWholeTidByValue) {
  // The one loosening: a span tid, like a Chrome tid, reads 7.0 as 7.
  EXPECT_EQ(obs::parse_trace_json(span(R"("start_ns":1,"dur_ns":5,"tid":7.0)"))[0].tid, 7u);
  EXPECT_EQ(obs::parse_trace_json(chrome_event(R"("ts":1,"dur":2,"tid":7.0)"))[0].tid, 7u);
}

TEST_F(ObsTest, SummarizeSpansMatchesTracerSummary) {
  { obs::Span a("alpha"); }
  {
    obs::Span a("alpha");
    obs::Span b("beta");
  }
  const std::string direct = obs::Tracer::global().summary();
  const std::string via_export =
      obs::summarize_spans(obs::parse_trace_json(obs::Tracer::global().to_json()));
  EXPECT_EQ(via_export, direct);
}

// --- windowed aggregation ---------------------------------------------

/// A window registry on a hand-cranked logical clock.
struct LogicalWindow {
  std::uint64_t now_ns = 0;
  obs::WindowRegistry registry;

  explicit LogicalWindow(std::size_t buckets, std::uint64_t width_ns)
      : registry(options(buckets, width_ns)) {}
  obs::WindowOptions options(std::size_t buckets, std::uint64_t width_ns) {
    obs::WindowOptions o;
    o.buckets = buckets;
    o.bucket_width_ns = width_ns;
    o.clock = [this] { return now_ns; };
    return o;
  }
};

TEST_F(ObsTest, WindowRecordAndSnapshot) {
  LogicalWindow w(4, 1'000'000'000);  // 4 x 1s window
  w.registry.record("a", "rank", "ok", 1.0, 2.0, 3.0);
  w.registry.record("a", "rank", "error", 0.5, 0.5, 1.0);
  w.registry.record("b", "lint", "ok", 0.1, 0.1, 0.2);

  const obs::WindowRegistry::Snapshot snap = w.registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.window_seconds, 4.0);
  ASSERT_EQ(snap.series.size(), 2u);
  // Sorted by (tenant, kind).
  EXPECT_EQ(snap.series[0].tenant, "a");
  EXPECT_EQ(snap.series[0].kind, "rank");
  EXPECT_EQ(snap.series[1].tenant, "b");
  EXPECT_EQ(snap.series[1].kind, "lint");

  const obs::WindowRegistry::SeriesWindow& rank = snap.series[0];
  EXPECT_EQ(rank.total, 2u);
  EXPECT_EQ(rank.ok, 1u);
  EXPECT_EQ(rank.error, 1u);
  EXPECT_DOUBLE_EQ(rank.ok_rate, 0.5);
  EXPECT_DOUBLE_EQ(rank.error_rate, 0.5);
  EXPECT_DOUBLE_EQ(rank.throughput_rps, 0.5);  // 2 requests / 4s window
  EXPECT_GT(rank.latency_p99_ms, 0.0);
  EXPECT_LE(rank.latency_p50_ms, rank.latency_p99_ms);
}

TEST_F(ObsTest, WindowQuantilesOfOneSampleAreThatSample) {
  // Inside a bucket, above the last bound, and in the first bucket: every
  // quantile is the one sample, as Histogram::quantile reports it.
  for (const double ms : {3.0, 7000.0, 0.05}) {
    LogicalWindow w(4, 1'000'000'000);
    w.registry.record("a", "rank", "ok", ms, ms, ms);
    const obs::WindowRegistry::Snapshot snap = w.registry.snapshot();
    ASSERT_EQ(snap.series.size(), 1u);
    const obs::WindowRegistry::SeriesWindow& s = snap.series[0];
    for (const double q : {s.queue_p50_ms, s.service_p90_ms, s.latency_p50_ms, s.latency_p90_ms,
                           s.latency_p99_ms})
      EXPECT_DOUBLE_EQ(q, ms);
    obs::Histogram h(obs::window_ms_bounds());
    h.observe(ms);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), s.latency_p99_ms);
  }
}

TEST_F(ObsTest, WindowQuantilesForgetRotatedOutSamples) {
  // A bucket's range resets with its counts when the ring reuses it.
  LogicalWindow w(2, 100);
  w.registry.record("a", "rank", "ok", 7000, 7000, 7000);  // epoch 0
  w.now_ns = 200;  // epoch 2 reuses epoch 0's slot
  w.registry.record("a", "rank", "ok", 3, 3, 3);
  const obs::WindowRegistry::Snapshot snap = w.registry.snapshot();
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].total, 1u);
  EXPECT_DOUBLE_EQ(snap.series[0].latency_p99_ms, 3.0);
}

TEST_F(ObsTest, WindowRingWraparoundDropsOverwrittenEpochs) {
  LogicalWindow w(4, 100);
  w.registry.record("a", "rank", "ok", 0, 0, 0);  // epoch 0
  // Jump ten epochs ahead: the ring slot for epoch 0 is re-used by
  // epoch 8 (10 % 4 == 2, 8 % 4 == 0), and epoch 0 is out of window.
  w.now_ns = 1000;
  w.registry.record("a", "rank", "ok", 0, 0, 0);  // epoch 10
  const obs::WindowRegistry::Snapshot snap = w.registry.snapshot();
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].total, 1u);
}

TEST_F(ObsTest, WindowAccumulatesAcrossInWindowBuckets) {
  LogicalWindow w(4, 100);
  w.registry.record("a", "rank", "ok", 0, 0, 0);  // epoch 0
  w.now_ns = 150;
  w.registry.record("a", "rank", "rejected", 0, 0, 0);  // epoch 1
  w.now_ns = 350;
  w.registry.record("a", "rank", "deadline_exceeded", 0, 0, 0);  // epoch 3
  const obs::WindowRegistry::Snapshot snap = w.registry.snapshot();
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].total, 3u);
  EXPECT_EQ(snap.series[0].ok, 1u);
  EXPECT_EQ(snap.series[0].rejected, 1u);
  EXPECT_EQ(snap.series[0].deadline_exceeded, 1u);
}

TEST_F(ObsTest, WindowIdleGapExpiresSeries) {
  LogicalWindow w(4, 100);
  w.registry.record("a", "rank", "ok", 0, 0, 0);
  // Still visible at the window's trailing edge...
  w.now_ns = 300;
  EXPECT_EQ(w.registry.snapshot().series.size(), 1u);
  // ...gone once the idle gap pushes it out, without any record() call.
  w.now_ns = 400;
  EXPECT_TRUE(w.registry.snapshot().series.empty());
  EXPECT_EQ(w.registry.canonical_json(), "{\"series\":[]}");
}

TEST_F(ObsTest, WindowJsonAndCanonicalShape) {
  LogicalWindow w(2, 1'000'000'000);
  w.registry.record("a", "rank", "ok", 1.0, 2.0, 3.0);
  const JsonValue doc = parse_json(w.registry.to_json());
  EXPECT_DOUBLE_EQ(doc.at("window_seconds").as_number(), 2.0);
  const auto& series = doc.at("series").as_array();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].at("tenant").as_string(), "a");
  EXPECT_EQ(series[0].at("kind").as_string(), "rank");
  EXPECT_EQ(series[0].at("total").as_u64(), 1u);
  EXPECT_DOUBLE_EQ(series[0].at("ok_rate").as_number(), 1.0);
  EXPECT_GT(series[0].at("latency_ms").at("p50").as_number(), 0.0);

  EXPECT_EQ(w.registry.canonical_json(),
            "{\"series\":[{\"tenant\":\"a\",\"kind\":\"rank\",\"total\":1,\"ok\":1,"
            "\"rejected\":0,\"deadline_exceeded\":0,\"error\":0}]}");
}

TEST_F(ObsTest, WindowPrometheusShape) {
  LogicalWindow w(2, 1'000'000'000);
  w.registry.record("a", "rank", "ok", 1.0, 2.0, 3.0);
  const std::string text = w.registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE mpa_window_requests_total gauge"), std::string::npos);
  EXPECT_NE(
      text.find("mpa_window_requests_total{tenant=\"a\",kind=\"rank\",status=\"ok\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("mpa_window_throughput_rps{tenant=\"a\",kind=\"rank\"} 0.5"),
            std::string::npos);
  EXPECT_NE(text.find("mpa_window_latency_ms{tenant=\"a\",kind=\"rank\",quantile=\"0.99\"}"),
            std::string::npos);
  // Label values escape backslash, quote and LF, and keep other bytes.
  w.registry.record("x\"y\\z\n\t", "rank", "ok", 1.0, 2.0, 3.0);
  EXPECT_NE(w.registry.to_prometheus().find(
                "mpa_window_throughput_rps{tenant=\"x\\\"y\\\\z\\n\t\",kind=\"rank\"}"),
            std::string::npos);
}

TEST_F(ObsTest, WindowConfigureDropsSeries) {
  obs::WindowRegistry registry;
  registry.record("a", "rank", "ok", 0, 0, 0);
  EXPECT_EQ(registry.snapshot().series.size(), 1u);
  obs::WindowOptions narrow;
  narrow.buckets = 2;
  narrow.bucket_width_ns = 1000;
  registry.configure(std::move(narrow));
  EXPECT_TRUE(registry.snapshot().series.empty());
  EXPECT_DOUBLE_EQ(registry.snapshot().window_seconds, 2e-6);
}

// --- request-scoped trace context -------------------------------------

TEST_F(ObsTest, RequestContextTagsSpansAndCollectsStages) {
  obs::RequestContext ctx;
  ctx.req_id = 7;
  ctx.tenant = "acme";
  ctx.collect = true;
  {
    obs::ScopedRequestContext scoped(&ctx);
    obs::Span stage("stage");
  }
  { obs::Span untagged("outside"); }

  const auto spans = obs::Tracer::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  std::map<std::string, const obs::SpanRecord*> by_path;
  for (const auto& s : spans) by_path[s.path] = &s;
  EXPECT_EQ(by_path.at("stage")->req_id, 7u);
  EXPECT_EQ(by_path.at("stage")->tenant, "acme");
  EXPECT_EQ(by_path.at("outside")->req_id, 0u);
  EXPECT_TRUE(by_path.at("outside")->tenant.empty());

  // The context collected the stage timing for the slow log.
  ASSERT_EQ(ctx.stage_ns.size(), 1u);
  EXPECT_EQ(ctx.stage_ns[0].first, "stage");

  // Tagged spans serialize their tags; untagged ones stay unchanged.
  const std::string json = obs::Tracer::global().to_json();
  EXPECT_NE(json.find("\"req_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"acme\""), std::string::npos);
}

TEST_F(ObsTest, ScopedRequestContextNullKeepsCurrentAndTagOnlySkipsCollection) {
  obs::RequestContext ctx;
  ctx.req_id = 9;
  ctx.tenant = "t";
  ctx.collect = true;
  obs::RequestContext task_ctx = ctx.tag_only();
  EXPECT_FALSE(task_ctx.collect);
  {
    obs::ScopedRequestContext outer(&ctx);
    {
      // The engine's fan-out sites install tag_only() copies on pool
      // workers and pass nullptr inline — both must keep the tags.
      obs::ScopedRequestContext inline_adopt(nullptr);
      obs::Span s("inline_task");
    }
    {
      obs::ScopedRequestContext pool_adopt(&task_ctx);
      obs::Span s("pool_task");
    }
  }
  EXPECT_EQ(obs::current_request_context(), nullptr);

  for (const auto& s : obs::Tracer::global().snapshot()) {
    EXPECT_EQ(s.req_id, 9u) << s.path;
    EXPECT_EQ(s.tenant, "t") << s.path;
  }
  // The inline task was collected by the outer context; the tag_only
  // copy collected nothing (stage lists stay single-owner).
  ASSERT_EQ(ctx.stage_ns.size(), 1u);
  EXPECT_EQ(ctx.stage_ns[0].first, "inline_task");
  EXPECT_TRUE(task_ctx.stage_ns.empty());
}

TEST_F(ObsTest, ChromeTraceCarriesRequestTags) {
  obs::RequestContext ctx;
  ctx.req_id = 11;
  ctx.tenant = "acme";
  {
    obs::ScopedRequestContext scoped(&ctx);
    obs::Span s("tagged");
  }
  const std::string json = obs::chrome_trace_json(obs::Tracer::global().snapshot());
  const JsonValue doc = parse_json(json);
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("args").at("req_id").as_u64(), 11u);
  EXPECT_EQ(events[0].at("args").at("tenant").as_string(), "acme");
  // The tags round-trip through the parser (both export formats).
  for (const std::string& text : {json, obs::Tracer::global().to_json()}) {
    const auto parsed = obs::parse_trace_json(text);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].req_id, 11u);
    EXPECT_EQ(parsed[0].tenant, "acme");
  }
}

TEST_F(LogTest, RequestContextTagsTimedLogFormOnly) {
  obs::RequestContext ctx;
  ctx.req_id = 13;
  ctx.tenant = "acme";
  {
    obs::ScopedRequestContext scoped(&ctx);
    obs::LogEvent(obs::LogLevel::kInfo, "tagged");
  }
  { obs::LogEvent(obs::LogLevel::kInfo, "untagged"); }

  const auto records = obs::Logger::global().snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].ctx_req_id, 13u);
  EXPECT_EQ(records[0].ctx_tenant, "acme");
  EXPECT_EQ(records[1].ctx_req_id, 0u);

  // The timed form carries the attribution; the canonical form must
  // not (stage->request attribution is timing-dependent at >1 worker).
  const JsonValue timed = parse_json(records[0].to_json());
  EXPECT_EQ(timed.at("req_id").as_u64(), 13u);
  EXPECT_EQ(timed.at("tenant").as_string(), "acme");
  const std::string canonical = obs::Logger::global().canonical_jsonl();
  EXPECT_EQ(canonical.find("req_id"), std::string::npos);
  EXPECT_EQ(canonical.find("acme"), std::string::npos);
}

}  // namespace
}  // namespace mpa
