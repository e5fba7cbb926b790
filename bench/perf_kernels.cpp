// Microbenchmarks of the library's computational kernels
// (google-benchmark): config parse/render/diff, MI, logistic fit,
// matching, tree learning — plus serial-vs-parallel timings of the
// three engine fan-out stages (inference, causal QED, CV). The
// parallel variants run on a pool sized by MPA_THREADS (default:
// hardware concurrency); arg 0 = serial, arg 1 = pooled.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>

#include "config/dialect.hpp"
#include "config/diff.hpp"
#include "config/lint.hpp"
#include "engine/session.hpp"
#include "io/columnar.hpp"
#include "io/dataset_io.hpp"
#include "learn/decision_tree.hpp"
#include "metrics/inference.hpp"
#include "mpa/causal.hpp"
#include "mpa/dependence.hpp"
#include "mpa/modeling.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "simulation/osp_generator.hpp"
#include "stats/info.hpp"
#include "stats/matching.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace mpa;

DeviceConfig make_config(int stanzas) {
  DeviceConfig c("dev");
  for (int i = 0; i < stanzas; ++i) {
    Stanza s;
    s.type = i % 3 == 0 ? "interface" : (i % 3 == 1 ? "vlan" : "ip access-list");
    s.name = "obj-" + std::to_string(i);
    s.set("ip address", "10.0." + std::to_string(i % 250) + ".1/24");
    s.set("description", "stanza " + std::to_string(i));
    c.add(s);
  }
  return c;
}

void BM_RenderIos(benchmark::State& state) {
  const DeviceConfig c = make_config(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(render(c, Dialect::kIosLike));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RenderIos)->Arg(16)->Arg(128);

void BM_ParseIos(benchmark::State& state) {
  const std::string text = render(make_config(static_cast<int>(state.range(0))), Dialect::kIosLike);
  for (auto _ : state) benchmark::DoNotOptimize(parse(text, Dialect::kIosLike, "dev"));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParseIos)->Arg(16)->Arg(128);

// diff() as inference runs it: over facts handles built outside the
// loop, `before` and `after` sharing every handle but the one updated
// stanza's, as consecutive interned snapshots do.
void BM_Diff(benchmark::State& state) {
  const DeviceConfig a = make_config(static_cast<int>(state.range(0)));
  DeviceConfig b = a;
  Stanza& updated = *b.find("interface", "obj-0");
  updated.replace("description", "changed");
  const std::vector<StanzaFacts> facts = facts_of(a);
  const StanzaFacts updated_facts = facts_of(updated);
  std::vector<const StanzaFacts*> before;
  for (const StanzaFacts& f : facts) before.push_back(&f);
  std::vector<const StanzaFacts*> after = before;
  after[0] = &updated_facts;
  for (auto _ : state) benchmark::DoNotOptimize(diff(before, after));
}
BENCHMARK(BM_Diff)->Arg(16)->Arg(128);

// arg 1: 0 = retained std::map reference kernel, 1 = dense contingency
// kernel (the production path for binned data).
void BM_MutualInformation(benchmark::State& state) {
  Rng rng(1);
  std::vector<int> x, y;
  for (int i = 0; i < state.range(0); ++i) {
    x.push_back(static_cast<int>(rng.uniform_int(0, 9)));
    y.push_back(static_cast<int>(rng.uniform_int(0, 9)));
  }
  const bool dense = state.range(1) != 0;
  if (dense) {
    for (auto _ : state) benchmark::DoNotOptimize(mutual_information(x, y));
  } else {
    for (auto _ : state) benchmark::DoNotOptimize(reference::mutual_information(x, y));
  }
  state.SetLabel(dense ? "dense" : "map");
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MutualInformation)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

// All-pairs CMI over binned columns — the §5.1 Table 4 inner loop.
// arg 0: columns (pairs = k*(k-1)/2), arg 1: 0 = map kernel, 1 = dense.
void BM_CmiPairs(benchmark::State& state) {
  Rng rng(4);
  const int k = static_cast<int>(state.range(0));
  const int n = 2000;
  std::vector<std::vector<int>> cols(static_cast<std::size_t>(k));
  std::vector<int> y;
  for (auto& c : cols)
    for (int i = 0; i < n; ++i) c.push_back(static_cast<int>(rng.uniform_int(0, 9)));
  for (int i = 0; i < n; ++i) y.push_back(static_cast<int>(rng.uniform_int(0, 9)));
  const bool dense = state.range(1) != 0;
  for (auto _ : state) {
    double sum = 0;
    for (int a = 0; a < k; ++a)
      for (int b = a + 1; b < k; ++b)
        sum += dense ? conditional_mutual_information(cols[static_cast<std::size_t>(a)],
                                                      cols[static_cast<std::size_t>(b)], y)
                     : reference::conditional_mutual_information(
                           cols[static_cast<std::size_t>(a)], cols[static_cast<std::size_t>(b)], y);
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel(dense ? "dense" : "map");
  state.SetItemsProcessed(state.iterations() * (k * (k - 1) / 2));
}
BENCHMARK(BM_CmiPairs)->Args({8, 0})->Args({8, 1})->Unit(benchmark::kMillisecond);

// Args: rows, confounders. With 3 confounders the fit's 4x4 Hessian is
// negligible; 31 confounders over 2,900 rows is the causal stage's
// largest comparison point (32 weights with the intercept), where the
// Hessian dominates.
void BM_PropensityMatch(benchmark::State& state) {
  Rng rng(2);
  Matrix treated, untreated;
  const auto confounders = static_cast<std::size_t>(state.range(1));
  for (int i = 0; i < state.range(0); ++i) {
    const double z = rng.uniform(0, 1);
    std::vector<double> row{z, z * 2 + rng.normal(0, 0.3), rng.uniform(0, 1)};
    while (row.size() < confounders) row.push_back(z * rng.uniform(0, 3) + rng.normal(0, 1));
    (rng.bernoulli(0.2 + 0.6 * z) ? treated : untreated).push_back(std::move(row));
  }
  for (auto _ : state) benchmark::DoNotOptimize(propensity_match(treated, untreated));
}
BENCHMARK(BM_PropensityMatch)->Args({500, 3})->Args({4000, 3})->Args({2900, 31});

void BM_DecisionTreeFit(benchmark::State& state) {
  Rng rng(3);
  Dataset d;
  d.num_classes = 2;
  d.feature_bins = 5;
  for (int j = 0; j < 30; ++j) d.feature_names.push_back("f" + std::to_string(j));
  for (int i = 0; i < state.range(0); ++i) {
    std::vector<int> x;
    for (int j = 0; j < 30; ++j) x.push_back(static_cast<int>(rng.uniform_int(0, 4)));
    d.y.push_back(x[0] >= 3 || x[5] == 0 ? 1 : 0);
    d.x.push_back(std::move(x));
    d.w.push_back(1);
  }
  for (auto _ : state) benchmark::DoNotOptimize(DecisionTree::fit(d));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecisionTreeFit)->Arg(1000)->Arg(10000);

// Tree fit on a wide feature matrix: split search fills every
// candidate feature's histogram in one pass over the node's rows.
void BM_TreeFitColumnar(benchmark::State& state) {
  Rng rng(6);
  Dataset d;
  d.num_classes = 5;
  d.feature_bins = 5;
  const int features = 35;  // the full practice vector
  for (int j = 0; j < features; ++j) d.feature_names.push_back("f" + std::to_string(j));
  for (int i = 0; i < state.range(0); ++i) {
    std::vector<int> x;
    for (int j = 0; j < features; ++j) x.push_back(static_cast<int>(rng.uniform_int(0, 4)));
    d.y.push_back((x[0] + x[7] + x[20]) % 5);
    d.x.push_back(std::move(x));
    d.w.push_back(1);
  }
  TreeOptions opts;
  opts.max_depth = 6;
  for (auto _ : state) benchmark::DoNotOptimize(DecisionTree::fit(d, opts));
  state.SetItemsProcessed(state.iterations() * state.range(0) * features);
}
BENCHMARK(BM_TreeFitColumnar)->Arg(2000)->Arg(20000)->Unit(benchmark::kMillisecond);

// --- engine fan-out stages: serial vs parallel ------------------------

ThreadPool& perf_pool() {
  static ThreadPool pool;
  return pool;
}

const OspDataset& perf_osp() {
  static const OspDataset data = [] {
    OspOptions opts;
    opts.num_networks = 60;
    opts.num_months = 6;
    opts.seed = 5;
    return generate_osp(opts);
  }();
  return data;
}

const CaseTable& perf_table() {
  static const CaseTable table = [] {
    InferenceOptions opts;
    opts.num_months = 6;
    return infer_case_table(perf_osp().inventory, perf_osp().snapshots, perf_osp().tickets,
                            opts);
  }();
  return table;
}

void set_mode_label(benchmark::State& state, bool parallel) {
  state.SetLabel(parallel ? "pool=" + std::to_string(perf_pool().size()) + " threads"
                          : "serial");
}

void BM_InferCaseTable(benchmark::State& state) {
  const OspDataset& data = perf_osp();
  const bool parallel = state.range(0) != 0;
  InferenceOptions opts;
  opts.num_months = 6;
  if (parallel) opts.pool = &perf_pool();
  for (auto _ : state)
    benchmark::DoNotOptimize(infer_case_table(data.inventory, data.snapshots, data.tickets, opts));
  set_mode_label(state, parallel);
  state.SetItemsProcessed(state.iterations() * 60);  // networks
}
BENCHMARK(BM_InferCaseTable)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Full dependence analysis (view build + MI ranking + all CMI pairs),
// serial vs pooled fan-out of the pairs.
void BM_DependenceAnalysis(benchmark::State& state) {
  const CaseTable& table = perf_table();
  const bool parallel = state.range(0) != 0;
  DependenceOptions opts;
  if (parallel) opts.pool = &perf_pool();
  for (auto _ : state) {
    DependenceAnalysis dep(table, opts);
    benchmark::DoNotOptimize(&dep);
  }
  set_mode_label(state, parallel);
  const std::size_t k = analysis_practices().size();
  state.SetItemsProcessed(state.iterations() * static_cast<long>(k * (k - 1) / 2));
}
BENCHMARK(BM_DependenceAnalysis)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CausalAnalysis(benchmark::State& state) {
  const CaseTable& table = perf_table();
  const bool parallel = state.range(0) != 0;
  CausalOptions opts;
  if (parallel) opts.pool = &perf_pool();
  for (auto _ : state)
    benchmark::DoNotOptimize(causal_analysis(table, Practice::kNumChangeEvents, opts));
  set_mode_label(state, parallel);
}
BENCHMARK(BM_CausalAnalysis)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EvaluateModelCv(benchmark::State& state) {
  const CaseTable& table = perf_table();
  const bool parallel = state.range(0) != 0;
  ModelingOptions opts;
  if (parallel) opts.pool = &perf_pool();
  for (auto _ : state) {
    Rng rng(9);  // same stream every iteration and mode
    benchmark::DoNotOptimize(
        evaluate_model_cv(table, 2, ModelKind::kDtBoostOversample, rng, opts));
  }
  set_mode_label(state, parallel);
}
BENCHMARK(BM_EvaluateModelCv)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Latest rendered snapshot text per device, grouped by network — the
// exact inputs AnalysisSession::lint() fans out over.
const std::vector<std::vector<DeviceText>>& perf_lint_networks() {
  static const std::vector<std::vector<DeviceText>> nets = [] {
    const OspDataset& data = perf_osp();
    std::vector<std::vector<DeviceText>> out;
    for (const auto& net : data.inventory.networks()) {
      std::vector<DeviceText> texts;
      for (const auto* d : data.inventory.devices_in(net.network_id)) {
        const auto& snaps = data.snapshots.for_device(d->device_id);
        if (snaps.empty()) continue;
        texts.push_back(DeviceText{d->device_id, snaps.back().text, dialect_of(d->vendor)});
      }
      out.push_back(std::move(texts));
    }
    return out;
  }();
  return nets;
}

void BM_LintNetworks(benchmark::State& state) {
  const auto& nets = perf_lint_networks();
  const bool parallel = state.range(0) != 0;
  std::size_t configs = 0;
  for (const auto& n : nets) configs += n.size();
  std::vector<std::size_t> findings(nets.size());
  for (auto _ : state) {
    if (parallel) {
      perf_pool().parallel_for(nets.size(), [&](std::size_t i) {
        findings[i] = lint_network_text(nets[i]).size();
      });
    } else {
      for (std::size_t i = 0; i < nets.size(); ++i)
        findings[i] = lint_network_text(nets[i]).size();
    }
    benchmark::DoNotOptimize(findings.data());
  }
  set_mode_label(state, parallel);
  // items/sec == configs linted per second.
  state.SetItemsProcessed(state.iterations() * static_cast<long>(configs));
}
BENCHMARK(BM_LintNetworks)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Appending one month of telemetry to a warm session. arg = months of
// history already resident before the append. The generator's monthly
// volume grows with the month, so bytes/sec (the delta's config-text
// bytes per append) is the figure that should stay flat as the base
// grows; compare against BM_InferCaseTable, which pays for the whole
// history every time. Session construction and artifact warm-up run
// outside the timed region; iterations are pinned because each one
// rebuilds a session from scratch (seconds of untimed setup).
void BM_IncrementalAppend(benchmark::State& state) {
  const int base_months = static_cast<int>(state.range(0));
  const SplitDataset split = [&] {
    OspOptions opts;
    opts.num_networks = 60;
    opts.num_months = base_months + 1;
    opts.seed = 5;
    OspDataset data = generate_osp(opts);
    return split_dataset(DiskDataset{std::move(data.inventory), std::move(data.snapshots),
                                     std::move(data.tickets)},
                         base_months);
  }();
  std::size_t delta_bytes = 0;
  for (const ConfigSnapshot& s : split.deltas.front().snapshots) delta_bytes += s.text.size();
  for (auto _ : state) {
    state.PauseTiming();
    SessionOptions opts;
    opts.threads = 1;
    opts.inference.num_months = base_months;
    AnalysisSession session(split.base.inventory, split.base.snapshots, split.base.tickets,
                            std::move(opts));
    session.case_table();
    session.lint();
    session.dependence();
    state.ResumeTiming();
    const AnalysisSession::AppendResult res = session.append_month(split.deltas.front());
    benchmark::DoNotOptimize(&res);
  }
  state.SetLabel(std::to_string(base_months) + " base months + 1 appended");
  state.SetItemsProcessed(state.iterations() * 60);  // networks touched by the delta
  state.SetBytesProcessed(static_cast<long>(state.iterations()) * static_cast<long>(delta_bytes));
}
BENCHMARK(BM_IncrementalAppend)
    ->Arg(2)
    ->Arg(5)
    ->Arg(11)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// --- observability overhead: spans / counters on vs off ---------------
//
// The obs contract is zero-overhead-when-disabled: a disabled Span
// costs one relaxed atomic load (arg 0). Arg 1 measures the enabled
// recording cost (clock reads + per-thread buffer push). Fixed
// iteration count keeps the enabled run's span buffer bounded.

void BM_SpanOverhead(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  obs::set_enabled(on);
  for (auto _ : state) {
    obs::Span span("bench_overhead");
    benchmark::DoNotOptimize(&span);
  }
  obs::set_enabled(false);
  obs::Tracer::global().clear();
  state.SetLabel(on ? "spans on" : "spans off");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanOverhead)->Arg(0)->Arg(1)->Iterations(200000);

void BM_CounterOverhead(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  obs::set_enabled(on);
  obs::Counter& counter = obs::Registry::global().counter("bench_overhead_total");
  for (auto _ : state) {
    if (obs::enabled()) counter.add(1);  // the engine's gating idiom
    benchmark::DoNotOptimize(&counter);
  }
  obs::set_enabled(false);
  counter.reset();
  state.SetLabel(on ? "counters on" : "counters off");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterOverhead)->Arg(0)->Arg(1)->Iterations(200000);

/// Structured event log (obs/log.hpp). Disabled (BM_LogEventDisabled)
/// pins the zero-overhead contract: constructing a LogEvent while the
/// log is off is a single relaxed atomic load — no clock, no
/// allocation. Enabled measures a three-field event committed into the
/// flight-recorder ring (bounded so the fixed iteration count cannot
/// grow memory).
void BM_LogEvent(benchmark::State& state) {
  obs::set_log_min_level(obs::LogLevel::kDebug);
  obs::set_log_enabled(true);
  obs::Logger::global().set_ring_capacity(4096);
  std::uint64_t n = 0;
  for (auto _ : state) {
    obs::LogEvent(obs::LogLevel::kInfo, "bench_event")
        .str("stage", "bench")
        .u64("n", n++)
        .boolean("ok", true);
  }
  obs::set_log_enabled(false);
  obs::Logger::global().set_ring_capacity(0);
  obs::Logger::global().clear();
  state.SetLabel("log on");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogEvent)->Iterations(200000);

void BM_LogEventDisabled(benchmark::State& state) {
  obs::set_log_enabled(false);
  std::uint64_t n = 0;
  for (auto _ : state) {
    obs::LogEvent ev(obs::LogLevel::kInfo, "bench_event");
    ev.str("stage", "bench").u64("n", n++).boolean("ok", true);
    benchmark::DoNotOptimize(&ev);
  }
  state.SetLabel("log off");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogEventDisabled)->Iterations(200000);

// --- serving layer: scheduler + render throughput ----------------------
//
// One resident session, stages pre-warmed by a first replay, then a
// synthetic client replays a fixed 32-request trace per iteration —
// measuring the serving overhead (admission, tenant queues, dispatch,
// render) rather than cold analysis cost. Arg = offered inter-arrival
// gap in ms: 0 is closed-loop (max pressure); 2 and 10 are paced
// open-loop levels. The recorded report feeds BENCH_perf_kernels.json.
void BM_ServeThroughput(benchmark::State& state) {
  static serve::AnalysisServer* server = [] {
    serve::ServerOptions opts;
    opts.scheduler.workers = 2;
    opts.session.threads = 2;
    auto* s = new serve::AnalysisServer(opts);
    OspDataset data = perf_osp();
    SessionOptions sopts;
    sopts.threads = 2;
    sopts.inference.num_months = 6;
    s->sessions().open("main", AnalysisSession(std::move(data.inventory),
                                               std::move(data.snapshots),
                                               std::move(data.tickets), std::move(sopts)));
    return s;
  }();

  serve::ClientOptions copts;
  copts.request_total_cnt = 32;
  copts.seed = 17;
  copts.tenants = {"t0", "t1"};
  copts.request_interval_ms = static_cast<double>(state.range(0));
  const std::vector<serve::Request> trace = serve::synthesize_trace(copts);
  const serve::SyntheticClient client(copts);

  // Warm every memoized stage the trace touches, once.
  static bool warmed = false;
  if (!warmed) {
    warmed = true;
    server->clear_responses();
    client.replay(*server, trace);
  }

  double p99_ms = 0;
  std::uint64_t completed = 0;
  for (auto _ : state) {
    server->clear_responses();
    const serve::LoadReport report = client.replay(*server, trace);
    completed += report.total;
    p99_ms = report.p99_ms;
    benchmark::DoNotOptimize(&report);
  }
  state.SetItemsProcessed(static_cast<long>(completed));
  state.counters["p99_ms"] = p99_ms;
  state.SetLabel(state.range(0) == 0 ? "closed-loop"
                                     : "interval=" + std::to_string(state.range(0)) + "ms");
}
BENCHMARK(BM_ServeThroughput)->Arg(0)->Arg(2)->Arg(10)->Unit(benchmark::kMillisecond);

// Worker hot-path cost of folding one finished request into the
// windowed registry: one series-map lookup under the registry mutex,
// then relaxed-atomic bucket updates. The loop rotates across a few
// tenants so the map holds more than one series.
void BM_WindowRecordOverhead(benchmark::State& state) {
  obs::WindowRegistry window;  // default 60 x 1s buckets, real clock
  static const char* kTenants[] = {"t0", "t1", "t2", "t3"};
  std::size_t i = 0;
  for (auto _ : state) {
    window.record(kTenants[i++ % 4], "rank", "ok", 0.2, 1.5, 1.7);
    benchmark::DoNotOptimize(&window);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowRecordOverhead)->Iterations(200000);

// Latency of an out-of-band `stats` introspection request answered
// synchronously at submit: scheduler stats snapshot + windowed
// snapshot + session list + slow log, serialized to a JSON body —
// the cost a monitoring poll imposes on a live daemon.
void BM_StatsRequest(benchmark::State& state) {
  static serve::AnalysisServer* server = [] {
    serve::ServerOptions opts;
    opts.scheduler.workers = 2;
    opts.session.threads = 2;
    auto* s = new serve::AnalysisServer(opts);
    OspDataset data = perf_osp();
    SessionOptions sopts;
    sopts.threads = 2;
    sopts.inference.num_months = 6;
    s->sessions().open("main", AnalysisSession(std::move(data.inventory),
                                               std::move(data.snapshots),
                                               std::move(data.tickets), std::move(sopts)));
    // Populate the slow log and stats with a small replay, once.
    serve::ClientOptions copts;
    copts.request_total_cnt = 16;
    copts.seed = 17;
    serve::SyntheticClient(copts).replay(*s, serve::synthesize_trace(copts));
    return s;
  }();

  std::size_t bytes = 0;
  for (auto _ : state) {
    serve::Request req;
    req.kind = serve::RequestKind::kStats;
    const serve::Response resp = server->submit_and_wait(std::move(req));
    bytes = resp.body.size();
    benchmark::DoNotOptimize(&resp);
  }
  server->clear_responses();  // introspection responses accumulate otherwise
  state.SetItemsProcessed(state.iterations());
  state.counters["body_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_StatsRequest)->Iterations(2000);

// ---- dataset I/O: CSV interchange vs mpac columnar ----

namespace fs = std::filesystem;

const DiskDataset& io_bench_dataset(int networks) {
  static std::map<int, DiskDataset>* cache = new std::map<int, DiskDataset>();
  auto it = cache->find(networks);
  if (it == cache->end()) {
    OspOptions o;
    o.num_networks = networks;
    o.num_months = 4;
    o.seed = 11;
    OspDataset gen = generate_osp(o);
    it = cache
             ->emplace(networks, DiskDataset{std::move(gen.inventory), std::move(gen.snapshots),
                                             std::move(gen.tickets)})
             .first;
  }
  return it->second;
}

/// Lazily saved on-disk copy of the bench dataset, one per
/// scale+format; reused across iterations and benchmarks.
const std::string& io_bench_dir(int networks, bool mpac) {
  static std::map<std::pair<int, bool>, std::string>* dirs =
      new std::map<std::pair<int, bool>, std::string>();
  auto it = dirs->find({networks, mpac});
  if (it == dirs->end()) {
    const std::string dir =
        (fs::temp_directory_path() /
         ("mpa_perf_ds_" + std::to_string(networks) + (mpac ? "_mpac" : "_csv")))
            .string();
    fs::remove_all(dir);
    if (mpac)
      save_columnar(io_bench_dataset(networks), dir);
    else
      save_dataset(io_bench_dataset(networks), dir);
    it = dirs->emplace(std::pair<int, bool>{networks, mpac}, dir).first;
  }
  return it->second;
}

// arg0 = networks; arg1 = 0 CSV text parse, 1 mpac map+verify (mmap +
// fingerprint + shard validation), 2 mpac decoded to DiskDataset with
// every record checked and each snapshot text aliasing its mapping
// (what a session open runs).
void BM_DatasetLoad(benchmark::State& state) {
  const int networks = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  const std::string& dir = io_bench_dir(networks, mode != 0);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    if (mode == 1) {
      const ColumnarDataset ds = load_columnar(dir);
      bytes = ds.total_bytes();
      benchmark::DoNotOptimize(&ds);
    } else {
      std::uint64_t read = 0;
      const DiskDataset ds = load_dataset(dir, &read);
      bytes = read;
      benchmark::DoNotOptimize(&ds);
    }
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) * static_cast<long>(bytes));
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * networks);
  state.SetLabel(mode == 0 ? "csv" : (mode == 1 ? "mpac-map" : "mpac-materialize"));
}
BENCHMARK(BM_DatasetLoad)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Unit(benchmark::kMillisecond);

// arg0 = networks; arg1 = 0 CSV, 1 mpac.
void BM_DatasetSave(benchmark::State& state) {
  const int networks = static_cast<int>(state.range(0));
  const bool mpac = state.range(1) != 0;
  const DiskDataset& data = io_bench_dataset(networks);
  const std::string dir =
      (fs::temp_directory_path() / ("mpa_perf_save_" + std::to_string(networks))).string();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    fs::remove_all(dir);
    if (mpac) {
      save_columnar(data, dir);
    } else {
      save_dataset(data, dir);
    }
    bytes = 0;
    for (const auto& entry : fs::directory_iterator(dir)) bytes += fs::file_size(entry.path());
  }
  fs::remove_all(dir);
  state.SetBytesProcessed(static_cast<long>(state.iterations()) * static_cast<long>(bytes));
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * networks);
  state.SetLabel(mpac ? "mpac" : "csv");
}
BENCHMARK(BM_DatasetSave)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Unit(benchmark::kMillisecond);

// Streaming generation straight through the shard writer (the
// bounded-memory 100k-network path; the committed BENCH json also
// records a full /usr/bin/time-measured 100k run). networks/sec is
// items_per_second.
void BM_StreamGenerate(benchmark::State& state) {
  const int networks = static_cast<int>(state.range(0));
  const std::string dir = (fs::temp_directory_path() / "mpa_perf_stream").string();
  class Sink final : public OspSink {
   public:
    explicit Sink(ColumnarWriter& w) : w_(w) {}
    void on_network(const NetworkRecord& net) override { w_.add_network(net); }
    void on_device(const DeviceRecord& dev) override { w_.add_device(dev); }
    void on_snapshot(const ConfigSnapshot& snap) override { w_.add_snapshot(snap); }
    void on_ticket(const Ticket& t) override { w_.add_ticket(t); }

   private:
    ColumnarWriter& w_;
  };
  OspOptions opts;
  opts.num_networks = networks;
  opts.num_months = 2;
  opts.seed = 11;
  for (auto _ : state) {
    fs::remove_all(dir);
    ColumnarWriter writer(dir, {});
    Sink sink(writer);
    const OspStreamTotals totals = generate_osp_stream(opts, sink);
    writer.finish();
    benchmark::DoNotOptimize(&totals);
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * networks);
}
BENCHMARK(BM_StreamGenerate)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_ParallelForOverhead(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n, 0);
  for (auto _ : state) {
    perf_pool().parallel_for(n, [&](std::size_t i) { out[i] = static_cast<double>(i) * 0.5; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_ParallelForOverhead)->Arg(16)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
