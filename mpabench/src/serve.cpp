// serve_ingest: an AnalysisServer with one resident session, read
// open-loop while month deltas are ingested. Each rate phase reopens
// the month-11 base and warms case_table, lint and dependence (set-up),
// then a single driver thread sends reads from synthesize_trace's
// default mix on a fixed schedule while a closed-loop writer sends the
// six monthly ingests, each only after the previous one answered,
// spread evenly through the phase. An ingest holds the session lock
// for a tail inference and drops the causal and CV memos, so reads
// queue behind it and recompute after it.
//
// Queueing amplifies every change in machine speed, so its end-to-end
// figures were too unsteady across runs to gate a change on (README.md);
// BENCHMARK.json leaves this workload out, and warm_analysis's traced
// run measures the serve layers through add_serve_layers.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "bench_math.hpp"
#include "engine/session.hpp"
#include "inputs.hpp"
#include "mirror.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace mpabench {
using namespace mpa;
using namespace mpa::serve;

namespace {

constexpr int kFirstDeltaMonth = kLateMonth;
/// Offered read rates (reads/s) and the read-latency limit at the tail
/// percentile; README.md records how they were chosen.
constexpr double kRateLo = 10;
constexpr double kRateHi = 20;
constexpr double kLatencyLimitMs = 500;
/// Reads per phase: enough that p95 has ten samples beyond it.
constexpr std::size_t kMinReads = 200;
constexpr std::uint64_t kIngestIdBase = 1000000;
constexpr std::uint64_t kTraceSeed = 7000;

struct PhaseResult {
  double rate = 0;
  double setup_s = 0;
  std::vector<double> read_ms;  ///< From scheduled send to response; failed reads excluded.
  std::vector<double> queue_ms;
  std::vector<double> ingest_ms;
  std::map<std::string, std::vector<double>> service_ms;  ///< By request kind.
  std::vector<std::size_t> outstanding_at_send;
  double late_max_ms = 0;
  double wall_s = 0;
  std::uint64_t read_failed = 0;
  double memo_hit_ratio = 0;
  std::string final_table;  ///< bits_digest of the case table after every ingest.
};

/// What the server's tap records: completion time and the response
/// fields the benchmark needs (bodies are not kept).
struct Completion {
  double at = 0;
  RequestKind kind{};
  RequestStatus status{};
  double queue_ms = 0;
  double service_ms = 0;
};

PhaseResult run_phase(const SplitInputs& in, double rate, double seconds, std::uint64_t seed,
                      Outcome& out) {
  PhaseResult res;
  res.rate = rate;
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, Completion> done;  // Guarded by mu.
  std::atomic<std::size_t> completed{0};

  ServerOptions so;
  so.scheduler.workers = kServeWorkers;
  so.session.threads = kEngineThreads;
  so.session.seed = seed;
  AnalysisServer server(so, [&](const Response& r) {
    const double at = now_s();
    {
      std::lock_guard<std::mutex> lk(mu);
      done[r.id] = Completion{at, r.kind, r.status, r.queue_ms, r.service_ms};
    }
    completed.fetch_add(1);
    cv.notify_all();
  });

  Span phase("serve.phase");
  const double s0 = now_s();
  {
    Span s("serve.setup");
    server.open_directory("main", in.base);
    server.sessions().with_session("main", [](AnalysisSession& session) {
      session.case_table();
      session.lint();
      session.dependence();
      return 0;
    });
  }
  res.setup_s = now_s() - s0;

  const auto reads = std::max(kMinReads, static_cast<std::size_t>(std::lround(rate * seconds)));
  // The read sequence is part of the workload's definition, like its
  // rates, so it does not vary with the seed: the median read is then
  // the same kind of request on every run, and only the data differs.
  ClientOptions co;
  co.request_total_cnt = static_cast<int>(reads);
  co.seed = kTraceSeed + static_cast<std::uint64_t>(rate);
  const std::vector<Request> trace = synthesize_trace(co);
  const double phase_s = static_cast<double>(reads) / rate;

  std::atomic<std::size_t> sent{0};
  const double t0 = now_s() + 0.01;
  const auto sleep_until = [](double t) {
    const double dt = t - now_s();
    if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
  };
  std::vector<double> ingest_sent(in.deltas.size());
  // A jthread joins on every exit path; the server outlives it, so an
  // ingest in flight still completes.
  std::jthread writer([&] {
    for (std::size_t k = 0; k < in.deltas.size(); ++k) {
      sleep_until(t0 + (static_cast<double>(k) + 0.5) * phase_s /
                           static_cast<double>(in.deltas.size()));
      Request req;
      req.id = kIngestIdBase + k;
      req.kind = RequestKind::kIngest;
      req.dir = in.deltas[k];
      ingest_sent[k] = now_s();
      sent.fetch_add(1);
      server.submit(req);
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return done.count(req.id) != 0; });
    }
  });

  std::vector<double> scheduled(reads);
  {
    Span s("serve.reads");
    for (std::size_t i = 0; i < reads; ++i) {
      scheduled[i] = t0 + static_cast<double>(i) / rate;
      sleep_until(scheduled[i]);
      res.late_max_ms = std::max(res.late_max_ms, (now_s() - scheduled[i]) * 1e3);
      res.outstanding_at_send.push_back(sent.load() - completed.load());
      Request req = trace[i];
      req.id = i + 1;
      sent.fetch_add(1);
      server.submit(std::move(req));
      // The server keeps every response; the tap already has what the
      // benchmark needs, so drop them as the phase goes.
      if (i % 64 == 63) server.clear_responses();
    }
    writer.join();
    server.drain();
  }
  res.wall_s = now_s() - t0;
  server.clear_responses();

  // drain() can return while the tap is still recording the last
  // response, so read the completions under their lock.
  std::lock_guard<std::mutex> lk(mu);
  for (std::size_t i = 0; i < reads; ++i) {
    const Completion& c = done.at(i + 1);
    const bool ok = c.status == RequestStatus::kOk;
    out.op(ok);
    if (!ok) {
      ++res.read_failed;
      continue;
    }
    res.read_ms.push_back((c.at - scheduled[i]) * 1e3);
    res.queue_ms.push_back(c.queue_ms);
    res.service_ms[std::string(to_string(c.kind))].push_back(c.service_ms);
  }
  for (std::size_t k = 0; k < in.deltas.size(); ++k) {
    const Completion& c = done.at(kIngestIdBase + k);
    out.op(c.status == RequestStatus::kOk);
    res.ingest_ms.push_back((c.at - ingest_sent[k]) * 1e3);
    res.service_ms["ingest"].push_back(c.service_ms);
  }
  server.sessions().with_session("main", [&](AnalysisSession& session) {
    const RunManifest m = session.manifest();
    std::size_t memo = 0;
    for (const StageRun& r : m.stages) memo += r.source == "memo" ? 1 : 0;
    res.memo_hit_ratio =
        m.stages.empty() ? 0 : static_cast<double>(memo) / static_cast<double>(m.stages.size());
    res.final_table = bits_digest(session.case_table().cases());
    return 0;
  });
  return res;
}

double tail_ms(const std::vector<double>& v) {
  const auto p = tail_percentile(v.size());
  return p ? percentile(v, *p) : (v.empty() ? 0 : *std::max_element(v.begin(), v.end()));
}

/// Replays the six ingests straight into a session, outside the server,
/// timing each append, the tail inference it runs, and — for the first
/// and last month — the serial mirror of that tail.
void trace_ingest_layers(const SplitInputs& in, std::uint64_t seed, Outcome& out) {
  SessionOptions opts;
  opts.seed = seed;
  opts.threads = kEngineThreads;
  AnalysisSession s = AnalysisSession::from_directory(in.base, opts);
  s.case_table();
  s.lint();
  s.dependence();
  std::vector<double> append_s;
  double tail_s = 0;
  double serial_s = 0;
  mirror_counts() = {};
  for (std::size_t k = 0; k < in.deltas.size(); ++k) {
    const MonthDelta delta = [&] {
      Span sp("io.delta_load");
      return load_month_delta(in.deltas[k]);
    }();
    const double a0 = now_s();
    {
      Span sp("engine.append");
      s.append_month(delta);
    }
    append_s.push_back(now_s() - a0);
    InferenceOptions iopts = s.options().inference;
    iopts.pool = &s.pool();
    const double i0 = now_s();
    CaseTable tail;
    {
      Span sp("metrics.tail_infer");
      tail = infer_case_table_tail(s.inventory(), s.snapshots(), s.tickets(), iopts, delta.month);
    }
    tail_s += now_s() - i0;
    if (k != 0 && k + 1 != in.deltas.size()) continue;
    iopts.pool = nullptr;
    std::vector<Case> mirrored;
    {
      Span sp("metrics.mirror");
      for (const auto& net : s.inventory().networks()) {
        auto rows = mirror_network_cases(net, s.inventory(), s.snapshots(), s.tickets(), iopts,
                                         delta.month);
        mirrored.insert(mirrored.end(), rows.begin(), rows.end());
      }
    }
    const double m0 = now_s();
    {
      Span sp("metrics.infer_serial");
      infer_case_table_tail(s.inventory(), s.snapshots(), s.tickets(), iopts, delta.month);
    }
    serial_s += now_s() - m0;
    out.check(same_bits(mirrored, tail.cases()), "tail mirror rows equal infer_case_table_tail's");
  }
  double leaf_s = 0;
  for (const std::string& name : mirror_leaf_spans()) leaf_s += span_total_s(name);
  const double months = static_cast<double>(in.deltas.size());
  const MirrorCounts& c = mirror_counts();
  out.add("engine.append_s", median(append_s), "s");
  out.add("metrics.tail_infer_s", tail_s / months, "s");
  out.add("engine.append_last_first_ratio", append_s.back() / append_s.front(), "ratio");
  out.add("metrics.infer_serial_s", serial_s, "s");
  out.add("metrics.mirror_coverage", leaf_s / serial_s, "ratio");
  out.add("config.parse_s", span_total_s("config.parse"), "s");
  out.add("config.parse_calls", static_cast<double>(span_count("config.parse")), "count");
  out.add("config.scan_s", span_total_s("config.scan"), "s");
  out.add("config.diff_s", span_total_s("config.diff"), "s");
  out.add("config.diff_calls", static_cast<double>(span_count("config.diff")), "count");
  out.add("config.lint_s", span_total_s("config.lint"), "s");
  out.add("config.lint_calls", static_cast<double>(span_count("config.lint")), "count");
  out.add("config.lint_findings", static_cast<double>(c.lint_findings), "count");
  out.add("metrics.state_s", span_total_s("metrics.state"), "s");
  out.add("metrics.design_s", span_total_s("metrics.design"), "s");
  out.add("metrics.ops_s", span_total_s("metrics.events") + span_total_s("metrics.ops"), "s");
  out.add("metrics.network_months", static_cast<double>(c.network_months), "count");
  out.add("metrics.changes", static_cast<double>(c.changes), "count");
  out.add("metrics.events", static_cast<double>(c.events), "count");
}

}  // namespace

void prepare_serve_ingest(const Args& args) {
  ensure_dataset(dataset_key(args.seed));
  ensure_split(dataset_key(args.seed), kFirstDeltaMonth);
}

namespace {

/// The serve_ingest run. As its own workload (`standalone`) a traced
/// run also repeats the lo phase untraced for the trace.* shares; when
/// warm_analysis's traced run borrows it for the serve layers, the
/// shares are warm_analysis's own.
void serve_ingest(const Args& args, bool standalone, Outcome& out) {
  const InputKey key = dataset_key(args.seed);
  const SplitInputs in = ensure_split(key, kFirstDeltaMonth);

  // Half the measured time at each rate, and never fewer reads than
  // the tail percentile needs.
  const double phase_s = args.seconds / 2.0;
  std::vector<PhaseResult> phases;
  // A traced run first repeats the lo phase untraced, so the two read
  // medians give the tracing overhead.
  double untraced_lo_ms = 0;
  if (args.trace && standalone) untraced_lo_ms = median(run_phase(in, kRateLo, phase_s, args.seed, out).read_ms);
  spans_enable(args.trace);
  for (double rate : {kRateLo, kRateHi}) phases.push_back(run_phase(in, rate, phase_s, args.seed, out));
  spans_enable(false);
  // Before the from-scratch check below, which holds a second copy of
  // the dataset.
  const double rss_mb = peak_rss_mb();

  // The incremental-equals-from-scratch contract.
  const std::string scratch = [&] {
    SessionOptions opts;
    opts.seed = args.seed;
    opts.threads = kEngineThreads;
    AnalysisSession s = AnalysisSession::from_directory(ensure_dataset(key), opts);
    return bits_digest(s.case_table().cases());
  }();
  for (const PhaseResult& ph : phases)
    out.check(ph.final_table == scratch, "case table after the ingests equals a from-scratch one");

  std::vector<RatePhase> rule;
  for (const PhaseResult& ph : phases)
    rule.push_back(RatePhase{ph.rate, tail_ms(ph.read_ms), backlog_grew(ph.outstanding_at_send),
                             ph.read_failed});
  const auto sustained = sustained_rate(rule, kLatencyLimitMs);
  double sustained_rps = 0;
  for (const PhaseResult& ph : phases)
    if (sustained && ph.rate == *sustained)
      sustained_rps = static_cast<double>(ph.read_ms.size()) / ph.wall_s;

  const PhaseResult& lo = phases[0];
  const PhaseResult& hi = phases[1];
  std::vector<double> ingest_ms = lo.ingest_ms;
  ingest_ms.insert(ingest_ms.end(), hi.ingest_ms.begin(), hi.ingest_ms.end());
  const std::vector<Metric> serve_metrics = {
      {"serve.read_p50_ms.lo", median(lo.read_ms), "ms"},
      {"serve.read_p95_ms.lo", tail_ms(lo.read_ms), "ms"},
      {"serve.read_p50_ms.hi", median(hi.read_ms), "ms"},
      {"serve.read_p95_ms.hi", tail_ms(hi.read_ms), "ms"},
      {"serve.ingest_p50_ms", median(ingest_ms), "ms"},
      {"serve.sustained_rps", sustained_rps, "1/s"},
  };
  for (const PhaseResult& ph : phases)
    log("serve_ingest phase " + std::to_string(ph.rate) + "/s: " +
        std::to_string(ph.read_ms.size()) + " reads, p50 " + std::to_string(median(ph.read_ms)) +
        " ms, tail " + std::to_string(tail_ms(ph.read_ms)) + " ms, backlog grew " +
        (backlog_grew(ph.outstanding_at_send) ? "yes" : "no") + ", set-up " +
        std::to_string(ph.setup_s) + " s");

  if (!args.trace) {
    out.add("setup_s", median({lo.setup_s, hi.setup_s}), "s");
    out.add("peak_rss_mb", rss_mb, "MiB");
    out.add("p50_ms", median(lo.read_ms), "ms");
    out.add("tail_ms", tail_ms(lo.read_ms), "ms");
    for (const Metric& m : serve_metrics) out.extra.push_back(m);
    return;
  }
  for (const Metric& m : serve_metrics) out.metrics.push_back(m);
  std::vector<double> queue_ms = lo.queue_ms;
  queue_ms.insert(queue_ms.end(), hi.queue_ms.begin(), hi.queue_ms.end());
  out.add("serve.queue_ms.p50", median(queue_ms), "ms");
  out.add("serve.queue_ms.p95", percentile(queue_ms, 95), "ms");
  for (const char* kind : {"case_table", "rank", "causal", "lint", "predict", "ingest"}) {
    std::vector<double> v;
    for (const PhaseResult& ph : phases)
      if (auto it = ph.service_ms.find(kind); it != ph.service_ms.end())
        v.insert(v.end(), it->second.begin(), it->second.end());
    out.add(std::string("serve.service_ms.") + kind, median(v), "ms");
  }
  std::size_t backlog_max = 0;
  double late_max = 0;
  for (const PhaseResult& ph : phases) {
    for (std::size_t b : ph.outstanding_at_send) backlog_max = std::max(backlog_max, b);
    late_max = std::max(late_max, ph.late_max_ms);
  }
  out.add("serve.backlog_max", static_cast<double>(backlog_max), "count");
  out.add("serve.generator_late_ms", late_max, "ms");
  out.add("engine.memo_hit_ratio", median({lo.memo_hit_ratio, hi.memo_hit_ratio}), "ratio");
  if (standalone) add_trace_shares(out, "serve.phase", median(lo.read_ms), untraced_lo_ms);

  spans_enable(true);
  trace_ingest_layers(in, args.seed, out);
  spans_enable(false);
}

}  // namespace

Outcome run_serve_ingest(const Args& args) {
  Outcome out;
  serve_ingest(args, true, out);
  return out;
}

void add_serve_layers(const Args& args, Outcome& out) {
  Args traced = args;
  traced.trace = true;
  serve_ingest(traced, false, out);
}

}  // namespace mpabench
