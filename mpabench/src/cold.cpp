// cold_pipeline: the paper pipeline from a cold open, repeated. Each
// pass opens the mpac dataset and runs case_table -> lint ->
// dependence -> causal (top-MI practice) -> 2-class CV -> online
// prediction (2 classes, history 3). Case-table inference dominates,
// so parse, scan, diff, design-metric, lint, operational-metric, load
// and materialize changes all show in the pass time.
#include <algorithm>

#include "answers.hpp"
#include "bench_math.hpp"
#include "engine/session.hpp"
#include "inputs.hpp"
#include "io/columnar.hpp"
#include "mirror.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace mpabench {
using namespace mpa;

namespace {

/// Every kMirrorStride-th network is re-inferred by the mirror in the
/// traced run (a serial re-run of all of them would cost more than the
/// rest of the run).
constexpr std::size_t kMirrorStride = 8;

SessionOptions session_options(std::uint64_t seed, int threads) {
  SessionOptions opts;
  opts.seed = seed;
  opts.threads = threads;
  return opts;
}

/// from_directory split at its io calls, so a traced pass can see the
/// load and materialize layers; the timed pass calls from_directory.
AnalysisSession open_traced(const std::string& dir, SessionOptions opts, Outcome* out) {
  Span open("engine.open");
  ColumnarDataset mapped = [&] {
    Span s("io.load");
    return load_columnar(dir);
  }();
  if (out != nullptr) out->add("io.bytes_read", static_cast<double>(mapped.total_bytes()), "bytes");
  DiskDataset data = [&] {
    Span s("io.materialize");
    return mapped.to_disk_dataset();
  }();
  int months = 1;
  for (const auto& t : data.tickets.all()) months = std::max(months, month_of(t.created) + 1);
  for (const auto& dev : data.snapshots.devices())
    for (const auto& s : data.snapshots.for_device(dev))
      months = std::max(months, month_of(s.time) + 1);
  opts.inference.num_months = months;
  return AnalysisSession(std::move(data.inventory), std::move(data.snapshots),
                         std::move(data.tickets), std::move(opts));
}

/// One pipeline pass; returns the digest of every answer.
std::string pipeline_pass(const std::string& dir, const SessionOptions& opts, bool traced,
                          Outcome* out = nullptr) {
  Span pass("pass");
  AnalysisSession s = traced ? open_traced(dir, opts, out)
                             : AnalysisSession::from_directory(dir, opts);
  Answers ans;
  {
    Span sp("engine.case_table");
    ans.table(s.case_table());
  }
  {
    Span sp("engine.lint");
    ans.lint(s.lint());
  }
  Practice top{};
  {
    Span sp("mpa.dependence");
    const DependenceAnalysis& dep = s.dependence();
    ans.rankings(dep);
    top = dep.mi_ranking().front().practice;
  }
  {
    Span sp("mpa.causal");
    ans.causal(s.causal(top));
  }
  {
    Span sp("learn.cv");
    ans.eval(s.evaluate_cv(2, ModelKind::kDtBoostOversample));
  }
  {
    Span sp("learn.online");
    const int months = s.num_months();
    ans.value(s.online_accuracy(2, 3, ModelKind::kDtBoostOversample, std::min(months - 1, 3),
                                months - 1));
  }
  Span close("engine.close");
  return ans.hex();
}

/// Re-infer a sample of networks serially through the mirror and
/// through infer_case_table; both must reproduce the pass's rows bit
/// for bit.
void mirror_inference(const std::string& dir, const SessionOptions& opts, Outcome& out) {
  AnalysisSession s = AnalysisSession::from_directory(dir, opts);
  const CaseTable& full = s.case_table();
  const auto months = static_cast<std::size_t>(s.num_months());

  Inventory sample;
  std::vector<Case> expected;
  const auto& networks = s.inventory().networks();
  for (std::size_t n = 0; n < networks.size(); n += kMirrorStride) {
    sample.add_network(networks[n]);
    for (const auto* d : s.inventory().devices_in(networks[n].network_id)) sample.add_device(*d);
    expected.insert(expected.end(), full.cases().begin() + static_cast<std::ptrdiff_t>(n * months),
                    full.cases().begin() + static_cast<std::ptrdiff_t>((n + 1) * months));
  }
  InferenceOptions iopts = s.options().inference;
  iopts.pool = nullptr;

  mirror_counts() = {};
  std::vector<Case> mirrored;
  {
    Span m("metrics.mirror");
    for (const auto& net : sample.networks()) {
      auto rows = mirror_network_cases(net, sample, s.snapshots(), s.tickets(), iopts, 0);
      mirrored.insert(mirrored.end(), rows.begin(), rows.end());
    }
  }
  CaseTable serial;
  const double t0 = now_s();
  {
    Span m("metrics.infer_serial");
    serial = infer_case_table(sample, s.snapshots(), s.tickets(), iopts);
  }
  const double serial_s = now_s() - t0;
  out.check(same_bits(mirrored, serial.cases()), "mirror rows equal infer_case_table's");
  out.check(same_bits(serial.cases(), expected), "serial sample rows equal the pooled table's");

  double leaf_s = 0;
  for (const std::string& name : mirror_leaf_spans()) leaf_s += span_total_s(name);
  const MirrorCounts& c = mirror_counts();
  out.add("metrics.infer_serial_s", serial_s, "s");
  out.add("metrics.mirror_coverage", leaf_s / serial_s, "ratio");
  out.add("metrics.mirror_networks", static_cast<double>(sample.num_networks()), "count");
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

void prepare_cold_pipeline(const Args& args) { ensure_dataset(dataset_key(args.seed)); }

Outcome run_cold_pipeline(const Args& args) {
  Outcome out;
  const std::string dir = ensure_dataset(dataset_key(args.seed));

  // Set-up: the reference answers, computed on one engine thread.
  const double t0 = now_s();
  const std::string reference = pipeline_pass(dir, session_options(args.seed, 1), false);
  const double setup_s = now_s() - t0;
  log("cold_pipeline reference " + reference + " in " + std::to_string(setup_s) + " s");

  const SessionOptions opts = session_options(args.seed, kEngineThreads);
  const PassTimes t = run_passes(
      args, reference,
      [&](bool traced, bool first) { return pipeline_pass(dir, opts, traced, first ? &out : nullptr); },
      out);
  if (!args.trace) {
    add_pass_metrics(out, setup_s, t.plain_s, "pipeline_s");
    return out;
  }
  const double passes = static_cast<double>(t.traced_s.size());
  const auto per_pass = [&](const char* span) { return span_total_s(span) / passes; };
  out.add("io.load_s", per_pass("io.load"), "s");
  out.add("io.materialize_s", per_pass("io.materialize"), "s");
  out.add("engine.open_s", per_pass("engine.open"), "s");
  out.add("engine.case_table_s", per_pass("engine.case_table"), "s");
  out.add("engine.lint_s", per_pass("engine.lint"), "s");
  out.add("mpa.dependence_s", per_pass("mpa.dependence"), "s");
  out.add("mpa.causal_s", per_pass("mpa.causal"), "s");
  out.add("learn.cv_s", per_pass("learn.cv"), "s");
  out.add("learn.online_s", per_pass("learn.online"), "s");
  add_trace_shares(out, "pass", median(t.traced_s), median(t.plain_s));

  spans_enable(true);
  mirror_inference(dir, opts, out);
  spans_enable(false);
  return out;
}

}  // namespace mpabench
