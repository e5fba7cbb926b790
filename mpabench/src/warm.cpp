// warm_analysis: the analysis half of the paper over a case table
// already in the ArtifactStore. Each pass opens a keyed session (the
// table loads from the store; inference does no work), then runs
// dependence with bootstrap CIs for the top-10 practices, causal
// analysis for every analysis practice, CV at 2 and 5 classes, and the
// online protocol at histories 1, 3 and 6 for both class counts. An
// mpa/stats/learn change shows here; an inference change must not.
// The traced run also runs serve_ingest for the serve layers, which no
// workload in BENCHMARK.json measures end to end (serve.cpp).
#include <algorithm>
#include <filesystem>

#include "answers.hpp"
#include "bench_math.hpp"
#include "engine/session.hpp"
#include "inputs.hpp"
#include "metrics/practices.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace mpabench {
using namespace mpa;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kCiPractices = 10;
constexpr int kCiRounds = 60;

struct PassStats {
  std::uint64_t causal_pairs = 0;
};

std::string analysis_pass(const SessionOptions& opts, PassStats* stats) {
  Span pass("pass");
  AnalysisSession s = [&] {
    Span sp("engine.open");
    return AnalysisSession(Inventory{}, SnapshotStore{}, TicketLog{}, opts);
  }();
  Answers ans;
  {
    Span sp("engine.store_load");
    ans.table(s.case_table());
  }
  {
    Span sp("mpa.dependence");
    ans.rankings(s.dependence());
  }
  {
    Span sp("mpa.mi_ci");
    const DependenceAnalysis& dep = s.dependence();
    Rng rng(opts.seed + 7);
    for (const auto& pm : dep.top_practices(kCiPractices)) {
      const auto [lo, hi] = dep.mi_confidence_interval(pm.practice, rng, kCiRounds);
      ans.value(lo);
      ans.value(hi);
    }
  }
  {
    Span sp("mpa.causal");
    for (Practice p : analysis_practices()) {
      const CausalResult& r = s.causal(p);
      ans.causal(r);
      if (stats != nullptr)
        for (const auto& c : r.comparisons) stats->causal_pairs += c.pairs;
    }
  }
  {
    Span sp("learn.cv");
    for (int classes : {2, 5}) ans.eval(s.evaluate_cv(classes, ModelKind::kDtBoostOversample));
  }
  {
    Span sp("learn.online");
    const int months = s.num_months();
    for (int classes : {2, 5})
      for (int history : {1, 3, 6})
        ans.value(s.online_accuracy(classes, history, ModelKind::kDtBoostOversample,
                                    std::min(months - 1, history), months - 1));
  }
  Span close("engine.close");
  return ans.hex();
}

}  // namespace

void prepare_warm_analysis(const Args& args) {
  ensure_case_table(dataset_key(args.seed));
  prepare_serve_ingest(args);  // The traced run measures the serve layers too.
}

Outcome run_warm_analysis(const Args& args) {
  Outcome out;
  const StoredTable stored = ensure_case_table(dataset_key(args.seed));

  // Set-up, three times for a steady median: a private copy of the
  // store entry (keyed sessions rewrite their manifest as they close)
  // and the 1-thread reference answers, which must agree every time.
  const std::string run_store = cache_root() + "/run-store";
  SessionOptions opts;
  opts.seed = args.seed;
  opts.artifact_dir = run_store;
  opts.artifact_key = stored.artifact_key;
  opts.inference.num_months = kMonths;
  std::string reference;
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    fs::remove_all(run_store);
    fs::create_directories(run_store);
    for (const char* suffix : {".csv", ".lint.csv", ".manifest.json"}) {
      const fs::path from = fs::path(stored.store_dir) / (stored.artifact_key + suffix);
      if (fs::exists(from)) fs::copy_file(from, fs::path(run_store) / from.filename());
    }
    opts.threads = 1;
    const std::string answers = analysis_pass(opts, nullptr);
    setups.push_back(now_s() - t0);
    if (i == 0) reference = answers;
    out.check(answers == reference, "1-thread reference answers repeat");
  }
  const double setup_s = median(setups);
  log("warm_analysis reference " + reference + ", set-up " + std::to_string(setup_s) + " s");

  opts.threads = kEngineThreads;
  PassStats stats;
  const PassTimes t = run_passes(
      args, reference,
      [&](bool, bool first) { return analysis_pass(opts, first ? &stats : nullptr); }, out);
  fs::remove_all(run_store);
  if (!args.trace) {
    add_pass_metrics(out, setup_s, t.plain_s, "analysis_s");
    return out;
  }
  const double passes = static_cast<double>(t.traced_s.size());
  const auto per_pass = [&](const char* span) { return span_total_s(span) / passes; };
  out.add("engine.open_s", per_pass("engine.open"), "s");
  out.add("engine.store_load_s", per_pass("engine.store_load"), "s");
  out.add("mpa.dependence_s", per_pass("mpa.dependence"), "s");
  out.add("mpa.mi_ci_s", per_pass("mpa.mi_ci"), "s");
  out.add("mpa.causal_s", per_pass("mpa.causal"), "s");
  out.add("mpa.causal_pairs", static_cast<double>(stats.causal_pairs), "count");
  out.add("learn.cv_s", per_pass("learn.cv"), "s");
  out.add("learn.online_s", per_pass("learn.online"), "s");
  add_trace_shares(out, "pass", median(t.traced_s), median(t.plain_s));
  add_serve_layers(args, out);
  return out;
}

}  // namespace mpabench
