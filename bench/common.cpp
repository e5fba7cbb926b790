#include "common.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/number.hpp"

namespace mpa::bench {
namespace {

/// When MPA_BENCH_METRICS_OUT is set, every bench records obs metrics
/// and spans and dumps them as one JSON object at exit — the hook for
/// tracking a perf trajectory across BENCH_*.json runs.
void dump_observability() {
  const char* path = std::getenv("MPA_BENCH_METRICS_OUT");
  if (path == nullptr) return;
  std::ofstream f(path);
  f << "{\"metrics\":" << obs::Registry::global().to_json()
    << ",\"trace\":" << obs::Tracer::global().to_json() << "}\n";
  std::cerr << "[bench] wrote obs metrics to " << path << "\n";
}

void maybe_enable_observability() {
  static const bool once = [] {
    if (std::getenv("MPA_BENCH_METRICS_OUT") != nullptr) {
      obs::set_enabled(true);
      // atexit handlers and static destructors interleave in reverse
      // registration order, so the registry/tracer singletons must be
      // constructed (= their destructors registered) before the dump
      // handler or they would be gone by the time it runs.
      obs::Registry::global();
      obs::Tracer::global();
      std::atexit(dump_observability);
    }
    return true;
  }();
  (void)once;
}

}  // namespace

BenchConfig config_from_env() {
  maybe_enable_observability();
  BenchConfig cfg;
  cfg.networks = env_count("MPA_BENCH_NETWORKS").value_or(cfg.networks);
  cfg.months = env_count("MPA_BENCH_MONTHS").value_or(cfg.months);
  if (const char* seed = std::getenv("MPA_BENCH_SEED"))
    cfg.seed = parse_whole<std::uint64_t>(seed).value_or(cfg.seed);
  if (const char* dir = std::getenv("MPA_BENCH_CACHE_DIR")) cfg.cache_dir = dir;
  return cfg;
}

std::string case_table_key(const BenchConfig& cfg) {
  return "mpa_case_table_" + std::to_string(cfg.networks) + "x" + std::to_string(cfg.months) +
         "_s" + std::to_string(cfg.seed);
}

AnalysisSession make_session(const BenchConfig& cfg) {
  SessionOptions opts;
  opts.seed = cfg.seed;
  opts.artifact_dir = cfg.cache_dir;
  opts.artifact_key = case_table_key(cfg);
  opts.inference.num_months = cfg.months;

  // Peek at the store before generating: the whole point of the
  // persistent artifact is skipping OSP generation on warm runs.
  const ArtifactStore store(opts.artifact_dir);
  if (store.load_case_table(opts.artifact_key).has_value()) {
    std::cerr << "[bench] artifact store has " << store.path_for(opts.artifact_key) << "\n";
    return AnalysisSession(Inventory{}, SnapshotStore{}, TicketLog{}, std::move(opts));
  }

  const std::string cache_path = store.path_for(opts.artifact_key);
  const auto t0 = std::chrono::steady_clock::now();
  std::cerr << "[bench] generating synthetic OSP (" << cfg.networks << " networks x "
            << cfg.months << " months, seed " << cfg.seed << ")...\n";
  OspDataset data = generate_raw(cfg);
  AnalysisSession session(std::move(data.inventory), std::move(data.snapshots),
                          std::move(data.tickets), std::move(opts));
  const std::size_t cases = session.case_table().size();  // infer + persist
  const auto t1 = std::chrono::steady_clock::now();
  std::cerr << "[bench] built case table in " << std::chrono::duration<double>(t1 - t0).count()
            << "s (" << cases << " cases, " << session.threads() << " threads), cached to "
            << cache_path << "\n";
  return session;
}

CaseTable load_case_table(const BenchConfig& cfg) {
  AnalysisSession session = make_session(cfg);
  return session.case_table();
}

OspDataset generate_raw(const BenchConfig& cfg) {
  OspOptions opts;
  opts.num_networks = cfg.networks;
  opts.num_months = cfg.months;
  opts.seed = cfg.seed;
  return generate_osp(opts);
}

void banner(const std::string& experiment, const std::string& description,
            const std::string& paper_expectation) {
  std::cout << "\n================================================================\n"
            << experiment << " — " << description << "\n"
            << "Paper expectation: " << paper_expectation << "\n"
            << "================================================================\n";
}

}  // namespace mpa::bench
