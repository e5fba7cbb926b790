// mpabench: the repository's end-to-end benchmark driver.
//
//   mpabench --workload cold_pipeline|warm_analysis|serve_ingest
//            [--seed N] [--seconds S] [--trace 0|1] [--prepare 1]
//
// --prepare 1 only generates (or verifies) the workload's cached
// inputs and prints nothing on stdout.
//
// Human-readable lines go to stdout first; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (README.md). Exits non-zero without a result line on a
// usage error or when a workload throws.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace mpabench {
namespace {

using Catalog = std::vector<std::pair<std::string, std::string>>;  // name, unit

const Catalog& end_to_end() {
  static const Catalog c = {
      {"setup_s", "s"}, {"peak_rss_mb", "MiB"}, {"p50_ms", "ms"}, {"tail_ms", "ms"}};
  return c;
}

const Catalog& per_layer() {
  static const Catalog c = {
      {"io.load_s", "s"},
      {"io.materialize_s", "s"},
      {"io.bytes_read", "bytes"},
      {"engine.open_s", "s"},
      {"engine.case_table_s", "s"},
      {"engine.lint_s", "s"},
      {"config.parse_s", "s"},
      {"config.parse_calls", "count"},
      {"config.scan_s", "s"},
      {"config.diff_s", "s"},
      {"config.diff_calls", "count"},
      {"config.lint_s", "s"},
      {"config.lint_calls", "count"},
      {"config.lint_findings", "count"},
      {"metrics.state_s", "s"},
      {"metrics.design_s", "s"},
      {"metrics.ops_s", "s"},
      {"metrics.network_months", "count"},
      {"metrics.changes", "count"},
      {"metrics.events", "count"},
      {"metrics.infer_serial_s", "s"},
      {"metrics.mirror_coverage", "ratio"},
      {"metrics.mirror_networks", "count"},
      {"engine.append_s", "s"},
      {"metrics.tail_infer_s", "s"},
      {"engine.append_last_first_ratio", "ratio"},
      {"engine.store_load_s", "s"},
      {"mpa.dependence_s", "s"},
      {"mpa.mi_ci_s", "s"},
      {"mpa.causal_s", "s"},
      {"mpa.causal_pairs", "count"},
      {"learn.cv_s", "s"},
      {"learn.online_s", "s"},
      {"serve.read_p50_ms.lo", "ms"},
      {"serve.read_p95_ms.lo", "ms"},
      {"serve.read_p50_ms.hi", "ms"},
      {"serve.read_p95_ms.hi", "ms"},
      {"serve.ingest_p50_ms", "ms"},
      {"serve.sustained_rps", "1/s"},
      {"serve.queue_ms.p50", "ms"},
      {"serve.queue_ms.p95", "ms"},
      {"serve.service_ms.case_table", "ms"},
      {"serve.service_ms.rank", "ms"},
      {"serve.service_ms.causal", "ms"},
      {"serve.service_ms.lint", "ms"},
      {"serve.service_ms.predict", "ms"},
      {"serve.service_ms.ingest", "ms"},
      {"serve.backlog_max", "count"},
      {"serve.generator_late_ms", "ms"},
      {"engine.memo_hit_ratio", "ratio"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return c;
}

int usage(const std::string& why) {
  std::cerr << "mpabench: " << why << "\n"
            << "usage: mpabench --workload cold_pipeline|warm_analysis|serve_ingest"
               " [--seed N] [--seconds S] [--trace 0|1]\n";
  return 2;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Order the metrics as the catalog lists them, filling the per-layer
/// metrics a workload bypasses with 0. Returns false when a metric is
/// missing from or foreign to the catalog.
bool conform(Outcome& out, const Catalog& catalog, bool fill_zero) {
  std::map<std::string, Metric> got;
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "mpabench: metric " << m.name << " is not finite\n";
      return false;
    }
    got[m.name] = m;
  }
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : catalog) {
    auto it = got.find(name);
    if (it == got.end()) {
      if (!fill_zero) {
        std::cerr << "mpabench: workload did not report " << name << "\n";
        return false;
      }
      ordered.push_back(Metric{name, 0, unit});
      continue;
    }
    if (it->second.unit != unit) {
      std::cerr << "mpabench: metric " << name << " has unit " << it->second.unit << "\n";
      return false;
    }
    ordered.push_back(it->second);
    got.erase(it);
  }
  for (const auto& [name, m] : got) {
    std::cerr << "mpabench: metric " << name << " is not in the catalog\n";
    return false;
  }
  out.metrics = std::move(ordered);
  return true;
}

void print_layer_table(const std::string& workload) {
  std::printf("layer table (%s): self and total seconds per span name\n", workload.c_str());
  std::printf("  %-28s %10s %12s %12s\n", "span", "count", "self_s", "total_s");
  for (const LayerRow& r : layer_table())
    std::printf("  %-28s %10llu %12.6f %12.6f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.count), r.self_s, r.total_s);
}

}  // namespace

}  // namespace mpabench

int main(int argc, char** argv) {
  using namespace mpabench;
  Args args;
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed expects an integer");
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || s < 1 || s > 600) return usage("--seconds expects 1..600");
      args.seconds = static_cast<int>(s);
    } else if (flag == "--prepare") {
      prepare = value == "1";
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace expects 0 or 1");
      args.trace = value == "1";
    } else {
      return usage("unknown flag " + flag);
    }
  }

  struct Workload {
    const char* name;
    void (*prepare)(const Args&);
    Outcome (*run)(const Args&);
  };
  static const Workload workloads[] = {
      {"cold_pipeline", prepare_cold_pipeline, run_cold_pipeline},
      {"warm_analysis", prepare_warm_analysis, run_warm_analysis},
      {"serve_ingest", prepare_serve_ingest, run_serve_ingest},
  };
  const Workload* w = nullptr;
  for (const Workload& c : workloads)
    if (args.workload == c.name) w = &c;
  if (w == nullptr) return usage("unknown workload '" + args.workload + "'");

  Outcome out;
  try {
    if (prepare) {
      w->prepare(args);
      return 0;
    }
    out = w->run(args);
  } catch (const std::exception& e) {
    std::cerr << "mpabench: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  if (args.trace) {
    print_layer_table(args.workload);
    write_spans(".bench_cache/spans-" + args.workload + ".csv");
  }
  if (!conform(out, args.trace ? per_layer() : end_to_end(), args.trace)) return 1;
  if (out.attempted == 0) {
    std::cerr << "mpabench: no operation was attempted\n";
    return 1;
  }

  for (const Metric& m : out.extra)
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : out.metrics)
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%-34s %16.6f ratio (%llu of %llu)\n", "failed_share",
              static_cast<double>(out.failed) / static_cast<double>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));

  std::string json = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
