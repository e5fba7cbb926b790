// The three workloads. Each runs its set-up, measures for
// args.seconds, checks every output, and returns its metrics: the
// end-to-end set when args.trace is false; when it is true, the
// per-layer metrics it measures from its spans (main.cpp reports
// the layers a workload bypasses as 0). README.md lists every metric
// and which end-to-end metric each layer metric should move.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace mpabench {

/// prepare_* generates (or verifies) the workload's cached inputs.
/// run.py runs it in a process of its own, so neither the time nor the
/// memory of generation shows in the measured run.
void prepare_cold_pipeline(const Args& args);
void prepare_warm_analysis(const Args& args);
void prepare_serve_ingest(const Args& args);

Outcome run_cold_pipeline(const Args& args);
Outcome run_warm_analysis(const Args& args);
Outcome run_serve_ingest(const Args& args);

/// The serve_ingest traced run's per-layer metrics (serve queue and
/// service split, ingest layers), without its trace.* shares.
void add_serve_layers(const Args& args, Outcome& out);

/// Pass times of a pass-shaped workload (cold_pipeline, warm_analysis).
struct PassTimes {
  std::vector<double> plain_s;
  std::vector<double> traced_s;
};

/// Run `pass(traced, first_traced)` until args.seconds have elapsed
/// (at least once), checking each pass's answer digest against
/// `reference`. A traced run alternates untraced and traced passes, so
/// both medians see the same machine state and give the tracing
/// overhead; `first_traced` marks the one pass that reports counts.
PassTimes run_passes(const Args& args, const std::string& reference,
                     const std::function<std::string(bool traced, bool first_traced)>& pass,
                     Outcome& out);

/// The end-to-end metrics of a pass-shaped workload: p50_ms is the
/// median pass, tail_ms the slowest. `pass_name` is the workload's own
/// name for the pass time (pipeline_s, analysis_s), printed beside them.
void add_pass_metrics(Outcome& out, double setup_s, const std::vector<double>& plain_s,
                      const char* pass_name);

/// The trace.* shares of a traced run: the part of the traced wall
/// time no layer span covers (self time of the root spans over their
/// total), and the traced run's end-to-end time against the untraced
/// one's, minus one.
void add_trace_shares(Outcome& out, const char* root_span, double traced_s, double untraced_s);

}  // namespace mpabench
