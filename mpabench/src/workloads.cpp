#include "workloads.hpp"

#include <algorithm>
#include <sstream>

#include "bench_math.hpp"
#include "spans.hpp"

namespace mpabench {

PassTimes run_passes(const Args& args, const std::string& reference,
                     const std::function<std::string(bool traced, bool first_traced)>& pass,
                     Outcome& out) {
  PassTimes t;
  const double deadline = now_s() + args.seconds;
  for (int i = 0; i == 0 || now_s() < deadline || (args.trace && t.traced_s.empty()); ++i) {
    const bool traced = args.trace && i % 2 == 1;
    spans_enable(traced);
    const double p0 = now_s();
    const std::string got = pass(traced, traced && t.traced_s.empty());
    const double dt = now_s() - p0;
    spans_enable(false);
    (traced ? t.traced_s : t.plain_s).push_back(dt);
    out.check(got == reference, "pass answers equal the 1-thread reference");
  }
  return t;
}

void add_pass_metrics(Outcome& out, double setup_s, const std::vector<double>& plain_s,
                      const char* pass_name) {
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.add("p50_ms", median(plain_s) * 1e3, "ms");
  out.add("tail_ms", *std::max_element(plain_s.begin(), plain_s.end()) * 1e3, "ms");
  out.extra.push_back(Metric{pass_name, median(plain_s), "s"});
  std::ostringstream passes;
  for (double s : plain_s) passes << ' ' << s;
  log(std::string(pass_name) + " of each pass:" + passes.str());
}

void add_trace_shares(Outcome& out, const char* root_span, double traced_s, double untraced_s) {
  double self = 0;
  double total = 0;
  for (const LayerRow& r : layer_table())
    if (r.name == root_span) {
      self = r.self_s;
      total = r.total_s;
    }
  out.add("trace.unattributed_share", total > 0 ? self / total : 0, "ratio");
  out.add("trace.overhead_share", untraced_s > 0 ? traced_s / untraced_s - 1 : 0, "ratio");
}

}  // namespace mpabench
