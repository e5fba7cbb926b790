// mpa_cli — the command-line face of the MPA framework, so an
// organization can run the paper's full pipeline over a dataset
// directory (see src/io/dataset_io.hpp for the format). All analysis
// commands run through the engine's AnalysisSession: one shared
// thread pool (--threads / MPA_THREADS), memoized artifacts, and
// deterministic per-artifact RNG streams.
//
//   mpa_cli generate <dir> [--networks N] [--months M] [--seed S]
//       Write a synthetic example dataset (also documents the format).
//   mpa_cli summary <dir>
//       Dataset sizes (Table 2 style).
//   mpa_cli infer <dir> [--out cases.csv] [--delta MIN]
//       Infer the (network, month) case table and dump it as CSV.
//   mpa_cli rank <dir> [--top K]
//       Dependence analysis: MI ranking + CMI pairs (Tables 3-4).
//   mpa_cli causal <dir> --practice <name> [--threshold P]
//       Matched-design QED for one practice (Tables 5-8 per practice).
//   mpa_cli predict <dir> [--classes 2|5] [--history M]
//       Cross-validated accuracy + online month-ahead accuracy (§6).
//   mpa_cli split <dir> --first-month M --out DIR
//       Split a dataset into DIR/base (months 0..M-1) and one
//       DIR/delta-<m> month-delta directory per later month, for
//       incremental ingestion (replaying every delta over the base
//       reproduces the original dataset bit-exactly).
//   mpa_cli ingest <dir> --deltas D1[,D2,...] [--out cases.csv]
//              [--rank-out FILE]
//       Open a session over the dataset, warm the case table and lint,
//       then append each month-delta directory in order through
//       AnalysisSession::append_month, which extends both in place
//       (the dependence rankings, if any, rebuild lazily on the next
//       request). Prints the serve `ingest` body
//       per month; --out dumps the final case table CSV and --rank-out
//       the final dependence rankings (both bit-identical to a
//       from-scratch run over the merged data).
//   mpa_cli lint <dir> [--format text|json|sarif] [--out FILE]
//              [--min-severity SEV] [--fail-on SEV]
//       Rule-engine lint of each network's latest configs. SARIF output
//       is suitable for code-review tooling; --fail-on exits 3 when a
//       finding at or above SEV exists (CI gate).
//   mpa_cli report <manifest.json> [--format text|json]
//       Render a run manifest (written by --manifest-out or persisted
//       beside keyed artifact-store entries) as text or JSON.
//   mpa_cli trace summarize <trace.json>
//       Aggregate a trace file (--trace-out span JSON or
//       --chrome-trace-out Chrome trace) into a per-path tree.
//   mpa_cli serve <dir> [--workers N] [--max-active N] [--queue-depth N]
//              [--deadline-ms D]
//       Long-lived analysis service: keeps a session resident over the
//       dataset, reads JSONL requests from stdin (src/serve/request.hpp
//       wire format), streams response JSONL to stdout as requests
//       complete. EOF drains and exits.
//   mpa_cli replay <dir> [--requests N] [--interval-ms D] [--seed S]
//              [--tenants N] [--workers N] [--max-active N]
//              [--queue-depth N] [--deadline-ms D] [--trace-in FILE]
//              [--trace-dump FILE] [--responses-out FILE]
//              [--report-out FILE]
//       Synthetic load client against an in-process server: replays a
//       seeded (or --trace-in) trace, prints throughput + p50/p90/p99.
//       --responses-out writes the deterministic response JSONL (sorted
//       by id, no timing) — byte-identical for a fixed single-worker
//       trace. --slo-ms computes per-tenant SLO attainment
//       (--slo-report writes it as JSON); --loads R1,R2,... sweeps
//       offered loads to find the saturation knee.
//   mpa_cli top [--interval-ms D] [--iterations N]
//       Periodic dashboard over a running daemon: emits `stats`
//       request JSONL on stdout, renders matching responses read from
//       stdin to stderr — wire it to `mpa_cli serve` with a fifo.
//
// rank, causal, predict and ingest print exactly the response body
// `serve` answers for the equivalent request (serve::render_request).
//
// Common flags: --threads N (engine pool size; default MPA_THREADS or
// the hardware concurrency). Observability (any subcommand):
//   --metrics-out FILE  write the metrics registry after the command
//                       (JSON; Prometheus text when FILE ends in .prom)
//   --trace-out FILE    write the recorded trace spans as JSON
//   --chrome-trace-out FILE  write the spans as Chrome trace-event
//                       JSON (loads in Perfetto / chrome://tracing)
//   --log-out FILE      record the structured event log, write JSONL
//   --log-level LEVEL   event-log floor: debug|info|warn|error (info)
//   --manifest-out FILE write the last session's run manifest as JSON
//   --window-out FILE   write the rolling window snapshot (JSON;
//                       Prometheus text when FILE ends in .prom)
//   --window-canonical-out FILE  write the window identity form
//                       (counts only, timestamp-free)
//   --stats             print a counter/span summary to stderr
//
// Export files are written on every exit path — a run that failed with
// exit 1/2/3 still leaves its metrics, trace, log, and manifest behind.
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/dialect.hpp"
#include "config/lint.hpp"
#include "engine/run_manifest.hpp"
#include "engine/session.hpp"
#include "io/columnar.hpp"
#include "io/dataset_io.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "simulation/osp_generator.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/strings.hpp"
#include "util/sync.hpp"
#include "util/table.hpp"

namespace {

using namespace mpa;

/// A malformed invocation (an unknown flag, a value that breaks the
/// number rule): print the message + usage and exit 2.
struct UsageError {
  std::string message;
};

struct Args {
  std::string command;
  std::string dir;
  std::map<std::string, std::string> flags;

  /// The flag's value under the number rule (util/number.hpp) and at
  /// least `min_v`, `fallback` when the flag is absent; any other value
  /// is a UsageError naming the flag.
  template <typename T>
  T get_number(const std::string& key, T fallback,
               T min_v = std::numeric_limits<T>::lowest()) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::optional<T> v = parse_whole<T>(it->second);
    if (!v) {
      std::string expects = std::integral<T> ? "an integer in " : "a finite number";
      if constexpr (std::integral<T>) expects += range_text<T>();
      throw UsageError{"--" + key + " expects " + expects + ", got '" + it->second + "'"};
    }
    if (*v < min_v)
      throw UsageError{"--" + key + " must be at least " + json_number(min_v) + ", got " +
                       it->second};
    return *v;
  }
  /// A pause in ms (--interval-ms): at least 0, and short enough that
  /// its nanoseconds fit the clock's 64-bit count.
  double get_interval_ms(const std::string& key, double fallback) const {
    const double ms = get_number(key, fallback, 0.0);
    if (!scaled<std::int64_t>(ms, 1e6))
      throw UsageError{"--" + key + " expects milliseconds in [0, 9223372036854], got '" +
                       get(key) + "'"};
    return ms;
  }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

/// Flags that take no value.
const std::set<std::string>& bool_flags() {
  static const std::set<std::string> flags = {"stats"};
  return flags;
}

Args parse_args(int argc, char** argv) {
  Args args;
  int first_flag = 3;
  if (argc >= 2) args.command = argv[1];
  // "trace summarize" is a two-word command; its positional is the
  // trace file, not a dataset directory.
  if (args.command == "trace" && argc >= 3 && std::string(argv[2]) == "summarize") {
    args.command = "trace summarize";
    if (argc >= 4 && argv[3][0] != '-') args.dir = argv[3];
    first_flag = 4;
  } else if (args.command == "top") {
    // `top` has no dataset directory: it talks to a running daemon
    // over stdin/stdout, so flags start right after the command.
    first_flag = 2;
  } else if (argc >= 3 && argv[2][0] != '-') {
    args.dir = argv[2];
  }
  for (int i = first_flag; i < argc; ++i) {
    std::string key = argv[i];
    if (!key.starts_with("--"))
      throw UsageError{"unexpected argument '" + key + "'"};
    const std::string name = key.substr(2);
    if (bool_flags().count(name)) {
      args.flags[name] = "1";
      continue;
    }
    if (i + 1 >= argc) throw UsageError{"flag '" + key + "' is missing a value"};
    args.flags[name] = argv[++i];
  }
  return args;
}

/// Reject misspelled flags instead of silently ignoring them.
void check_flags(const Args& args) {
  static const std::map<std::string, std::set<std::string>> allowed = {
      {"generate",
       {"networks", "months", "seed", "format", "shard-mb", "min-devices", "max-devices"}},
      {"convert", {"out", "shard-mb"}},
      {"verify", {}},
      {"summary", {"threads", "delta"}},
      {"infer", {"threads", "delta", "out"}},
      {"rank", {"threads", "delta", "top"}},
      {"causal", {"threads", "delta", "practice", "threshold"}},
      {"predict", {"threads", "delta", "classes", "history"}},
      {"split", {"first-month", "out"}},
      {"ingest", {"threads", "delta", "deltas", "out", "rank-out"}},
      {"lint", {"threads", "delta", "format", "out", "min-severity", "fail-on"}},
      {"report", {"format"}},
      {"trace summarize", {}},
      {"serve",
       {"threads", "delta", "workers", "max-active", "queue-depth", "deadline-ms",
        "window-buckets", "window-bucket-ms", "slow-log"}},
      {"replay",
       {"threads", "delta", "workers", "max-active", "queue-depth", "deadline-ms", "requests",
        "interval-ms", "seed", "tenants", "trace-in", "trace-dump", "responses-out",
        "report-out", "window-buckets", "window-bucket-ms", "slow-log", "slo-ms", "slo-report",
        "loads"}},
      {"top", {"interval-ms", "iterations"}},
  };
  // Observability flags ride along with every subcommand.
  static const std::set<std::string> common = {
      "metrics-out", "trace-out", "chrome-trace-out", "log-out",
      "log-level",   "manifest-out", "stats", "window-out", "window-canonical-out"};
  const auto it = allowed.find(args.command);
  if (it == allowed.end()) return;  // unknown command falls through to usage()
  for (const auto& [key, value] : args.flags)
    if (!it->second.count(key) && !common.count(key))
      throw UsageError{"unknown flag '--" + key + "' for '" + args.command + "'"};
}

int usage() {
  std::cerr << "usage: mpa_cli <generate|summary|infer|rank|causal|predict|lint> <dir> [flags]\n"
               "       mpa_cli convert <dir> --out DIR [--shard-mb N]\n"
               "       mpa_cli verify <dir>\n"
               "       mpa_cli split <dir> --first-month M --out DIR\n"
               "       mpa_cli ingest <dir> --deltas D1[,D2,...] [--out FILE] [--rank-out FILE]\n"
               "       mpa_cli report <manifest.json> [--format text|json]\n"
               "       mpa_cli trace summarize <trace.json>\n"
               "       mpa_cli serve <dir> [--workers N] [--max-active N]\n"
               "                     [--queue-depth N] [--deadline-ms D]\n"
               "       mpa_cli replay <dir> [--requests N] [--interval-ms D] [--seed S]\n"
               "                     [--tenants N] [--trace-in FILE] [--trace-dump FILE]\n"
               "                     [--responses-out FILE] [--report-out FILE]\n"
               "                     [--slo-ms D] [--slo-report FILE] [--loads R1,R2,...]\n"
               "       mpa_cli top [--interval-ms D] [--iterations N]\n"
               "run with a dataset directory (see src/io/dataset_io.hpp).\n"
               "  generate: --networks N --months M --seed S\n"
               "            --format csv|mpac (mpac streams: bounded memory at any scale)\n"
               "            --shard-mb N (mpac shard size, default 64)\n"
               "            --min-devices N --max-devices N (network size range)\n"
               "  convert:  csv->mpac or mpac->csv by source format; --out DIR\n"
               "  verify:   check a dataset (mpac: fingerprints + deep scan)\n"
               "  infer:    --out FILE --delta MINUTES\n"
               "  rank:     --top K\n"
               "  causal:   --practice NAME --threshold P\n"
               "  predict:  --classes 2|5 --history M\n"
               "  split:    --first-month M (first delta month) --out DIR\n"
               "  ingest:   --deltas D1[,D2,...] (month-delta dirs, in month order)\n"
               "            --out FILE (final case table CSV)\n"
               "            --rank-out FILE (final dependence rankings)\n"
               "  lint:     --format text|json|sarif --out FILE\n"
               "            --min-severity info|warning|error (report floor)\n"
               "            --fail-on info|warning|error (exit 3 when hit)\n"
               "  serve:    --workers N (request workers, default 2)\n"
               "            --max-active N (admitted-request cap, default 64)\n"
               "            --queue-depth N (ready-queue cap, default 256)\n"
               "            --deadline-ms D (default per-request deadline, 0 = none)\n"
               "            --window-buckets N --window-bucket-ms W (rolling window\n"
               "            shape, default 60 x 1000ms) --slow-log K (exemplar bound)\n"
               "  replay:   --requests N --interval-ms D (0 = closed loop) --seed S\n"
               "            --tenants N (spread load across N tenants)\n"
               "            --trace-in FILE (replay a saved trace)\n"
               "            --trace-dump FILE (save the synthesized trace)\n"
               "            --responses-out FILE (deterministic response JSONL)\n"
               "            --report-out FILE (load report JSON)\n"
               "            --slo-ms D (per-tenant SLO attainment vs budget D)\n"
               "            --slo-report FILE (SLO report JSON)\n"
               "            --loads R1,R2,... (offered-load sweep, req/s; finds the\n"
               "            saturation knee; requires --slo-ms)\n"
               "  top:      periodic dashboard over a daemon's stdin/stdout: emits\n"
               "            `stats` request JSONL on stdout, renders matching\n"
               "            responses from stdin to stderr\n"
               "            --interval-ms D (poll period, default 1000)\n"
               "            --iterations N (stop after N polls; 0 = until EOF)\n"
               "common:     --threads N (default MPA_THREADS or hardware)\n"
               "            --metrics-out FILE (JSON; Prometheus if *.prom)\n"
               "            --trace-out FILE (span JSON)\n"
               "            --chrome-trace-out FILE (Perfetto-loadable)\n"
               "            --log-out FILE (structured event log, JSONL)\n"
               "            --log-level debug|info|warn|error (default info)\n"
               "            --manifest-out FILE (run manifest JSON)\n"
               "            --window-out FILE (rolling window snapshot JSON;\n"
               "            Prometheus if *.prom)\n"
               "            --window-canonical-out FILE (identity form, counts only)\n"
               "            --stats (counter/span summary on stderr)\n";
  return 2;
}

/// The session overrides shared by every command that opens a dataset,
/// `serve` and `replay` included (check_flags admits --threshold only
/// where it applies).
SessionOptions session_options(const Args& args) {
  SessionOptions opts;
  opts.inference.event_window = args.get_number("delta", 5, 0);
  opts.causal.p_threshold = args.get_number("threshold", opts.causal.p_threshold);
  opts.threads = args.get_number("threads", 0, 0);
  return opts;
}

/// Open the engine session over the dataset directory.
AnalysisSession session_from_dir(const Args& args) {
  return AnalysisSession::from_directory(args.dir, session_options(args));
}

/// Print the body `mpa serve` answers for `req` over the dataset: CLI
/// and daemon analysis output are the same bytes by construction.
int print_response(const Args& args, const serve::Request& req) {
  AnalysisSession session = session_from_dir(args);
  std::cout << serve::render_request(session, req);
  return 0;
}

/// OspSink adapter: the glue between the simulation-layer streaming
/// generator and the io-layer mpac writer lives here, keeping
/// simulation below io in the layer DAG.
class ColumnarSink final : public OspSink {
 public:
  explicit ColumnarSink(ColumnarWriter& writer) : writer_(writer) {}
  void on_network(const NetworkRecord& net) override { writer_.add_network(net); }
  void on_device(const DeviceRecord& dev) override { writer_.add_device(dev); }
  void on_snapshot(const ConfigSnapshot& snap) override { writer_.add_snapshot(snap); }
  void on_ticket(const Ticket& t) override { writer_.add_ticket(t); }

 private:
  ColumnarWriter& writer_;
};

ColumnarWriteOptions shard_options(const Args& args) {
  ColumnarWriteOptions opts;
  opts.max_shard_bytes = static_cast<std::size_t>(args.get_number("shard-mb", 64, 1)) << 20;
  return opts;
}

int cmd_generate(const Args& args) {
  OspOptions opts;
  opts.num_networks = args.get_number("networks", 50, 1);
  opts.num_months = args.get_number("months", 12, 1);
  opts.seed = args.get_number("seed", std::uint64_t{1});
  opts.design.min_devices = args.get_number("min-devices", opts.design.min_devices, 1);
  opts.design.max_devices =
      args.get_number("max-devices", opts.design.max_devices, opts.design.min_devices);
  const std::string format = args.get("format", "csv");
  if (format == "mpac") {
    // Streaming path: records flow network-by-network through the
    // shard writer, so generation memory is bounded by one network
    // plus one shard buffer regardless of --networks.
    ColumnarWriter writer(args.dir, shard_options(args));
    ColumnarSink sink(writer);
    const OspStreamTotals totals = generate_osp_stream(opts, sink);
    const MpacTotals written = writer.finish();
    std::cout << "wrote " << args.dir << ": " << totals.networks << " networks, "
              << totals.snapshots << " snapshots, " << totals.tickets << " tickets ("
              << written.shards << " mpac shards, " << written.shard_bytes << " bytes)\n";
    return 0;
  }
  if (format != "csv") throw UsageError{"--format expects csv|mpac, got '" + format + "'"};
  const OspDataset data = generate_osp(opts);
  save_dataset(DiskDataset{data.inventory, data.snapshots, data.tickets}, args.dir);
  std::cout << "wrote " << args.dir << ": " << data.inventory.num_networks() << " networks, "
            << data.snapshots.total_snapshots() << " snapshots, " << data.tickets.size()
            << " tickets\n";
  return 0;
}

int cmd_convert(const Args& args) {
  const std::string out = args.get("out");
  if (out.empty()) throw UsageError{"convert requires --out DIR"};
  if (is_columnar_dir(args.dir)) {
    const DiskDataset data = load_columnar(args.dir).to_disk_dataset();
    save_dataset(data, out);
    std::cout << "converted mpac -> csv: " << out << ": " << data.inventory.num_networks()
              << " networks, " << data.snapshots.total_snapshots() << " snapshots, "
              << data.tickets.size() << " tickets\n";
    return 0;
  }
  const MpacTotals totals = save_columnar(load_dataset(args.dir), out, shard_options(args));
  std::cout << "converted csv -> mpac: " << out << ": " << totals.networks << " networks, "
            << totals.snapshots << " snapshots, " << totals.tickets << " tickets ("
            << totals.shards << " shards, " << totals.shard_bytes << " bytes)\n";
  return 0;
}

int cmd_verify(const Args& args) {
  if (is_columnar_dir(args.dir)) {
    std::cout << verify_columnar(args.dir);
    return 0;
  }
  std::uint64_t bytes = 0;
  const DiskDataset data = load_dataset(args.dir, &bytes);
  std::cout << "csv dataset: " << args.dir << " OK: " << data.inventory.num_networks()
            << " networks, " << data.inventory.num_devices() << " devices, "
            << data.tickets.size() << " tickets, " << data.snapshots.total_snapshots()
            << " snapshots, " << bytes << " bytes\n";
  return 0;
}

int cmd_summary(const Args& args) {
  AnalysisSession session = session_from_dir(args);
  int maintenance = 0;
  for (const auto& t : session.tickets().all())
    if (t.origin == TicketOrigin::kMaintenance) ++maintenance;
  TextTable t({"property", "value"});
  t.row().add("Months").add(session.num_months());
  t.row().add("Networks").add(session.inventory().num_networks());
  t.row().add("Devices").add(session.inventory().num_devices());
  t.row().add("Config snapshots").add(session.snapshots().total_snapshots());
  t.row().add("Snapshot bytes").add(session.snapshots().total_bytes());
  t.row().add("Tickets").add(session.tickets().size());
  t.row().add("  maintenance").add(maintenance);
  t.print(std::cout);
  return 0;
}

int cmd_infer(const Args& args) {
  AnalysisSession session = session_from_dir(args);
  const CaseTable& table = session.case_table();
  const std::string out = args.get("out");
  if (out.empty()) {
    std::cout << table.to_csv();
  } else {
    std::ofstream f(out);
    f << table.to_csv();
    std::cout << "wrote " << table.size() << " cases to " << out << "\n";
  }
  return 0;
}

int cmd_rank(const Args& args) {
  serve::Request req;
  req.kind = serve::RequestKind::kRank;
  req.top_k = args.get_number("top", 10, 1);
  return print_response(args, req);
}

int cmd_causal(const Args& args) {
  serve::Request req;
  req.kind = serve::RequestKind::kCausal;
  req.practice = args.get("practice");
  if (req.practice.empty()) throw UsageError{"causal: --practice NAME required"};
  return print_response(args, req);
}

int cmd_predict(const Args& args) {
  serve::Request req;
  req.kind = serve::RequestKind::kPredict;
  req.classes = args.get_number("classes", 2, 2);
  req.history = args.get_number("history", 3, 1);
  return print_response(args, req);
}

int cmd_split(const Args& args) {
  const int first = args.get_number("first-month", 1, 1);
  const std::string out = args.get("out");
  if (out.empty()) throw UsageError{"split: --out DIR required"};
  const SplitDataset split = split_dataset(load_dataset(args.dir), first);
  save_dataset(split.base, out + "/base");
  for (const MonthDelta& d : split.deltas)
    save_month_delta(d, out + "/delta-" + std::to_string(d.month));
  std::cout << "wrote " << out << "/base (months 0.." << first - 1 << ") and "
            << split.deltas.size() << " delta dir(s)\n";
  return 0;
}

int cmd_ingest(const Args& args) {
  const std::string deltas = args.get("deltas");
  if (deltas.empty()) throw UsageError{"ingest: --deltas D1[,D2,...] required"};
  AnalysisSession session = session_from_dir(args);
  // Warm the artifacts an append extends in place, so the appends
  // exercise the incremental paths rather than a lazy rebuild.
  session.case_table();
  session.lint();
  serve::Request req;
  req.kind = serve::RequestKind::kIngest;
  for (const std::string_view dir : split_views(deltas, ',')) {
    req.dir = dir;
    std::cout << serve::render_request(session, req);
  }
  const std::string out = args.get("out");
  if (!out.empty()) {
    std::ofstream f(out);
    f << session.case_table().to_csv();
    std::cout << "wrote " << session.case_table().size() << " cases to " << out << "\n";
  }
  const std::string rank_out = args.get("rank-out");
  if (!rank_out.empty()) {
    req.kind = serve::RequestKind::kRank;
    std::ofstream f(rank_out);
    f << serve::render_request(session, req);
    std::cout << "wrote rankings to " << rank_out << "\n";
  }
  return 0;
}

LintSeverity severity_flag(const Args& args, const std::string& key, LintSeverity fallback) {
  const std::string v = args.get(key);
  if (v.empty()) return fallback;
  const auto sev = parse_severity(v);
  if (!sev) throw UsageError{"--" + key + " expects info|warning|error, got '" + v + "'"};
  return *sev;
}

int cmd_lint(const Args& args) {
  const std::string format = args.get("format").empty() ? "text" : args.get("format");
  if (format != "text" && format != "json" && format != "sarif")
    throw UsageError{"--format expects text|json|sarif, got '" + format + "'"};

  AnalysisSession session = session_from_dir(args);
  const LintReport report =
      session.lint().at_least(severity_flag(args, "min-severity", LintSeverity::kInfo));

  std::string rendered;
  if (format == "text") rendered = report.to_text();
  if (format == "json") rendered = report.to_json();
  if (format == "sarif") rendered = report.to_sarif();

  const std::string out = args.get("out");
  if (out.empty()) {
    std::cout << rendered;
  } else {
    std::ofstream f(out);
    f << rendered;
    std::cout << "wrote " << report.total_findings() << " finding(s) to " << out << "\n";
  }

  const std::string fail_on = args.get("fail-on");
  if (!fail_on.empty()) {
    const LintSeverity gate = severity_flag(args, "fail-on", LintSeverity::kError);
    for (const auto& net : report.networks)
      for (const auto& d : net.diagnostics)
        if (d.severity >= gate) return 3;
  }
  return 0;
}

int cmd_report(const Args& args) {
  const std::string format = args.get("format").empty() ? "text" : args.get("format");
  if (format != "text" && format != "json")
    throw UsageError{"--format expects text|json, got '" + format + "'"};
  std::ifstream in(args.dir);
  if (!in) throw DataError("report: cannot open manifest '" + args.dir + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const RunManifest manifest = RunManifest::from_json(buf.str());
  std::cout << (format == "json" ? manifest.to_json() : manifest.to_text());
  return 0;
}

int cmd_trace_summarize(const Args& args) {
  std::ifstream in(args.dir);
  if (!in) throw DataError("trace summarize: cannot open trace '" + args.dir + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  std::cout << obs::summarize_spans(obs::parse_trace_json(buf.str()));
  return 0;
}

/// Scheduler + session options shared by `serve` and `replay`.
serve::ServerOptions server_options(const Args& args) {
  serve::ServerOptions opts;
  opts.scheduler.workers = args.get_number("workers", 2, 1);
  opts.scheduler.max_active_reqs =
      static_cast<std::size_t>(args.get_number("max-active", 64, 1));
  opts.scheduler.max_queue_depth =
      static_cast<std::size_t>(args.get_number("queue-depth", 256, 1));
  opts.scheduler.default_deadline_ms = args.get_number("deadline-ms", 0.0, 0.0);
  opts.session = session_options(args);
  opts.slow_log_entries = static_cast<std::size_t>(args.get_number("slow-log", 16, 1));
  // The window flags are checked whether or not obs is on, so a bad
  // value is refused the same way with or without an export flag.
  obs::WindowOptions wopts;
  wopts.buckets = static_cast<std::size_t>(args.get_number("window-buckets", 60, 1));
  const auto width_ms = args.get_number("window-bucket-ms", std::uint64_t{1000}, {1});
  const std::optional<std::uint64_t> width_ns = scaled<std::uint64_t>(width_ms, 1'000'000);
  if (!width_ns) throw UsageError{"--window-bucket-ms must be at most 18446744073709 ms"};
  wopts.bucket_width_ns = *width_ns;
  // Shape the process-wide rolling window before the server exists;
  // the scheduler resolves to this instance, and write_observability
  // exports it on every exit path alongside the cumulative registry.
  if (obs::enabled()) obs::WindowRegistry::global().configure(std::move(wopts));
  return opts;
}

int cmd_serve(const Args& args) {
  const serve::ServerOptions opts = server_options(args);

  // Responses complete on worker threads; serialize the stdout stream.
  Mutex out_mu;
  serve::AnalysisServer server(opts, [&out_mu](const serve::Response& resp) {
    MutexLock lk(out_mu);
    std::cout << resp.to_json() << "\n" << std::flush;
  });
  server.open_directory("main", args.dir);
  std::cerr << "mpa_cli serve: session 'main' over " << args.dir << ", "
            << server.scheduler().workers()
            << " worker(s); reading JSONL requests from stdin\n";

  std::string line;
  std::uint64_t bad_lines = 0;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    try {
      server.submit(serve::Request::from_json(parse_json(line)));
    } catch (const DataError& e) {
      ++bad_lines;
      std::cerr << "mpa_cli serve: bad request: " << e.what() << "\n";
    }
  }
  server.drain();
  const serve::Scheduler::Stats stats = server.stats();
  std::cerr << "mpa_cli serve: " << stats.submitted << " submitted, " << stats.completed
            << " completed, " << stats.rejected << " rejected, " << stats.deadline_misses
            << " deadline-exceeded, " << stats.errors << " error(s)\n";
  return bad_lines == 0 ? 0 : 1;
}

/// Render one `stats` response body as a dashboard frame (mpa top).
/// The body is the server's introspection JSON: scheduler stats, the
/// rolling window snapshot, the resident sessions, and the slow log.
std::string render_top(const std::string& body, std::uint64_t frame) {
  const JsonValue doc = parse_json(body);
  std::ostringstream os;
  os << "-- mpa top (frame " << frame << ") --\n";

  const JsonValue& stats = doc.at("stats");
  os << "submitted " << stats.at("submitted").as_u64() << "  completed "
     << stats.at("completed").as_u64() << "  rejected " << stats.at("rejected").as_u64()
     << "  deadline_misses " << stats.at("deadline_misses").as_u64() << "  errors "
     << stats.at("errors").as_u64() << "  queue_depth " << stats.at("queue_depth").as_u64()
     << "  workers " << stats.at("workers").as_u64() << "\n";

  if (const JsonValue* window = doc.find("window"); window != nullptr && window->is_object()) {
    os << "window (" << window->at("window_seconds").as_number() << "s):\n";
    TextTable t({"tenant", "kind", "total", "req/s", "ok%", "p50 ms", "p99 ms"});
    for (const JsonValue& s : window->at("series").as_array())
      t.row().add(s.at("tenant").as_string()).add(s.at("kind").as_string())
          .add(static_cast<std::size_t>(s.at("total").as_u64()))
          .add(format_double(s.at("throughput_rps").as_number(), 1))
          .add(format_double(s.at("ok_rate").as_number() * 100, 1))
          .add(format_double(s.at("latency_ms").at("p50").as_number(), 2))
          .add(format_double(s.at("latency_ms").at("p99").as_number(), 2));
    t.print(os);
  }

  const JsonValue& slow = doc.at("slow");
  if (!slow.as_array().empty()) {
    os << "slowest requests:\n";
    TextTable t({"id", "tenant", "kind", "status", "total ms", "top stage"});
    for (const JsonValue& e : slow.as_array()) {
      std::string top_stage = "-";
      double top_ms = -1;
      for (const JsonValue& st : e.at("stages").as_array())
        if (st.at("ms").as_number() > top_ms) {
          top_ms = st.at("ms").as_number();
          top_stage = st.at("path").as_string();
        }
      t.row().add(static_cast<std::size_t>(e.at("id").as_u64())).add(e.at("tenant").as_string())
          .add(e.at("kind").as_string()).add(e.at("status").as_string())
          .add(format_double(e.at("total_ms").as_number(), 2)).add(top_stage);
    }
    t.print(os);
  }
  return os.str();
}

/// `mpa_cli top`: the live-dashboard half of a shell pipeline around a
/// running daemon —
///   mkfifo req; mpa_cli serve DIR < req | mpa_cli top > req
/// Emits one `stats` request per poll on stdout, reads the daemon's
/// response stream on stdin, and renders matching responses to stderr.
/// Because introspection is answered at submit, the daemon responds
/// even when its queue is saturated.
int cmd_top(const Args& args) {
  const double interval_ms = args.get_interval_ms("interval-ms", 1000);
  const int iterations = args.get_number("iterations", 0, 0);

  std::uint64_t rendered = 0;
  std::string line;
  for (int i = 0; iterations == 0 || i < iterations; ++i) {
    serve::Request req;
    req.id = static_cast<std::uint64_t>(i) + 1;
    req.kind = serve::RequestKind::kStats;
    req.tenant = "top";
    std::cout << req.to_json() << "\n" << std::flush;

    bool got = false;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      try {
        const JsonValue resp = parse_json(line);
        if (resp.at("kind").as_string() != "stats" || resp.at("id").as_u64() != req.id)
          continue;  // interleaved analysis responses
        std::cerr << render_top(resp.at("body").as_string(), ++rendered) << std::flush;
        got = true;
        break;
      } catch (const DataError& e) {
        std::cerr << "mpa_cli top: unparseable response line: " << e.what() << "\n";
      }
    }
    if (!got) break;  // daemon stream closed
    if ((iterations == 0 || i + 1 < iterations) && interval_ms > 0)
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(interval_ms));
  }
  return rendered > 0 ? 0 : 1;
}

int cmd_replay(const Args& args) {
  const serve::ServerOptions opts = server_options(args);

  serve::ClientOptions copts;
  copts.request_total_cnt = args.get_number("requests", 32, 1);
  copts.request_interval_ms = args.get_interval_ms("interval-ms", 0);
  copts.seed = args.get_number("seed", std::uint64_t{1});
  copts.deadline_ms = opts.scheduler.default_deadline_ms;
  const int tenants = args.get_number("tenants", 1, 1);
  copts.tenants.clear();
  for (int i = 0; i < tenants; ++i) copts.tenants.push_back("tenant" + std::to_string(i));

  std::vector<serve::Request> trace;
  const std::string trace_in = args.get("trace-in");
  if (trace_in.empty()) {
    trace = serve::synthesize_trace(copts);
  } else {
    std::ifstream in(trace_in);
    if (!in) throw DataError("replay: cannot open trace '" + trace_in + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    trace = serve::trace_from_jsonl(buf.str());
  }
  const std::string trace_dump = args.get("trace-dump");
  if (!trace_dump.empty()) {
    std::ofstream f(trace_dump);
    f << serve::trace_to_jsonl(trace);
  }

  const double slo_ms = args.get_number("slo-ms", 0.0, 0.0);
  const std::string slo_report_path = args.get("slo-report");
  const std::string loads_flag = args.get("loads");

  if (!loads_flag.empty()) {
    // Offered-load sweep: replay the same trace open-loop at each
    // offered rate against a fresh server, and report the saturation
    // knee — the first offered load whose achieved throughput fell
    // below 90% of it.
    if (slo_ms <= 0) throw UsageError{"replay: --loads requires --slo-ms"};
    std::vector<double> loads;
    for (const std::string_view tok : split_views(loads_flag, ',')) {
      // Each load becomes a pause of 1000/rps ms, which must fit the
      // clock like --interval-ms.
      const std::optional<double> rps = parse_whole<double>(tok);
      if (!rps || *rps <= 0 || !scaled<std::int64_t>(1000.0 / *rps, 1e6))
        throw UsageError{"--loads expects req/s values of at least 1.1e-10, got '" +
                         std::string(tok) + "'"};
      loads.push_back(*rps);
    }
    std::ostringstream sweep;
    sweep << "{\"slo_ms\":" << json_number(slo_ms) << ",\"loads\":[";
    double saturation_rps = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      serve::ClientOptions load_opts = copts;
      load_opts.request_interval_ms = 1000.0 / loads[i];
      serve::AnalysisServer server(opts);
      server.open_directory("main", args.dir);
      const serve::LoadReport rep = serve::SyntheticClient(load_opts).replay(server, trace);
      const serve::SloReport slo =
          serve::compute_slo(server.responses(), slo_ms, loads[i], rep.throughput_rps);
      std::cout << "-- offered " << format_double(loads[i], 1) << " req/s --\n"
                << slo.to_text() << "\n";
      if (i > 0) sweep << ',';
      sweep << slo.to_json();
      if (slo.saturated && saturation_rps == 0) saturation_rps = loads[i];
    }
    sweep << "],\"saturation_rps\":" << json_number(saturation_rps) << '}';
    if (saturation_rps > 0)
      std::cout << "saturation at " << format_double(saturation_rps, 1) << " req/s offered\n";
    else
      std::cout << "no saturation across offered loads\n";
    if (!slo_report_path.empty()) {
      std::ofstream f(slo_report_path);
      f << sweep.str();
    }
    return 0;
  }

  serve::AnalysisServer server(opts);
  server.open_directory("main", args.dir);
  const serve::LoadReport report = serve::SyntheticClient(copts).replay(server, trace);

  const std::string responses_out = args.get("responses-out");
  if (!responses_out.empty()) {
    std::ofstream f(responses_out);
    for (const serve::Response& resp : server.responses()) f << resp.to_json(false) << "\n";
  }
  const std::string report_out = args.get("report-out");
  if (!report_out.empty()) {
    std::ofstream f(report_out);
    f << report.to_json();
  }
  std::cout << report.to_text();
  if (slo_ms > 0) {
    const double offered =
        copts.request_interval_ms > 0 ? 1000.0 / copts.request_interval_ms : 0;
    const serve::SloReport slo =
        serve::compute_slo(server.responses(), slo_ms, offered, report.throughput_rps);
    std::cout << "\n" << slo.to_text();
    if (!slo_report_path.empty()) {
      std::ofstream f(slo_report_path);
      f << slo.to_json();
    }
  }
  return 0;
}

/// True when any observability flag asks for metric/span recording.
bool wants_observability(const Args& args) {
  return args.flags.count("metrics-out") != 0 || args.flags.count("trace-out") != 0 ||
         args.flags.count("chrome-trace-out") != 0 || args.flags.count("manifest-out") != 0 ||
         args.flags.count("window-out") != 0 ||
         args.flags.count("window-canonical-out") != 0 || args.flags.count("stats") != 0;
}

/// Turn the event log on when --log-out asks for it; --log-level sets
/// the recording floor (validated even without --log-out).
void configure_logging(const Args& args) {
  obs::LogLevel level = obs::LogLevel::kInfo;
  const std::string name = args.get("log-level", "info");
  if (!obs::parse_log_level(name, &level))
    throw UsageError{"--log-level expects debug|info|warn|error, got '" + name + "'"};
  if (args.flags.count("log-out") != 0) {
    obs::set_log_enabled(true);
    obs::set_log_min_level(level);
  }
}

/// Run the subcommand under a root trace span named after it, so every
/// stage span nests as "<command>/<stage>".
int dispatch(const Args& args) {
  obs::Span root(args.command);
  if (args.command == "generate") return cmd_generate(args);
  if (args.command == "convert") return cmd_convert(args);
  if (args.command == "verify") return cmd_verify(args);
  if (args.command == "summary") return cmd_summary(args);
  if (args.command == "infer") return cmd_infer(args);
  if (args.command == "rank") return cmd_rank(args);
  if (args.command == "causal") return cmd_causal(args);
  if (args.command == "predict") return cmd_predict(args);
  if (args.command == "split") return cmd_split(args);
  if (args.command == "ingest") return cmd_ingest(args);
  if (args.command == "lint") return cmd_lint(args);
  if (args.command == "report") return cmd_report(args);
  if (args.command == "trace summarize") return cmd_trace_summarize(args);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "replay") return cmd_replay(args);
  if (args.command == "top") return cmd_top(args);
  throw UsageError{"unknown command '" + args.command + "'"};
}

/// After the command (sessions destroyed, pool stats published): write
/// the requested export files and/or print the human summary. Called
/// on success and failure alike — a failed run's telemetry is exactly
/// the run worth inspecting.
void write_observability(const Args& args) {
  if (obs::enabled()) {
    // A *.prom path gets Prometheus text, any other JSON.
    const auto write_export = [&args](const char* flag, const auto& json, const auto& prom) {
      const std::string path = args.get(flag);
      if (path.empty()) return;
      std::ofstream f(path);
      f << (path.ends_with(".prom") ? prom() : json());
    };
    auto& registry = obs::Registry::global();
    auto& window = obs::WindowRegistry::global();
    // One scrape target: the rolling window gauges ride along with the
    // cumulative registry in the same exposition.
    write_export(
        "metrics-out", [&] { return registry.to_json(); },
        [&] { return registry.to_prometheus() + window.to_prometheus(); });
    write_export(
        "window-out", [&] { return window.to_json() + "\n"; },
        [&] { return window.to_prometheus(); });
    const std::string window_canonical_path = args.get("window-canonical-out");
    if (!window_canonical_path.empty()) {
      std::ofstream f(window_canonical_path);
      f << obs::WindowRegistry::global().canonical_json() << "\n";
    }
    const std::string trace_path = args.get("trace-out");
    if (!trace_path.empty()) {
      std::ofstream f(trace_path);
      f << obs::Tracer::global().to_json();
    }
    const std::string chrome_path = args.get("chrome-trace-out");
    if (!chrome_path.empty()) {
      std::ofstream f(chrome_path);
      f << obs::chrome_trace_json(obs::Tracer::global().snapshot());
    }
    const std::string manifest_path = args.get("manifest-out");
    if (!manifest_path.empty()) {
      std::ofstream f(manifest_path);
      // A run that died before opening a session has no manifest; the
      // file still appears (empty) so callers can rely on its presence.
      if (const auto manifest = last_run_manifest()) f << manifest->to_json();
    }
    if (args.flags.count("stats") != 0) {
      std::cerr << "\n-- engine stats --\n"
                << obs::Registry::global().to_text() << "\n-- trace spans --\n"
                << obs::Tracer::global().summary();
    }
  }
  if (obs::log_enabled()) {
    const std::string log_path = args.get("log-out");
    if (!log_path.empty()) {
      std::ofstream f(log_path);
      f << obs::Logger::global().to_jsonl();
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    if (args.command.empty() || (args.dir.empty() && args.command != "top")) return usage();
    check_flags(args);
    configure_logging(args);
  } catch (const UsageError& e) {
    std::cerr << "mpa_cli: " << e.message << "\n";
    return usage();
  }
  if (wants_observability(args)) obs::set_enabled(true);
  int rc = 0;
  try {
    rc = dispatch(args);
  } catch (const UsageError& e) {
    // A bad invocation discovered mid-command (e.g. causal without
    // --practice): the exports below still run before the exit-2
    // return.
    std::cerr << "mpa_cli: " << e.message << "\n";
    usage();
    rc = 2;
  } catch (const std::exception& e) {
    std::cerr << "mpa_cli: " << e.what() << "\n";
    rc = 1;
  }
  write_observability(args);
  return rc;
}
