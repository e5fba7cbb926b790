#include "serve/client.hpp"

#include <chrono>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "metrics/practices.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace mpa::serve {

std::vector<Request> synthesize_trace(const ClientOptions& opts) {
  Rng rng(opts.seed);
  // Weights of kCaseTable, kRank, kCausal, kLint and kPredict.
  const std::vector<double> weights = {4, 3, 1, 3, 1};
  const std::vector<Practice> treatments = analysis_practices();

  std::vector<Request> trace;
  trace.reserve(static_cast<std::size_t>(opts.request_total_cnt));
  for (int i = 0; i < opts.request_total_cnt; ++i) {
    Request req;
    req.id = static_cast<std::uint64_t>(i) + 1;
    if (!opts.tenants.empty())
      req.tenant = opts.tenants[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(opts.tenants.size()) - 1))];
    req.kind = static_cast<RequestKind>(rng.weighted_index(weights));
    req.deadline_ms = opts.deadline_ms;
    switch (req.kind) {
      case RequestKind::kCaseTable:
        req.month_from = static_cast<int>(rng.uniform_int(0, 3));
        req.month_to = req.month_from + static_cast<int>(rng.uniform_int(0, 2));
        break;
      case RequestKind::kRank:
        req.top_k = static_cast<int>(rng.uniform_int(5, 15));
        break;
      case RequestKind::kCausal:
        req.practice = std::string(practice_name(treatments[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(treatments.size()) - 1))]));
        break;
      case RequestKind::kLint:
        req.min_severity = rng.bernoulli(0.5) ? "warning" : "";
        break;
      case RequestKind::kPredict:
        req.classes = rng.bernoulli(0.5) ? 2 : 5;
        req.history = static_cast<int>(rng.uniform_int(2, 4));
        break;
      default:
        break;  // the mix gives the other kinds no weight
    }
    trace.push_back(std::move(req));
  }
  return trace;
}

LoadReport SyntheticClient::replay(AnalysisServer& server,
                                   const std::vector<Request>& trace) const {
  // Private latency histogram: the same bucket layout + quantile
  // estimator the obs exports use, without coupling the report to
  // whatever else the process-wide registry has observed.
  obs::Histogram latency(obs::latency_buckets_seconds());
  const std::uint64_t t0 = obs::now_ns();

  // The responses to this replay's own submissions; the server may hold
  // others from earlier traffic.
  std::vector<Response> answered;
  answered.reserve(trace.size());
  if (opts_.request_interval_ms <= 0) {
    for (const Request& req : trace) answered.push_back(server.submit_and_wait(req));
  } else {
    const std::optional<std::int64_t> interval_ns =
        scaled<std::int64_t>(opts_.request_interval_ms, 1e6);
    require(interval_ns.has_value(),
            "SyntheticClient::replay: request_interval_ms is too long for the clock");
    std::vector<std::uint64_t> ids;
    ids.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ids.push_back(server.submit(trace[i]));
      if (i + 1 < trace.size())
        std::this_thread::sleep_for(std::chrono::nanoseconds(*interval_ns));
    }
    server.drain();
    std::map<std::uint64_t, Response> by_id;
    for (const Response& resp : server.responses()) by_id[resp.id] = resp;
    for (std::uint64_t id : ids) {
      const auto it = by_id.find(id);
      if (it != by_id.end()) answered.push_back(it->second);
    }
  }

  LoadReport report;
  report.wall_seconds = static_cast<double>(obs::now_ns() - t0) * 1e-9;
  for (const Response& resp : answered) {
    latency.observe(resp.total_ms * 1e-3);
    ++report.total;
    switch (resp.status) {
      case RequestStatus::kOk: ++report.ok; break;
      case RequestStatus::kRejected: ++report.rejected; break;
      case RequestStatus::kDeadlineExceeded: ++report.deadline_misses; break;
      case RequestStatus::kError: ++report.errors; break;
    }
  }
  if (report.wall_seconds > 0)
    report.throughput_rps = static_cast<double>(report.total) / report.wall_seconds;
  report.p50_ms = latency.quantile(0.50) * 1e3;
  report.p90_ms = latency.quantile(0.90) * 1e3;
  report.p99_ms = latency.quantile(0.99) * 1e3;
  return report;
}

SloReport compute_slo(const std::vector<Response>& responses, double slo_ms, double offered_rps,
                      double achieved_rps) {
  SloReport report;
  report.slo_ms = slo_ms;
  report.offered_rps = offered_rps;
  report.achieved_rps = achieved_rps;
  // The knee test: accepting an offered load means sustaining ~all of
  // it. Falling below 90% of the offered rate marks saturation.
  report.saturated = offered_rps > 0 && achieved_rps < 0.9 * offered_rps;

  std::map<std::string, TenantSlo> by_tenant;
  for (const Response& resp : responses) {
    TenantSlo& t = by_tenant[resp.tenant];
    t.tenant = resp.tenant;
    ++t.total;
    if (resp.status == RequestStatus::kOk && resp.total_ms <= slo_ms) ++t.within;
  }
  report.tenants.reserve(by_tenant.size());
  for (auto& [tenant, t] : by_tenant) {
    if (t.total > 0) t.attainment = static_cast<double>(t.within) / static_cast<double>(t.total);
    report.tenants.push_back(std::move(t));
  }
  return report;
}

std::string SloReport::to_text() const {
  std::ostringstream os;
  os << "SLO " << format_double(slo_ms, 1) << " ms";
  if (offered_rps > 0)
    os << ", offered " << format_double(offered_rps, 1) << " req/s, achieved "
       << format_double(achieved_rps, 1) << " req/s"
       << (saturated ? " (SATURATED)" : "");
  os << "\n";
  TextTable t({"tenant", "total", "within", "attainment"});
  for (const TenantSlo& row : tenants)
    t.row().add(row.tenant).add(static_cast<std::size_t>(row.total))
        .add(static_cast<std::size_t>(row.within)).add(format_double(row.attainment * 100, 1) +
                                                       "%");
  t.print(os);
  return os.str();
}

std::string SloReport::to_json() const {
  std::ostringstream os;
  os << "{\"slo_ms\":" << json_number(slo_ms)
     << ",\"offered_rps\":" << json_number(offered_rps)
     << ",\"achieved_rps\":" << json_number(achieved_rps) << ",\"saturated\":"
     << (saturated ? "true" : "false") << ",\"tenants\":[";
  bool first = true;
  for (const TenantSlo& t : tenants) {
    if (!first) os << ',';
    first = false;
    os << "{\"tenant\":\"" << json_escape(t.tenant) << "\",\"total\":" << t.total
       << ",\"within\":" << t.within << ",\"attainment\":" << json_number(t.attainment) << '}';
  }
  os << "]}";
  return os.str();
}

std::string LoadReport::to_text() const {
  std::ostringstream os;
  TextTable t({"metric", "value"});
  t.row().add("requests").add(static_cast<std::size_t>(total));
  t.row().add("  ok").add(static_cast<std::size_t>(ok));
  t.row().add("  rejected").add(static_cast<std::size_t>(rejected));
  t.row().add("  deadline_exceeded").add(static_cast<std::size_t>(deadline_misses));
  t.row().add("  error").add(static_cast<std::size_t>(errors));
  t.row().add("wall seconds").add(format_double(wall_seconds, 3));
  t.row().add("throughput req/s").add(format_double(throughput_rps, 1));
  t.row().add("p50 latency ms").add(format_double(p50_ms, 2));
  t.row().add("p90 latency ms").add(format_double(p90_ms, 2));
  t.row().add("p99 latency ms").add(format_double(p99_ms, 2));
  t.print(os);
  return os.str();
}

std::string LoadReport::to_json() const {
  std::ostringstream os;
  os << "{\"total\":" << total << ",\"ok\":" << ok << ",\"rejected\":" << rejected
     << ",\"deadline_exceeded\":" << deadline_misses << ",\"error\":" << errors
     << ",\"wall_seconds\":" << json_number(wall_seconds)
     << ",\"throughput_rps\":" << json_number(throughput_rps)
     << ",\"p50_ms\":" << json_number(p50_ms) << ",\"p90_ms\":" << json_number(p90_ms)
     << ",\"p99_ms\":" << json_number(p99_ms) << "}";
  return os.str();
}

}  // namespace mpa::serve
