#include "serve/server.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "config/lint.hpp"
#include "engine/lint_report.hpp"
#include "io/dataset_io.hpp"
#include "learn/dataset.hpp"
#include "learn/eval.hpp"
#include "metrics/practices.hpp"
#include "mpa/causal.hpp"
#include "mpa/dependence.hpp"
#include "mpa/modeling.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace mpa::serve {
namespace {

std::string render_case_table(AnalysisSession& session, const Request& req) {
  const CaseTable& full = session.case_table();
  const int first = req.month_from < 0 ? 0 : req.month_from;
  const int last = req.month_to < 0 ? std::numeric_limits<int>::max() : req.month_to;
  CaseTable sliced = full.filter_months(first, last);
  if (!req.network.empty()) {
    std::vector<Case> kept;
    for (const Case& c : sliced.cases())
      if (c.network_id == req.network) kept.push_back(c);
    sliced = CaseTable(std::move(kept));
  }
  return sliced.to_csv();
}

std::string render_rank(AnalysisSession& session, const Request& req) {
  if (req.top_k < 1) throw DataError("rank request: top_k must be >= 1");
  const DependenceAnalysis& dep = session.dependence();
  const auto k = static_cast<std::size_t>(req.top_k);
  std::ostringstream os;

  os << "-- practices by avg monthly MI with health --\n";
  TextTable mi({"rank", "practice", "cat", "MI"});
  int rank = 0;
  for (const auto& pm : dep.top_practices(k))
    mi.row().add(++rank).add(std::string(practice_name(pm.practice)))
        .add(std::string(category_tag(pm.practice))).add(pm.avg_monthly_mi, 3);
  mi.print(os);

  os << "\n-- practice pairs by CMI given health --\n";
  TextTable cmi({"rank", "practice A", "practice B", "CMI"});
  rank = 0;
  for (const auto& pair : dep.top_pairs(k))
    cmi.row().add(++rank).add(std::string(practice_name(pair.a)))
        .add(std::string(practice_name(pair.b))).add(pair.avg_monthly_cmi, 3);
  cmi.print(os);
  return os.str();
}

std::string render_causal(AnalysisSession& session, const Request& req) {
  if (req.practice.empty()) throw DataError("causal request: practice required");
  const CausalResult& res = session.causal(practice_from_name(req.practice));
  std::ostringstream os;
  TextTable t({"comparison", "pairs", "+/0/-", "p-value", "balanced", "verdict"});
  for (const auto& cmp : res.comparisons) {
    t.row().add(cmp.label()).add(cmp.pairs)
        .add(std::to_string(cmp.outcome.n_pos) + "/" + std::to_string(cmp.outcome.n_zero) + "/" +
             std::to_string(cmp.outcome.n_neg))
        .add(format_sci(cmp.outcome.p_value)).add(cmp.balanced ? "yes" : "NO")
        .add(cmp.causal
                 ? (cmp.outcome.n_pos > cmp.outcome.n_neg ? "causes MORE tickets"
                                                          : "causes FEWER tickets")
                 : "no causal evidence");
  }
  t.print(os);
  return os.str();
}

std::string render_lint(AnalysisSession& session, const Request& req) {
  LintSeverity min = LintSeverity::kInfo;
  if (!req.min_severity.empty()) {
    const auto sev = parse_severity(req.min_severity);
    if (!sev)
      throw DataError("lint request: min_severity expects info|warning|error, got '" +
                      req.min_severity + "'");
    min = *sev;
  }
  return session.lint().at_least(min).to_text();
}

std::string render_predict(AnalysisSession& session, const Request& req) {
  if (req.classes < 2) throw DataError("predict request: classes must be >= 2");
  if (req.history < 1) throw DataError("predict request: history must be >= 1");
  const int months = session.num_months();
  std::ostringstream os;
  const EvalResult& cv = session.evaluate_cv(req.classes, ModelKind::kDtBoostOversample);
  os << "-- " << req.classes << "-class model, 5-fold CV --\n"
     << cv.to_string(health_class_names(req.classes));
  const int first_t = std::min(months - 1, req.history);
  const double online = session.online_accuracy(req.classes, req.history,
                                                ModelKind::kDtBoostOversample, first_t,
                                                months - 1);
  os << "\nonline month-ahead accuracy (history " << req.history
     << " months): " << format_double(online * 100, 1) << "%\n";
  return os.str();
}

std::string render_ingest(AnalysisSession& session, const Request& req) {
  if (req.dir.empty()) throw DataError("ingest request: dir required");
  const MonthDelta delta = load_month_delta(req.dir);
  const AnalysisSession::AppendResult res = session.append_month(delta);
  std::ostringstream os;
  os << "appended month " << res.month << ": " << res.snapshots << " snapshots, " << res.tickets
     << " tickets, " << res.new_rows << " case rows"
     << "\nincremental: table=" << (res.table_incremental ? "yes" : "no")
     << " lint=" << (res.lint_incremental ? "yes" : "no") << "\n";
  return os.str();
}

}  // namespace

std::string render_request(AnalysisSession& session, const Request& req) {
  switch (req.kind) {
    case RequestKind::kCaseTable: return render_case_table(session, req);
    case RequestKind::kRank: return render_rank(session, req);
    case RequestKind::kCausal: return render_causal(session, req);
    case RequestKind::kLint: return render_lint(session, req);
    case RequestKind::kPredict: return render_predict(session, req);
    case RequestKind::kIngest: return render_ingest(session, req);
    case RequestKind::kStats:
    case RequestKind::kHealth:
      // Reaching a session means the scheduler had no introspector —
      // introspection kinds are answered at submit, never rendered.
      throw DataError("request: introspection kind answered at submit");
  }
  throw DataError("request: unknown kind");
}

AnalysisServer::AnalysisServer(ServerOptions opts, Scheduler::Sink tap)
    : opts_(std::move(opts)),
      tap_(std::move(tap)),
      slow_log_(opts_.slow_log_entries),
      scheduler_(
          opts_.scheduler, [this](const Request& req) { return execute(req); },
          [this](const Response& resp) { record(resp); },
          [this](const Request& req) { return introspect(req); }) {}

void AnalysisServer::open_directory(const std::string& key, const std::string& dir) {
  sessions_.open_directory(key, dir, opts_.session);
}

std::uint64_t AnalysisServer::submit(Request req) {
  {
    MutexLock lk(resp_mu_);
    if (req.id == 0)
      req.id = next_id_++;
    else
      next_id_ = std::max(next_id_, req.id + 1);
    // A reused id's earlier response must not answer this submission.
    responses_.erase(req.id);
  }
  const std::uint64_t id = req.id;
  scheduler_.submit(std::move(req));
  return id;
}

Response AnalysisServer::submit_and_wait(Request req) {
  const std::uint64_t id = submit(std::move(req));
  MutexLock lk(resp_mu_);
  while (responses_.count(id) == 0) resp_cv_.wait(resp_mu_);
  return responses_.at(id);
}

void AnalysisServer::drain() {
  scheduler_.drain();
}

Response AnalysisServer::execute(const Request& req) {
  Response resp;
  resp.status = RequestStatus::kOk;
  resp.body = sessions_.with_session(req.session, [&](AnalysisSession& session) {
    obs::Span span = obs::Span::with_path("serve/" + std::string(to_string(req.kind)));
    return render_request(session, req);
  });
  return resp;
}

void AnalysisServer::record(const Response& resp) {
  // Worker-thread completions arrive with the request's context still
  // installed (the scheduler keeps it in scope through the sink call):
  // harvest the stage timings its spans collected into the slow log.
  // Rejections and expirations come from the submitting thread with no
  // context — the slow log holds executed requests.
  if (const obs::RequestContext* ctx = obs::current_request_context(); ctx != nullptr &&
                                                                       ctx->collect) {
    SlowLog::Entry entry;
    entry.id = resp.id;
    entry.tenant = resp.tenant;
    entry.kind = std::string(to_string(resp.kind));
    entry.status = std::string(to_string(resp.status));
    entry.queue_ms = resp.queue_ms;
    entry.service_ms = resp.service_ms;
    entry.total_ms = resp.total_ms;
    entry.stages.reserve(ctx->stage_ns.size());
    for (const auto& [path, dur_ns] : ctx->stage_ns)
      entry.stages.emplace_back(path, static_cast<double>(dur_ns) * 1e-6);
    slow_log_.record(std::move(entry));
  }
  {
    MutexLock lk(resp_mu_);
    responses_[resp.id] = resp;
  }
  resp_cv_.notify_all();
  if (tap_) tap_(resp);
}

Response AnalysisServer::introspect(const Request& req) {
  Response resp;
  resp.status = RequestStatus::kOk;
  const Scheduler::Stats s = scheduler_.stats();
  std::ostringstream os;
  if (req.kind == RequestKind::kHealth) {
    os << "{\"status\":\"ok\",\"sessions\":" << sessions_.keys().size()
       << ",\"queue_depth\":" << scheduler_.queue_depth()
       << ",\"workers\":" << scheduler_.workers() << ",\"submitted\":" << s.submitted << '}';
    resp.body = os.str();
    return resp;
  }
  os << "{\"stats\":{\"submitted\":" << s.submitted << ",\"admitted\":" << s.admitted
     << ",\"rejected\":" << s.rejected << ",\"completed\":" << s.completed << ",\"ok\":" << s.ok
     << ",\"deadline_misses\":" << s.deadline_misses << ",\"errors\":" << s.errors
     << ",\"introspected\":" << s.introspected
     << ",\"queue_depth\":" << scheduler_.queue_depth()
     << ",\"workers\":" << scheduler_.workers() << "},\"sessions\":[";
  bool first = true;
  for (const std::string& key : sessions_.keys()) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(key) << '"';
  }
  const obs::WindowRegistry* window = scheduler_.window();
  os << "],\"window\":" << (window != nullptr ? window->to_json() : std::string("null"))
     << ",\"slow\":" << slow_log_.to_json() << '}';
  resp.body = os.str();
  return resp;
}

std::vector<Response> AnalysisServer::responses() const {
  MutexLock lk(resp_mu_);
  std::vector<Response> out;
  out.reserve(responses_.size());
  for (const auto& [id, resp] : responses_) out.push_back(resp);
  return out;
}

void AnalysisServer::clear_responses() {
  MutexLock lk(resp_mu_);
  responses_.clear();
}

}  // namespace mpa::serve
