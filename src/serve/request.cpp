#include "serve/request.hpp"

#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace mpa::serve {

std::string_view to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kCaseTable: return "case_table";
    case RequestKind::kRank: return "rank";
    case RequestKind::kCausal: return "causal";
    case RequestKind::kLint: return "lint";
    case RequestKind::kPredict: return "predict";
    case RequestKind::kIngest: return "ingest";
    case RequestKind::kStats: return "stats";
    case RequestKind::kHealth: return "health";
  }
  return "unknown";
}

bool parse_request_kind(std::string_view name, RequestKind* out) {
  for (RequestKind k : {RequestKind::kCaseTable, RequestKind::kRank, RequestKind::kCausal,
                        RequestKind::kLint, RequestKind::kPredict, RequestKind::kIngest,
                        RequestKind::kStats, RequestKind::kHealth}) {
    if (name == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

std::string_view to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kDeadlineExceeded: return "deadline_exceeded";
    case RequestStatus::kError: return "error";
  }
  return "unknown";
}

std::string Request::to_json() const {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"tenant\":\"" << json_escape(tenant) << "\",\"session\":\""
     << json_escape(session) << "\",\"kind\":\"" << to_string(kind) << "\"";
  switch (kind) {
    case RequestKind::kCaseTable:
      if (month_from >= 0) os << ",\"month_from\":" << month_from;
      if (month_to >= 0) os << ",\"month_to\":" << month_to;
      if (!network.empty()) os << ",\"network\":\"" << json_escape(network) << "\"";
      break;
    case RequestKind::kRank:
      os << ",\"top_k\":" << top_k;
      break;
    case RequestKind::kCausal:
      os << ",\"practice\":\"" << json_escape(practice) << "\"";
      break;
    case RequestKind::kLint:
      if (!min_severity.empty())
        os << ",\"min_severity\":\"" << json_escape(min_severity) << "\"";
      break;
    case RequestKind::kPredict:
      os << ",\"classes\":" << classes << ",\"history\":" << history;
      break;
    case RequestKind::kIngest:
      os << ",\"dir\":\"" << json_escape(dir) << "\"";
      break;
    case RequestKind::kStats:
    case RequestKind::kHealth:
      break;  // introspection kinds take no parameters
  }
  // != 0, not > 0: a negative deadline (expired at submit) must
  // round-trip through traces to reproduce synchronous rejection.
  if (deadline_ms != 0) os << ",\"deadline_ms\":" << json_number(deadline_ms);
  os << "}";
  return os.str();
}

Request Request::from_json(const JsonValue& v) {
  if (!v.is_object()) throw DataError("request: expected a JSON object");
  static const std::set<std::string> known = {
      "id",        "tenant",       "session", "kind",    "month_from", "month_to", "network",
      "top_k",     "practice",     "min_severity", "classes", "history", "dir", "deadline_ms"};
  for (const auto& [key, value] : v.as_object())
    if (known.count(key) == 0) throw DataError("request: unknown field '" + key + "'");

  const JsonFields f(v, "request");
  Request req;
  req.id = f.get("id", req.id);
  req.tenant = f.get("tenant", req.tenant);
  req.session = f.get("session", req.session);
  const std::string kind = f.get<std::string>("kind", "");
  if (!parse_request_kind(kind, &req.kind))
    throw DataError("request: unknown kind '" + kind + "'");
  req.month_from = f.get("month_from", req.month_from);
  req.month_to = f.get("month_to", req.month_to);
  req.network = f.get("network", req.network);
  req.top_k = f.get("top_k", req.top_k);
  req.practice = f.get("practice", req.practice);
  req.min_severity = f.get("min_severity", req.min_severity);
  req.classes = f.get("classes", req.classes);
  req.history = f.get("history", req.history);
  req.dir = f.get("dir", req.dir);
  req.deadline_ms = f.get("deadline_ms", req.deadline_ms);
  return req;
}

std::string Response::to_json(bool with_timing) const {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"kind\":\"" << to_string(kind) << "\",\"status\":\""
     << to_string(status) << "\",\"body\":\"" << json_escape(body) << "\"";
  if (with_timing) {
    os << ",\"tenant\":\"" << json_escape(tenant) << "\",\"session\":\"" << json_escape(session)
       << "\",\"queue_ms\":" << json_number(queue_ms)
       << ",\"service_ms\":" << json_number(service_ms)
       << ",\"total_ms\":" << json_number(total_ms);
  }
  os << "}";
  return os.str();
}

std::string trace_to_jsonl(const std::vector<Request>& trace) {
  std::string out;
  for (const Request& req : trace) {
    out += req.to_json();
    out += '\n';
  }
  return out;
}

std::vector<Request> trace_from_jsonl(std::string_view text) {
  std::vector<Request> trace;
  std::size_t line_no = 0;
  for (const std::string_view line : split_line_views(text)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      trace.push_back(Request::from_json(parse_json(line)));
    } catch (const DataError& e) {
      throw DataError("trace line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  return trace;
}

}  // namespace mpa::serve
