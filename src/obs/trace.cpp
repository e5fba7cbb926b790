#include "obs/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace mpa::obs {
namespace {

std::string& thread_current_path() {
  thread_local std::string path;
  return path;
}

RequestContext*& thread_request_context() {
  thread_local RequestContext* ctx = nullptr;
  return ctx;
}

}  // namespace

RequestContext RequestContext::tag_only() const {
  RequestContext out;
  out.req_id = req_id;
  out.tenant = tenant;
  return out;
}

RequestContext* current_request_context() {
  return thread_request_context();
}

ScopedRequestContext::ScopedRequestContext(RequestContext* ctx)
    : prev_(thread_request_context()) {
  thread_request_context() = ctx != nullptr ? ctx : prev_;
}

ScopedRequestContext::~ScopedRequestContext() {
  thread_request_context() = prev_;
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::string Tracer::current_path() {
  return thread_current_path();
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::vector<SpanRecord> out;
  spans_.for_each([&](std::uint32_t tid, const SpanRecord& rec) {
    out.push_back(rec);
    out.back().tid = tid;
  });
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.path < b.path;
  });
  return out;
}

std::string Tracer::to_json() const {
  const auto spans = snapshot();
  std::ostringstream os;
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"path\":\"" << json_escape(spans[i].path) << "\",\"start_ns\":" << spans[i].start_ns
       << ",\"dur_ns\":" << spans[i].dur_ns << ",\"tid\":" << spans[i].tid;
    if (spans[i].req_id != 0) {
      os << ",\"req_id\":" << spans[i].req_id << ",\"tenant\":\"" << json_escape(spans[i].tenant)
         << '"';
    }
    os << '}';
  }
  os << "]}\n";
  return os.str();
}

std::string summarize_spans(const std::vector<SpanRecord>& spans) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, Agg> by_path;
  for (const auto& s : spans) {
    Agg& a = by_path[s.path];
    ++a.count;
    a.total_ns += s.dur_ns;
  }
  std::ostringstream os;
  for (const auto& [path, agg] : by_path) {
    std::size_t depth = 0;
    std::size_t last_seg = 0;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (path[i] == '/') {
        ++depth;
        last_seg = i + 1;
      }
    }
    os << std::string(depth * 2, ' ') << path.substr(last_seg) << "  count=" << agg.count
       << "  total=" << static_cast<double>(agg.total_ns) * 1e-9 << "s\n";
  }
  return os.str();
}

std::string Tracer::summary() const {
  return summarize_spans(snapshot());
}

Span::Span(std::string_view name) {
  if (!enabled()) return;
  const std::string& cur = thread_current_path();
  path_ = cur.empty() ? std::string(name) : cur + "/" + std::string(name);
  open();
}

Span Span::with_path(std::string path) {
  return Span(AbsolutePath{}, std::move(path));
}

Span::Span(AbsolutePath, std::string path) {
  if (!enabled()) return;
  path_ = std::move(path);
  open();
}

void Span::open() {
  active_ = true;
  prev_path_ = thread_current_path();
  thread_current_path() = path_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  thread_current_path() = prev_path_;
  SpanRecord rec{std::move(path_), start_ns_, end - start_ns_, 0, 0, {}};
  if (RequestContext* ctx = thread_request_context()) {
    rec.req_id = ctx->req_id;
    rec.tenant = ctx->tenant;
    if (ctx->collect) ctx->stage_ns.emplace_back(rec.path, rec.dur_ns);
  }
  Tracer::global().spans_.append(std::move(rec));
}

}  // namespace mpa::obs
