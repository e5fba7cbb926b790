#include "obs/log.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace mpa::obs {
namespace {

/// The gate packs enabled + minimum level into one atomic: values
/// 0..3 are the minimum level while enabled, kGateOff disables. A
/// LogEvent passes when its level >= the loaded gate, so the disabled
/// check and the level filter are the same single relaxed load.
constexpr int kGateOff = 4;

std::atomic<int> g_gate{kGateOff};
std::atomic<int> g_min_level{static_cast<int>(LogLevel::kDebug)};

}  // namespace

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "?";
}

bool parse_log_level(std::string_view name, LogLevel* out) {
  for (LogLevel l : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn, LogLevel::kError}) {
    if (name == to_string(l)) {
      *out = l;
      return true;
    }
  }
  return false;
}

bool log_enabled() {
  return g_gate.load(std::memory_order_relaxed) != kGateOff;
}

void set_log_enabled(bool on) {
  g_gate.store(on ? g_min_level.load(std::memory_order_relaxed) : kGateOff,
               std::memory_order_relaxed);
}

void set_log_min_level(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
  if (log_enabled()) g_gate.store(static_cast<int>(level), std::memory_order_relaxed);
}

std::string LogField::value_json() const {
  struct Json {
    std::string operator()(const std::string& s) const { return "\"" + json_escape(s) + "\""; }
    std::string operator()(std::int64_t i) const { return std::to_string(i); }
    std::string operator()(std::uint64_t u) const { return std::to_string(u); }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
  };
  return std::visit(Json{}, value);
}

std::string LogRecord::to_json(bool with_time) const {
  std::ostringstream os;
  os << '{';
  if (with_time) {
    os << "\"t_ns\":" << t_ns << ',';
    if (ctx_req_id != 0) {
      os << "\"req_id\":" << ctx_req_id << ",\"tenant\":\"" << json_escape(ctx_tenant) << "\",";
    }
  }
  os << "\"level\":\"" << to_string(level) << "\",\"name\":\"" << json_escape(name)
     << "\",\"fields\":{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << json_escape(fields[i].key) << "\":" << fields[i].value_json();
  }
  os << "}}";
  return os.str();
}

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

std::vector<LogRecord> Logger::snapshot() const {
  std::vector<LogRecord> out;
  events_.for_each([&](std::uint32_t, const LogRecord& rec) { out.push_back(rec); });
  std::sort(out.begin(), out.end(), [](const LogRecord& a, const LogRecord& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    return a.to_json(false) < b.to_json(false);
  });
  return out;
}

std::string Logger::to_jsonl() const {
  std::ostringstream os;
  for (const auto& rec : snapshot()) os << rec.to_json(true) << '\n';
  return os.str();
}

std::string Logger::canonical_jsonl() const {
  std::vector<std::string> lines;
  for (const auto& rec : snapshot()) lines.push_back(rec.to_json(false));
  std::sort(lines.begin(), lines.end());
  std::ostringstream os;
  for (const auto& line : lines) os << line << '\n';
  return os.str();
}

LogEvent::LogEvent(LogLevel level, std::string_view name) {
  // The zero-overhead gate: one relaxed atomic load covering both the
  // on/off switch and the level filter. Nothing below touches a clock
  // or allocates until the event is known to record.
  if (static_cast<int>(level) < g_gate.load(std::memory_order_relaxed)) return;
  active_ = true;
  rec_.level = level;
  rec_.name = std::string(name);
  if (const RequestContext* ctx = current_request_context()) {
    rec_.ctx_req_id = ctx->req_id;
    rec_.ctx_tenant = ctx->tenant;
  }
}

LogEvent::~LogEvent() {
  if (!active_) return;
  rec_.t_ns = now_ns();
  Logger::global().events_.append(std::move(rec_));
}

void LogEvent::add(std::string_view key, LogField::Value value) {
  rec_.fields.push_back(LogField{std::string(key), std::move(value)});
}

LogEvent& LogEvent::str(std::string_view key, std::string_view value) {
  if (active_) add(key, std::string(value));
  return *this;
}

LogEvent& LogEvent::i64(std::string_view key, std::int64_t value) {
  if (active_) add(key, value);
  return *this;
}

LogEvent& LogEvent::u64(std::string_view key, std::uint64_t value) {
  if (active_) add(key, value);
  return *this;
}

LogEvent& LogEvent::boolean(std::string_view key, bool value) {
  if (active_) add(key, value);
  return *this;
}

}  // namespace mpa::obs
