#include "obs/chrome_trace.hpp"

#include <cstdio>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace mpa::obs {
namespace {

/// Microseconds with nanosecond precision ("1234.567").
std::string format_us(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

std::string_view leaf_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string_view(path)
                                    : std::string_view(path).substr(slash + 1);
}

}  // namespace

std::string chrome_trace_json(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i != 0) os << ',';
    os << "{\"ph\":\"X\",\"name\":\"" << json_escape(std::string(leaf_of(s.path)))
       << "\",\"cat\":\"mpa\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << format_us(s.start_ns)
       << ",\"dur\":" << format_us(s.dur_ns) << ",\"args\":{\"path\":\"" << json_escape(s.path)
       << '"';
    if (s.req_id != 0) {
      os << ",\"req_id\":" << s.req_id << ",\"tenant\":\"" << json_escape(s.tenant) << '"';
    }
    os << "}}";
  }
  os << "]}\n";
  return os.str();
}

std::vector<SpanRecord> parse_trace_json(const std::string& json) {
  const JsonValue doc = parse_json(json);
  std::vector<SpanRecord> out;
  if (const JsonValue* spans = doc.find("spans")) {
    for (const JsonValue& s : spans->as_array()) {
      const JsonFields f(s, "trace span");
      SpanRecord rec;
      rec.path = f.get<std::string>("path");
      rec.start_ns = f.get<std::uint64_t>("start_ns");
      rec.dur_ns = f.get<std::uint64_t>("dur_ns");
      rec.tid = f.get("tid", rec.tid);
      rec.req_id = f.get("req_id", rec.req_id);
      rec.tenant = f.get("tenant", rec.tenant);
      out.push_back(std::move(rec));
    }
    return out;
  }
  if (const JsonValue* events = doc.find("traceEvents")) {
    for (const JsonValue& e : events->as_array()) {
      const JsonFields f(e, "chrome trace event");
      // Tolerate foreign phases (metadata, counters) in hand-edited
      // traces; only complete events carry a duration to aggregate.
      if (f.get<std::string>("ph", "X") != "X") continue;
      SpanRecord rec;
      const JsonValue* args = e.find("args");
      if (args != nullptr) {
        const JsonFields a(*args, "chrome trace event args");
        rec.path = a.get("path", rec.path);
        rec.req_id = a.get("req_id", rec.req_id);
        rec.tenant = a.get("tenant", rec.tenant);
      }
      if (args == nullptr || args->find("path") == nullptr) rec.path = f.get<std::string>("name");
      rec.start_ns = f.scaled<std::uint64_t>("ts", 1000.0);  // µs -> ns
      rec.dur_ns = f.scaled<std::uint64_t>("dur", 1000.0);
      rec.tid = f.get("tid", rec.tid);
      out.push_back(std::move(rec));
    }
    return out;
  }
  throw DataError("trace file has neither \"spans\" nor \"traceEvents\"");
}

}  // namespace mpa::obs
