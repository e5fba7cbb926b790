#include "serve/slow_log.hpp"

#include <algorithm>
#include <sstream>

#include "util/json.hpp"

namespace mpa::serve {
namespace {

bool worse(const SlowLog::Entry& a, const SlowLog::Entry& b) {
  if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
  return a.id < b.id;
}

}  // namespace

SlowLog::SlowLog(std::size_t capacity) : cap_(capacity == 0 ? 1 : capacity) {}

void SlowLog::record(Entry entry) {
  MutexLock lk(mu_);
  entries_.push_back(std::move(entry));
  std::sort(entries_.begin(), entries_.end(), worse);
  if (entries_.size() > cap_) entries_.resize(cap_);
}

std::vector<SlowLog::Entry> SlowLog::worst() const {
  MutexLock lk(mu_);
  return entries_;
}

std::string SlowLog::to_json() const {
  const std::vector<Entry> entries = worst();
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (const Entry& e : entries) {
    if (!first) os << ',';
    first = false;
    os << "{\"id\":" << e.id << ",\"tenant\":\"" << json_escape(e.tenant) << "\",\"kind\":\""
       << json_escape(e.kind) << "\",\"status\":\"" << json_escape(e.status)
       << "\",\"queue_ms\":" << json_number(e.queue_ms)
       << ",\"service_ms\":" << json_number(e.service_ms)
       << ",\"total_ms\":" << json_number(e.total_ms) << ",\"stages\":[";
    bool first_stage = true;
    for (const auto& [path, ms] : e.stages) {
      if (!first_stage) os << ',';
      first_stage = false;
      os << "{\"path\":\"" << json_escape(path) << "\",\"ms\":" << json_number(ms) << '}';
    }
    os << "]}";
  }
  os << ']';
  return os.str();
}

std::string SlowLog::canonical_json() const {
  std::vector<Entry> entries = worst();
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (const Entry& e : entries) {
    if (!first) os << ',';
    first = false;
    os << "{\"id\":" << e.id << ",\"tenant\":\"" << json_escape(e.tenant) << "\",\"kind\":\""
       << json_escape(e.kind) << "\",\"status\":\"" << json_escape(e.status) << "\"}";
  }
  os << ']';
  return os.str();
}

}  // namespace mpa::serve
