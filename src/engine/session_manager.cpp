#include "engine/session_manager.hpp"

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace mpa {

void SessionManager::open(const std::string& key, AnalysisSession session) {
  if (key.empty()) throw DataError("SessionManager::open: empty session key");
  std::size_t resident = 0;
  {
    MutexLock lk(mu_);
    if (sessions_.count(key) != 0)
      throw DataError("SessionManager::open: session '" + key + "' already open");
    sessions_.emplace(key, std::make_unique<Entry>(std::move(session)));
    resident = sessions_.size();
  }
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("mpa_session_manager_opens_total").add(1);
    reg.gauge("mpa_sessions_resident").set(static_cast<double>(resident));
  }
  obs::LogEvent(obs::LogLevel::kInfo, "session_register").str("key", key);
}

void SessionManager::open_directory(const std::string& key, const std::string& dir,
                                    SessionOptions opts) {
  open(key, AnalysisSession::from_directory(dir, std::move(opts)));
}

std::vector<std::string> SessionManager::keys() const {
  MutexLock lk(mu_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [key, entry] : sessions_) out.push_back(key);
  return out;
}

SessionManager::Entry& SessionManager::entry_for(const std::string& key) const {
  MutexLock lk(mu_);
  const auto it = sessions_.find(key);
  if (it == sessions_.end()) throw DataError("unknown session '" + key + "'");
  return *it->second;
}

}  // namespace mpa
