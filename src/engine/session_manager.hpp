// SessionManager: the engine's registry of resident AnalysisSessions,
// keyed by name, so a long-lived serving process (src/serve/) can keep
// N sessions open over loaded datasets and answer requests against
// them without re-reading anything.
//
// Concurrency contract: AnalysisSession stage calls are single-owner,
// so the manager wraps every session in a per-entry mutex and exposes
// it only through with_session() — at most one request executes
// against a session at a time, while different sessions proceed in
// parallel. Mutating stage calls ride the same lock: the serving
// layer's ingest requests run AnalysisSession::append_month inside
// with_session(), so an append is atomic with respect to concurrent
// reads of the same session. A registered session stays until the
// manager is destroyed, so an entry never dies under a running stage.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/session.hpp"
#include "util/sync.hpp"

namespace mpa {

class SessionManager {
 public:
  SessionManager() = default;
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Adopt an already-constructed session under `key`. Throws
  /// DataError when the key is already registered.
  void open(const std::string& key, AnalysisSession session);

  /// Open a session over a dataset directory (io/dataset_io.hpp
  /// format); the observation window is implied by the data. Throws
  /// DataError on a duplicate key or unreadable dataset.
  void open_directory(const std::string& key, const std::string& dir, SessionOptions opts = {});

  /// Registered keys in lexicographic order.
  std::vector<std::string> keys() const EXCLUDES(mu_);

  /// Run `fn(AnalysisSession&)` with exclusive access to the session
  /// registered under `key`; throws DataError when the key is unknown.
  /// Blocks while another thread holds the same session.
  template <typename Fn>
  auto with_session(const std::string& key, Fn&& fn) EXCLUDES(mu_) {
    Entry& entry = entry_for(key);
    MutexLock lk(entry.mu);
    return fn(entry.session);
  }

 private:
  struct Entry {
    explicit Entry(AnalysisSession s) : session(std::move(s)) {}
    Mutex mu;  ///< One request at a time per session.
    AnalysisSession session GUARDED_BY(mu);
  };

  /// Look up the entry for `key`; throws DataError when unknown.
  /// Lock order: the registry mutex is released before the caller
  /// acquires the entry mutex — the two are never held together.
  Entry& entry_for(const std::string& key) const EXCLUDES(mu_);

  mutable Mutex mu_;  ///< Guards sessions_.
  std::map<std::string, std::unique_ptr<Entry>> sessions_ GUARDED_BY(mu_);
};

}  // namespace mpa
