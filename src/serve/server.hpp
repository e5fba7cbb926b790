// AnalysisServer: the long-lived analysis service behind `mpa serve`
// and `mpa replay` (DESIGN.md §11). It keeps N AnalysisSessions
// resident in a SessionManager and answers Requests from a Scheduler:
// the executor resolves the request's session key, takes that
// session's exclusive lock, renders the analysis (memoized stages fan
// out on the session's own ThreadPool), and the internal sink stores
// every Response for retrieval, rejections and deadline misses
// included; a resubmitted id replaces its earlier response.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/session_manager.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/slow_log.hpp"
#include "util/sync.hpp"

namespace mpa::serve {

struct ServerOptions {
  SchedulerOptions scheduler;
  /// Session options applied by open_directory().
  SessionOptions session;
  /// Bound on the slow-request exemplar log (K worst by total_ms).
  std::size_t slow_log_entries = 16;
};

/// Render one request against a session: dispatch on kind, run the
/// memoized stage, format the result as text/CSV. The one renderer of
/// analysis output: the daemon answers with it, and `mpa_cli rank`,
/// `causal`, `predict` and `ingest` print its body. The body is a pure
/// function of (dataset, session options, seed, request), so replaying
/// a fixed trace yields byte-identical bodies at any worker count —
/// an ingest request advances the dataset (append_month over the named
/// delta directory), so the identity holds per dataset state, and a
/// trace mixing ingest with reads stays deterministic only single-
/// worker (the session lock serializes, but order is the contract).
/// Throws DataError on bad parameters (unknown practice — the
/// practice_from_name() message — or bad severity).
std::string render_request(AnalysisSession& session, const Request& req);

class AnalysisServer {
 public:
  /// `tap`, when set, receives every Response as it completes (worker
  /// threads / the submitting thread for rejections) — the daemon uses
  /// it to stream response JSONL.
  explicit AnalysisServer(ServerOptions opts = {}, Scheduler::Sink tap = nullptr);
  /// Drains in-flight requests (scheduler destructs before sessions).
  ~AnalysisServer() = default;
  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  SessionManager& sessions() { return sessions_; }

  /// Open a resident session over a dataset directory under `key`,
  /// with the server's session options applied.
  void open_directory(const std::string& key, const std::string& dir);

  /// Submit a request; assigns the next id when req.id == 0. Returns
  /// the id, whether admitted or rejected (the rejection response is
  /// recorded before this returns). Drops any stored response under
  /// that id, so only this submission's response is found under it.
  std::uint64_t submit(Request req) EXCLUDES(resp_mu_);

  /// Submit and block for this request's response (closed-loop client).
  Response submit_and_wait(Request req) EXCLUDES(resp_mu_);

  /// Block until every admitted request has completed.
  void drain();

  /// The latest recorded response per id, ordered by id.
  std::vector<Response> responses() const EXCLUDES(resp_mu_);
  /// Drop recorded responses (bench steady-state resets).
  void clear_responses() EXCLUDES(resp_mu_);

  Scheduler::Stats stats() const { return scheduler_.stats(); }
  const Scheduler& scheduler() const { return scheduler_; }
  const SlowLog& slow_log() const { return slow_log_; }

 private:
  Response execute(const Request& req);
  void record(const Response& resp) EXCLUDES(resp_mu_);
  /// Answer a kStats/kHealth request (scheduler Introspector): the
  /// windowed snapshot, scheduler Stats, resident-session list, and the
  /// slow-request exemplar log, as a JSON body.
  Response introspect(const Request& req);

  const ServerOptions opts_;
  SessionManager sessions_;  ///< Declared before scheduler_: workers join first.
  Scheduler::Sink tap_;
  SlowLog slow_log_;  ///< Declared before scheduler_: workers feed it until drained.

  /// Guards the response store and id counter; leaf lock — nothing
  /// else is acquired while it is held (lock ordering, DESIGN.md §12).
  mutable Mutex resp_mu_;
  CondVar resp_cv_;  ///< Signals a response landing in responses_.
  std::map<std::uint64_t, Response> responses_ GUARDED_BY(resp_mu_);
  std::uint64_t next_id_ GUARDED_BY(resp_mu_) = 1;

  Scheduler scheduler_;  ///< Last member: destructs (drains + joins) first.
};

}  // namespace mpa::serve
