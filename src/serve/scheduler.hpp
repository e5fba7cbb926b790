// Request scheduler for the `mpa serve` daemon (DESIGN.md §11).
//
// Modeled on the NeuPIMs scheduler/client split: a bounded admitted
// set (`max_active_reqs` caps ready+running, `max_queue_depth` caps
// ready alone) with explicit rejection — an inadmissible request is
// answered immediately with status kRejected, never silently dropped —
// per-request deadlines checked at dispatch (an expired request
// completes with kDeadlineExceeded without executing; one already
// expired at submit — negative deadline_ms — is answered synchronously
// and never occupies queue depth), and round-robin
// fairness across tenants with FIFO order within each tenant.
//
// Requests are executed by a fixed set of dedicated worker threads;
// the analysis work itself fans out on each session's existing
// ThreadPool through the memoized AnalysisSession stages, so the
// scheduler adds queueing, not computation. Every admitted or rejected
// request produces exactly one Response through the sink (invoked from
// worker threads for executed requests, from the submitting thread for
// rejections — callers synchronize their own state).
//
// Determinism contract: with one worker and a closed-loop client,
// execution order equals trace order; with any worker count, the
// multiset of (id, kind, status) outcomes and the canonical event
// stream are identical as long as the trace triggers no
// timing-dependent statuses (no deadlines, no overload rejections) —
// pinned in tests/test_serve.cpp at 1/2/8 workers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/request.hpp"
#include "util/sync.hpp"

namespace mpa::obs {
class WindowRegistry;
}

namespace mpa::serve {

struct SchedulerOptions {
  /// Dedicated request-worker threads (clamped to >= 1).
  int workers = 1;
  /// Cap on admitted-but-incomplete requests (ready + running); a
  /// submit beyond it is rejected.
  std::size_t max_active_reqs = 64;
  /// Cap on ready (queued, not yet running) requests across tenants; a
  /// submit beyond it is rejected.
  std::size_t max_queue_depth = 256;
  /// Deadline applied to requests that carry none (0 = none).
  double default_deadline_ms = 0;
  /// Windowed-aggregation registry every terminal response is recorded
  /// into (introspection answers excluded). nullptr picks the global
  /// registry when observability is enabled, else no recording. Tests
  /// inject an instance with a logical clock.
  obs::WindowRegistry* window = nullptr;
};

/// Pre-register the serving layer's metric schema (counters +
/// latency histograms) so exports always carry the same key set.
void register_serve_metrics();

class Scheduler {
 public:
  /// Executes one request (worker thread). Exceptions become kError
  /// responses with the exception text as body.
  using Executor = std::function<Response(const Request&)>;
  /// Receives every completed response exactly once.
  using Sink = std::function<void(const Response&)>;
  /// Answers an introspection request (kStats/kHealth) synchronously on
  /// the submitting thread — only status and body are consulted; the
  /// scheduler fills the response envelope. Invoked with no scheduler
  /// lock held, so it may call stats()/queue_depth().
  using Introspector = std::function<Response(const Request&)>;

  Scheduler(SchedulerOptions opts, Executor executor, Sink sink,
            Introspector introspector = nullptr);
  /// Drains admitted work, then joins the workers.
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admit or reject `req`. On rejection the sink receives the
  /// kRejected response before this returns false. A request whose
  /// deadline already expired at submit (deadline_ms < 0) is answered
  /// kDeadlineExceeded through the sink before this returns false —
  /// it counts as a completed deadline miss, not a rejection, and
  /// never occupies queue depth. On admission the request is queued
  /// (FIFO within its tenant) and will produce its response through
  /// the sink from a worker thread.
  bool submit(Request req) EXCLUDES(mu_);

  /// Block until every admitted request has completed.
  void drain() EXCLUDES(mu_);

  /// Admission/completion counters (snapshot under the queue mutex).
  /// `submitted = admitted + rejected + expired-at-submit +
  /// introspected`, where expired-at-submit is visible as `completed`
  /// deadline misses that were never admitted; `completed` counts every
  /// terminal response — admitted requests' outcomes (including
  /// dispatch-time deadline misses and executor errors) plus
  /// synchronous expired-at-submit and introspection answers — nothing
  /// is dropped. Each field is bumped together with its
  /// `mpa_serve_*_total` counter, so the two always agree.
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t ok = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t errors = 0;
    std::uint64_t introspected = 0;  ///< kStats/kHealth answered at submit.
  };
  Stats stats() const EXCLUDES(mu_);

  /// Ready (queued, not yet running) requests right now.
  std::size_t queue_depth() const EXCLUDES(mu_);
  int workers() const { return static_cast<int>(workers_.size()); }
  /// The registry terminal responses are recorded into: the options'
  /// window, else the global registry when obs is enabled, else null.
  const obs::WindowRegistry* window() const { return window_; }

 private:
  struct Item {
    Request req;
    std::uint64_t enqueue_ns = 0;
    std::uint64_t deadline_ns = 0;  ///< 0 = no deadline.
  };

  void worker_loop() EXCLUDES(mu_);
  /// Pop the next item round-robin across tenants (FIFO within a
  /// tenant). Returns false when nothing is ready.
  bool pop_next(Item* out) REQUIRES(mu_);
  /// Where a terminal response was produced.
  enum class Origin : std::uint8_t {
    kIntrospection,  ///< Answered at submit by introspector_; not windowed.
    kSubmit,         ///< Expired or rejected at submit; never admitted.
    kWorker,         ///< Dequeued by a worker; frees its admission slot.
  };
  /// The one terminal path, for every response: window record (not for
  /// introspection), completion event, sink, then the Stats field and
  /// obs counter its status names — so the two never disagree. Called
  /// with mu_ released: the sink may run arbitrary user code (lock
  /// ordering, DESIGN.md §12 — no scheduler lock is ever held across
  /// executor_ or sink_).
  void finish(const Response& resp, Origin origin) EXCLUDES(mu_);

  const SchedulerOptions opts_;
  const Executor executor_;
  const Sink sink_;
  const Introspector introspector_;
  obs::WindowRegistry* const window_;  ///< Resolved at construction.

  /// Guards the admission state below and backs both condition
  /// variables. Never held across executor_/sink_ calls.
  mutable Mutex mu_;
  CondVar work_cv_;   ///< Signals ready work / stop.
  CondVar drain_cv_;  ///< Signals active_ reaching 0.
  /// Per-tenant FIFO queues; rr_tenants_ fixes the rotation order
  /// (first-appearance) and rr_cursor_ the next tenant to serve.
  std::map<std::string, std::deque<Item>> queues_ GUARDED_BY(mu_);
  std::vector<std::string> rr_tenants_ GUARDED_BY(mu_);
  std::size_t rr_cursor_ GUARDED_BY(mu_) = 0;
  std::size_t ready_ GUARDED_BY(mu_) = 0;   ///< Queued, not yet picked up.
  std::size_t active_ GUARDED_BY(mu_) = 0;  ///< Admitted and not yet completed.
  bool stop_ GUARDED_BY(mu_) = false;
  Stats stats_ GUARDED_BY(mu_);

  std::vector<std::thread> workers_;
};

}  // namespace mpa::serve
