#include "serve/scheduler.hpp"

#include <limits>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"

namespace mpa::serve {
namespace {

void count(const char* name) {
  if (obs::enabled()) obs::Registry::global().counter(name).add(1);
}

void observe_seconds(const char* name, double seconds) {
  if (obs::enabled()) obs::Registry::global().histogram(name).observe(seconds);
}

double ms_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return t1_ns > t0_ns ? static_cast<double>(t1_ns - t0_ns) * 1e-6 : 0.0;
}

/// The clock reading `ms` (> 0) milliseconds after `now_ns`. A deadline
/// too far out to represent saturates at the clock's maximum, which no
/// dequeue reaches; casting it unchecked would be undefined.
std::uint64_t deadline_after(std::uint64_t now_ns, double ms) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const double ns = ms * 1e6;
  if (!(ns < 0x1p64)) return kMax;  // Also catches inf.
  const auto offset = static_cast<std::uint64_t>(ns);
  return offset > kMax - now_ns ? kMax : now_ns + offset;
}

/// The response envelope every terminal path fills from its request.
Response answer(const Request& req, RequestStatus status, std::string body) {
  Response resp;
  resp.id = req.id;
  resp.tenant = req.tenant;
  resp.session = req.session;
  resp.kind = req.kind;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

/// Structural per-request completion event: id/tenant/kind/status only
/// — no timing, so the canonical event stream stays deterministic.
void log_done(const Response& resp) {
  obs::LogEvent(obs::LogLevel::kInfo, "request_done")
      .u64("id", resp.id)
      .str("tenant", resp.tenant)
      .str("kind", to_string(resp.kind))
      .str("status", to_string(resp.status));
}

}  // namespace

void register_serve_metrics() {
  auto& reg = obs::Registry::global();
  for (const char* name :
       {"mpa_serve_submitted_total", "mpa_serve_admitted_total", "mpa_serve_rejected_total",
        "mpa_serve_completed_total", "mpa_serve_ok_total", "mpa_serve_deadline_miss_total",
        "mpa_serve_error_total", "mpa_serve_introspected_total",
        "mpa_session_manager_opens_total"}) {
    reg.counter(name);
  }
  reg.gauge("mpa_sessions_resident");
  for (const char* name : {"mpa_serve_queue_wait_seconds", "mpa_serve_service_seconds",
                           "mpa_serve_latency_seconds"}) {
    reg.histogram(name);
  }
}

Scheduler::Scheduler(SchedulerOptions opts, Executor executor, Sink sink,
                     Introspector introspector)
    : opts_(opts),
      executor_(std::move(executor)),
      sink_(std::move(sink)),
      introspector_(std::move(introspector)),
      window_(opts.window != nullptr
                  ? opts.window
                  : (obs::enabled() ? &obs::WindowRegistry::global() : nullptr)) {
  if (obs::enabled()) register_serve_metrics();
  const int workers = opts_.workers < 1 ? 1 : opts_.workers;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) workers_.emplace_back([this] { worker_loop(); });
}

Scheduler::~Scheduler() {
  drain();
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool Scheduler::submit(Request req) {
  const std::uint64_t now = obs::now_ns();
  const bool introspection =
      introspector_ && (req.kind == RequestKind::kStats || req.kind == RequestKind::kHealth);
  count("mpa_serve_submitted_total");
  if (introspection) count("mpa_serve_introspected_total");
  const char* reject_reason = nullptr;
  {
    MutexLock lk(mu_);
    ++stats_.submitted;
    if (introspection) {
      ++stats_.introspected;
    } else if (req.deadline_ms < 0) {
      // Already expired at submit: answered below, never enqueued.
    } else if (ready_ >= opts_.max_queue_depth) {
      reject_reason = "queue_full";  // Sink invoked outside the lock, below.
    } else if (active_ >= opts_.max_active_reqs) {
      reject_reason = "max_active_reqs";
    } else {
      Item item;
      item.enqueue_ns = now;
      const double deadline_ms =
          req.deadline_ms > 0 ? req.deadline_ms : opts_.default_deadline_ms;
      if (deadline_ms > 0) item.deadline_ns = deadline_after(now, deadline_ms);
      auto [it, inserted] = queues_.try_emplace(req.tenant);
      if (inserted) rr_tenants_.push_back(req.tenant);
      obs::LogEvent(obs::LogLevel::kDebug, "request_enqueued")
          .u64("id", req.id)
          .str("tenant", req.tenant)
          .str("session", req.session)
          .str("kind", to_string(req.kind));
      item.req = std::move(req);
      it->second.push_back(std::move(item));
      ++ready_;
      ++active_;
      ++stats_.admitted;
      count("mpa_serve_admitted_total");
      work_cv_.notify_one();
      return true;
    }
  }
  if (introspection) {
    // Out-of-band introspection: answered synchronously on the
    // submitting thread, never enqueued, never occupying queue depth —
    // so a saturated daemon still answers "what is going on".
    Response resp = answer(req, RequestStatus::kOk, "");
    try {
      Response answered = introspector_(req);
      resp.status = answered.status;
      resp.body = std::move(answered.body);
    } catch (const std::exception& e) {
      resp.status = RequestStatus::kError;
      resp.body = e.what();
    }
    finish(resp, Origin::kIntrospection);
  } else if (reject_reason == nullptr) {
    // Expired at submit: answered here, never enqueued, so a
    // dead-on-arrival request cannot occupy queue depth or trigger
    // queue_full rejections of live work.
    finish(answer(req, RequestStatus::kDeadlineExceeded, "deadline exceeded at submit"),
           Origin::kSubmit);
  } else {
    // Rejected: answer immediately and explicitly.
    obs::LogEvent(obs::LogLevel::kInfo, "request_rejected")
        .u64("id", req.id)
        .str("tenant", req.tenant)
        .str("kind", to_string(req.kind))
        .str("reason", reject_reason);
    finish(answer(req, RequestStatus::kRejected, std::string("rejected: ") + reject_reason),
           Origin::kSubmit);
  }
  return false;
}

void Scheduler::finish(const Response& resp, Origin origin) {
  // Introspection is observability about the window, not workload in
  // it — deliberately not recorded into the windowed registry.
  if (window_ != nullptr && origin != Origin::kIntrospection)
    window_->record(resp.tenant, to_string(resp.kind), to_string(resp.status), resp.queue_ms,
                    resp.service_ms, resp.total_ms);
  log_done(resp);
  if (sink_) sink_(resp);

  // The Stats field and obs counter each status bumps, in
  // RequestStatus order; every status but a rejection also completes.
  static constexpr std::pair<std::uint64_t Stats::*, const char*> kByStatus[] = {
      {&Stats::ok, "mpa_serve_ok_total"},
      {&Stats::rejected, "mpa_serve_rejected_total"},
      {&Stats::deadline_misses, "mpa_serve_deadline_miss_total"},
      {&Stats::errors, "mpa_serve_error_total"}};
  const auto& [field, counter] = kByStatus[static_cast<std::size_t>(resp.status)];
  const bool completed = resp.status != RequestStatus::kRejected;
  count(counter);
  if (completed) count("mpa_serve_completed_total");
  MutexLock lk(mu_);
  ++(stats_.*field);
  if (completed) ++stats_.completed;
  if (origin == Origin::kWorker) {
    --active_;
    if (active_ == 0) drain_cv_.notify_all();
  }
}

bool Scheduler::pop_next(Item* out) {
  if (ready_ == 0 || rr_tenants_.empty()) return false;
  for (std::size_t probe = 0; probe < rr_tenants_.size(); ++probe) {
    const std::size_t slot = (rr_cursor_ + probe) % rr_tenants_.size();
    std::deque<Item>& q = queues_[rr_tenants_[slot]];
    if (q.empty()) continue;
    *out = std::move(q.front());
    q.pop_front();
    --ready_;
    rr_cursor_ = (slot + 1) % rr_tenants_.size();
    return true;
  }
  return false;
}

void Scheduler::worker_loop() {
  MutexLock lk(mu_);
  while (true) {
    while (!(stop_ || ready_ > 0)) work_cv_.wait(mu_);
    if (stop_ && ready_ == 0) return;  // lk releases on scope exit
    Item item;
    if (!pop_next(&item)) continue;
    lk.unlock();  // never hold mu_ across executor_/sink_

    const std::uint64_t dequeue_ns = obs::now_ns();
    const double queue_ms = ms_between(item.enqueue_ns, dequeue_ns);
    observe_seconds("mpa_serve_queue_wait_seconds", queue_ms * 1e-3);

    // The request context minted at submit, adopted by this worker:
    // every span closed and event logged until the sink returns is
    // tagged with req_id/tenant, and stage timings accumulate for the
    // slow-request exemplar log (the sink reads them via
    // obs::current_request_context()).
    obs::RequestContext ctx;
    ctx.req_id = item.req.id;
    ctx.tenant = item.req.tenant;
    ctx.collect = true;
    obs::ScopedRequestContext scoped(&ctx);

    Response resp = answer(item.req, RequestStatus::kOk, "");
    resp.queue_ms = queue_ms;
    if (item.deadline_ns != 0 && dequeue_ns >= item.deadline_ns) {
      // Expired before dispatch: complete explicitly, never execute,
      // never drop.
      resp.status = RequestStatus::kDeadlineExceeded;
      resp.body = "deadline exceeded before dispatch";
    } else {
      try {
        Response executed = executor_(item.req);
        resp.status = executed.status;
        resp.body = std::move(executed.body);
      } catch (const std::exception& e) {
        resp.status = RequestStatus::kError;
        resp.body = e.what();
      }
      resp.service_ms = ms_between(dequeue_ns, obs::now_ns());
      observe_seconds("mpa_serve_service_seconds", resp.service_ms * 1e-3);
    }
    resp.total_ms = ms_between(item.enqueue_ns, obs::now_ns());
    observe_seconds("mpa_serve_latency_seconds", resp.total_ms * 1e-3);
    finish(resp, Origin::kWorker);
    lk.lock();
  }
}

void Scheduler::drain() {
  MutexLock lk(mu_);
  while (active_ != 0) drain_cv_.wait(mu_);
}

Scheduler::Stats Scheduler::stats() const {
  MutexLock lk(mu_);
  return stats_;
}

std::size_t Scheduler::queue_depth() const {
  MutexLock lk(mu_);
  return ready_;
}

}  // namespace mpa::serve
