// Tests for the serving layer (src/serve/): scheduler admission
// control, deadline expiry, FIFO-within-tenant and round-robin
// fairness across tenants; the request/response wire format; the
// SessionManager registry; thread-safe session stats under concurrent
// readers (run under TSan in CI); and the serve determinism contract —
// a fixed trace replayed on one worker is byte-identical run to run,
// and the (id, kind, status, body) responses plus the canonical event
// stream are identical at 1, 2, and 8 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/session_manager.hpp"
#include "io/dataset_io.hpp"
#include "metrics/practices.hpp"
#include "mutation.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/slow_log.hpp"
#include "simulation/osp_generator.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace mpa::serve {
namespace {

// ---------------------------------------------------------------------------
// Scheduler unit tests: a stub executor, no sessions involved.

/// Manually released barrier the stub executor can park on, so tests
/// control exactly when the worker is busy.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void release() {
    {
      std::lock_guard<std::mutex> lk(mu);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return open; });
  }
};

/// Thread-safe response recorder (completion order preserved).
struct Collector {
  std::mutex mu;
  std::vector<Response> responses;

  Scheduler::Sink sink() {
    return [this](const Response& resp) {
      std::lock_guard<std::mutex> lk(mu);
      responses.push_back(resp);
    };
  }
  std::vector<std::uint64_t> ids() {
    std::lock_guard<std::mutex> lk(mu);
    std::vector<std::uint64_t> out;
    for (const Response& r : responses) out.push_back(r.id);
    return out;
  }
  Response by_id(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(mu);
    for (const Response& r : responses)
      if (r.id == id) return r;
    ADD_FAILURE() << "no response for id " << id;
    return {};
  }
};

Request req_for(std::uint64_t id, const std::string& tenant = "default") {
  Request req;
  req.id = id;
  req.tenant = tenant;
  req.kind = RequestKind::kRank;
  return req;
}

/// Spin until the scheduler's ready queue is empty (the worker picked
/// the request up), bounded so a bug fails rather than hangs.
void wait_until_picked_up(const Scheduler& sched) {
  for (int i = 0; i < 2000 && sched.queue_depth() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(sched.queue_depth(), 0u);
}

TEST(Scheduler, RejectsBeyondMaxActive) {
  Gate gate;
  Collector out;
  SchedulerOptions opts;
  opts.workers = 1;
  opts.max_active_reqs = 2;
  opts.max_queue_depth = 8;
  Scheduler sched(
      opts,
      [&](const Request&) {
        gate.wait();
        Response resp;
        resp.body = "done";
        return resp;
      },
      out.sink());

  EXPECT_TRUE(sched.submit(req_for(1)));
  wait_until_picked_up(sched);  // id 1 running: active=1, ready=0.
  EXPECT_TRUE(sched.submit(req_for(2)));   // active=2, ready=1.
  EXPECT_FALSE(sched.submit(req_for(3)));  // active at cap: rejected.

  // The rejection was answered synchronously, before any completion.
  const Response rejected = out.by_id(3);
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
  EXPECT_NE(rejected.body.find("max_active_reqs"), std::string::npos);

  gate.release();
  sched.drain();
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(out.ids().size(), 3u);  // 2 executed + 1 rejected: none dropped.
}

TEST(Scheduler, RejectsBeyondQueueDepth) {
  Gate gate;
  Collector out;
  SchedulerOptions opts;
  opts.workers = 1;
  opts.max_active_reqs = 8;
  opts.max_queue_depth = 1;
  Scheduler sched(
      opts,
      [&](const Request&) {
        gate.wait();
        return Response{};
      },
      out.sink());

  EXPECT_TRUE(sched.submit(req_for(1)));
  wait_until_picked_up(sched);
  EXPECT_TRUE(sched.submit(req_for(2)));   // ready=1 == depth cap.
  EXPECT_FALSE(sched.submit(req_for(3)));  // queue full: rejected.
  EXPECT_NE(out.by_id(3).body.find("queue_full"), std::string::npos);

  gate.release();
  sched.drain();
  EXPECT_EQ(sched.stats().rejected, 1u);
  EXPECT_EQ(sched.stats().completed, 2u);
}

TEST(Scheduler, ExpiredDeadlineCompletesExplicitly) {
  Gate gate;
  Collector out;
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(
      opts,
      [&](const Request& req) {
        if (req.id == 1) gate.wait();
        return Response{};
      },
      out.sink());

  ASSERT_TRUE(sched.submit(req_for(1)));
  wait_until_picked_up(sched);
  Request hurried = req_for(2);
  hurried.deadline_ms = 5;
  ASSERT_TRUE(sched.submit(std::move(hurried)));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // let it expire queued
  gate.release();
  sched.drain();

  // The expired request still produced its response — with the
  // deadline_exceeded status, never silently dropped.
  const Response late = out.by_id(2);
  EXPECT_EQ(late.status, RequestStatus::kDeadlineExceeded);
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.ok, 1u);
}

TEST(Scheduler, ExpiredAtSubmitAnsweredSynchronously) {
  // Regression: a request whose deadline already expired at submit
  // (deadline_ms < 0) used to fall through to the default-deadline
  // substitution and run as if it had no deadline at all. It must be
  // answered kDeadlineExceeded before submit returns, never executed.
  Collector out;
  std::atomic<int> executed{0};
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(
      opts,
      [&](const Request&) {
        ++executed;
        return Response{};
      },
      out.sink());

  Request dead = req_for(1);
  dead.deadline_ms = -1;
  EXPECT_FALSE(sched.submit(std::move(dead)));
  const Response resp = out.by_id(1);  // already answered, no drain needed
  EXPECT_EQ(resp.status, RequestStatus::kDeadlineExceeded);
  sched.drain();
  EXPECT_EQ(executed.load(), 0);

  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
}

TEST(Scheduler, DeadlineTooFarToRepresentSaturates) {
  // Regression: the ms -> ns conversion cast 1e300 ms straight to
  // uint64_t (undefined behaviour; the request came out expired at
  // dispatch), and 1.8e13 ms wrapped the clock into the past. A deadline
  // past the clock's range now never expires, per request or as the
  // scheduler default.
  for (const double far : {1.8e13, 1e300, std::numeric_limits<double>::infinity()}) {
    for (const bool as_default : {false, true}) {
      Collector out;
      SchedulerOptions opts;
      opts.workers = 1;
      if (as_default) opts.default_deadline_ms = far;
      Scheduler sched(opts, [](const Request&) { return Response{}; }, out.sink());
      Request req = req_for(1);
      if (!as_default) req.deadline_ms = far;
      ASSERT_TRUE(sched.submit(std::move(req)));
      sched.drain();
      EXPECT_EQ(out.by_id(1).status, RequestStatus::kOk)
          << far << " ms" << (as_default ? " (default)" : "");
    }
  }
}

TEST(Scheduler, ExpiredAtSubmitDoesNotOccupyQueueDepth) {
  Gate gate;
  Collector out;
  SchedulerOptions opts;
  opts.workers = 1;
  opts.max_queue_depth = 1;
  Scheduler sched(
      opts,
      [&](const Request& req) {
        if (req.id == 1) gate.wait();
        return Response{};
      },
      out.sink());

  ASSERT_TRUE(sched.submit(req_for(1)));
  wait_until_picked_up(sched);
  Request dead = req_for(2);
  dead.deadline_ms = -1;
  EXPECT_FALSE(sched.submit(std::move(dead)));
  // The dead-on-arrival request left the single queue slot free, so a
  // live request is still admitted instead of rejected queue_full.
  ASSERT_TRUE(sched.submit(req_for(3)));
  gate.release();
  sched.drain();

  EXPECT_EQ(out.by_id(2).status, RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(out.by_id(3).status, RequestStatus::kOk);
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(Scheduler, FifoWithinTenant) {
  Gate gate;
  Collector out;
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(
      opts,
      [&](const Request& req) {
        if (req.id == 1) gate.wait();
        return Response{};
      },
      out.sink());

  ASSERT_TRUE(sched.submit(req_for(1)));
  wait_until_picked_up(sched);
  for (std::uint64_t id = 2; id <= 5; ++id) ASSERT_TRUE(sched.submit(req_for(id)));
  gate.release();
  sched.drain();
  EXPECT_EQ(out.ids(), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(Scheduler, RoundRobinAcrossTenantsUnderSaturation) {
  Gate gate;
  Collector out;
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(
      opts,
      [&](const Request& req) {
        if (req.id == 1) gate.wait();
        return Response{};
      },
      out.sink());

  // Hold the single worker on tenant a's first request, then queue
  // three more per tenant — a's backlog first, so unfair FIFO would
  // finish all of tenant a before tenant b sees service.
  ASSERT_TRUE(sched.submit(req_for(1, "a")));
  wait_until_picked_up(sched);
  for (std::uint64_t id : {2, 3, 4}) ASSERT_TRUE(sched.submit(req_for(id, "a")));
  for (std::uint64_t id : {5, 6, 7}) ASSERT_TRUE(sched.submit(req_for(id, "b")));
  gate.release();
  sched.drain();

  // id 1 was popped while tenant a was the only registered tenant, so
  // the cursor wrapped back to a (id 2); from there the rotation
  // strictly alternates b, a, b, a — tenant b is never starved behind
  // a's earlier backlog.
  EXPECT_EQ(out.ids(), (std::vector<std::uint64_t>{1, 2, 5, 3, 6, 4, 7}));
}

TEST(Scheduler, ConcurrentSubmitStress) {
  Collector out;
  SchedulerOptions opts;
  opts.workers = 4;
  opts.max_active_reqs = 16;
  opts.max_queue_depth = 16;
  std::atomic<std::uint64_t> executed{0};
  {
    Scheduler sched(
        opts,
        [&](const Request&) {
          executed.fetch_add(1, std::memory_order_relaxed);
          return Response{};
        },
        out.sink());

    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t)
      submitters.emplace_back([&sched, t] {
        for (int i = 0; i < 50; ++i) {
          Request req = req_for(static_cast<std::uint64_t>(t) * 50 + i + 1,
                                t % 2 == 0 ? "even" : "odd");
          sched.submit(std::move(req));
        }
      });
    for (std::thread& s : submitters) s.join();
    sched.drain();

    const Scheduler::Stats stats = sched.stats();
    EXPECT_EQ(stats.submitted, 200u);
    EXPECT_EQ(stats.admitted + stats.rejected, 200u);
    EXPECT_EQ(stats.completed, stats.admitted);
    EXPECT_EQ(executed.load(), stats.ok);
  }
  // Every request produced exactly one response through the sink.
  EXPECT_EQ(out.ids().size(), 200u);
}

TEST(Scheduler, IntrospectionAnsweredSynchronouslyUnderSaturatedQueue) {
  Gate gate;
  Collector out;
  SchedulerOptions opts;
  opts.workers = 1;
  opts.max_queue_depth = 1;
  std::atomic<int> executed{0};
  Scheduler sched(
      opts,
      [&](const Request& req) {
        ++executed;
        if (req.id == 1) gate.wait();
        return Response{};
      },
      out.sink(),
      [](const Request&) {
        Response resp;
        resp.status = RequestStatus::kOk;
        resp.body = "introspection";
        return resp;
      });

  ASSERT_TRUE(sched.submit(req_for(1)));
  wait_until_picked_up(sched);            // worker parked on id 1
  ASSERT_TRUE(sched.submit(req_for(2)));  // fills the single queue slot

  // A stats request against the saturated queue is answered before
  // submit returns, without executing and without touching the queue.
  Request stats_req = req_for(3);
  stats_req.kind = RequestKind::kStats;
  EXPECT_FALSE(sched.submit(std::move(stats_req)));
  const Response answered = out.by_id(3);
  EXPECT_EQ(answered.status, RequestStatus::kOk);
  EXPECT_EQ(answered.body, "introspection");
  EXPECT_EQ(answered.kind, RequestKind::kStats);
  EXPECT_EQ(sched.queue_depth(), 1u);  // the slot still belongs to id 2

  // The queue is still full for normal work — introspection neither
  // consumed nor freed capacity.
  EXPECT_FALSE(sched.submit(req_for(4)));
  EXPECT_EQ(out.by_id(4).status, RequestStatus::kRejected);

  Request health = req_for(5);
  health.kind = RequestKind::kHealth;
  EXPECT_FALSE(sched.submit(std::move(health)));
  EXPECT_EQ(out.by_id(5).status, RequestStatus::kOk);

  gate.release();
  sched.drain();
  EXPECT_EQ(executed.load(), 2);
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.introspected, 2u);
  EXPECT_EQ(stats.completed, 4u);  // 2 executed + 2 introspected
  EXPECT_EQ(stats.ok, 4u);
}

TEST(Scheduler, IntrospectorExceptionAnswersError) {
  Collector out;
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(
      opts, [](const Request&) { return Response{}; }, out.sink(),
      [](const Request&) -> Response { throw DataError("introspector broke"); });
  Request req = req_for(1);
  req.kind = RequestKind::kHealth;
  EXPECT_FALSE(sched.submit(std::move(req)));
  const Response resp = out.by_id(1);
  EXPECT_EQ(resp.status, RequestStatus::kError);
  EXPECT_NE(resp.body.find("introspector broke"), std::string::npos);
  EXPECT_EQ(sched.stats().errors, 1u);
  EXPECT_EQ(sched.stats().introspected, 1u);
}

TEST(Scheduler, TerminalResponsesLandInTheInjectedWindow) {
  obs::WindowOptions wopts;
  wopts.buckets = 1;
  wopts.bucket_width_ns = ~std::uint64_t{0} / 2;  // one bucket covers the run
  obs::WindowRegistry window(std::move(wopts));

  Collector out;
  SchedulerOptions opts;
  opts.workers = 1;
  opts.window = &window;
  Scheduler sched(
      opts, [](const Request&) { return Response{}; }, out.sink(),
      [](const Request&) { return Response{}; });

  ASSERT_TRUE(sched.submit(req_for(1, "a")));
  Request dead = req_for(2, "a");
  dead.deadline_ms = -1;
  EXPECT_FALSE(sched.submit(std::move(dead)));
  Request stats_req = req_for(3, "a");
  stats_req.kind = RequestKind::kStats;
  EXPECT_FALSE(sched.submit(std::move(stats_req)));
  sched.drain();

  // Executed + expired land in the window; introspection does not
  // (it is observability about the window, not workload in it).
  EXPECT_EQ(window.canonical_json(),
            "{\"series\":[{\"tenant\":\"a\",\"kind\":\"rank\",\"total\":2,\"ok\":1,"
            "\"rejected\":0,\"deadline_exceeded\":1,\"error\":0}]}");
}

TEST(Scheduler, ServeCountersEqualStatsOnEveryTerminalPath) {
  obs::set_enabled(true);
  obs::Registry::global().reset_values();
  Gate gate;
  Collector out;
  obs::WindowRegistry window;
  SchedulerOptions opts;
  opts.workers = 1;
  opts.max_queue_depth = 1;
  opts.window = &window;
  {
    Scheduler sched(
        opts,
        [&](const Request& req) {
          if (req.id == 1) gate.wait();
          if (req.id == 2) throw DataError("executor broke");
          return Response{};
        },
        out.sink(),
        [](const Request&) {
          Response resp;
          resp.body = "introspection";
          return resp;
        });
    ASSERT_TRUE(sched.submit(req_for(1)));  // ok, once the gate opens
    wait_until_picked_up(sched);
    ASSERT_TRUE(sched.submit(req_for(2)));   // error
    EXPECT_FALSE(sched.submit(req_for(3)));  // rejected: queue full
    Request dead = req_for(4);
    dead.deadline_ms = -1;
    EXPECT_FALSE(sched.submit(std::move(dead)));  // expired at submit
    for (std::uint64_t id : {5, 6}) {
      Request introspect = req_for(id);
      introspect.kind = id == 5 ? RequestKind::kStats : RequestKind::kHealth;
      EXPECT_FALSE(sched.submit(std::move(introspect)));
    }
    gate.release();
    sched.drain();

    const Scheduler::Stats stats = sched.stats();
    EXPECT_EQ(stats.ok, 3u);  // id 1 and both introspection answers
    auto counters = obs::Registry::global().counters_snapshot();
    const std::pair<const char*, std::uint64_t> expected[] = {
        {"mpa_serve_submitted_total", stats.submitted},
        {"mpa_serve_admitted_total", stats.admitted},
        {"mpa_serve_rejected_total", stats.rejected},
        {"mpa_serve_completed_total", stats.completed},
        {"mpa_serve_ok_total", stats.ok},
        {"mpa_serve_deadline_miss_total", stats.deadline_misses},
        {"mpa_serve_error_total", stats.errors},
        {"mpa_serve_introspected_total", stats.introspected}};
    for (const auto& [name, value] : expected) {
      EXPECT_GT(value, 0u) << name;
      EXPECT_EQ(counters[name], value) << name;
    }
  }
  obs::set_enabled(false);
  obs::Registry::global().reset_values();
}

// ---------------------------------------------------------------------------
// Slow-request exemplar log.

TEST(SlowLog, KeepsWorstByTotalAndCanonicalSortsById) {
  SlowLog log(2);  // keeps two entries: worst() below
  SlowLog::Entry e;
  e.tenant = "a";
  e.kind = "rank";
  e.status = "ok";
  e.id = 1;
  e.total_ms = 5;
  log.record(e);
  e.id = 2;
  e.total_ms = 9;
  e.stages = {{"serve/rank", 8.5}};
  log.record(e);
  e.id = 3;
  e.total_ms = 1;
  e.stages.clear();
  log.record(e);  // evicted: fastest of the three

  const std::vector<SlowLog::Entry> worst = log.worst();
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].id, 2u);  // worst first
  EXPECT_EQ(worst[1].id, 1u);

  const JsonValue timed = parse_json(log.to_json());
  ASSERT_EQ(timed.as_array().size(), 2u);
  EXPECT_EQ(timed.as_array()[0].at("id").as_u64(), 2u);
  EXPECT_EQ(timed.as_array()[0].at("stages").as_array()[0].at("path").as_string(),
            "serve/rank");

  // The identity form strips every timing and sorts by id.
  EXPECT_EQ(log.canonical_json(),
            "[{\"id\":1,\"tenant\":\"a\",\"kind\":\"rank\",\"status\":\"ok\"},"
            "{\"id\":2,\"tenant\":\"a\",\"kind\":\"rank\",\"status\":\"ok\"}]");
}

// ---------------------------------------------------------------------------
// Wire format.

TEST(RequestWire, RoundTripsThroughJson) {
  for (double deadline_ms : {250.0, 1234.5678}) {
    Request req;
    req.id = 42;
    req.tenant = "team-x";
    req.session = "prod";
    req.kind = RequestKind::kCausal;
    req.practice = "No. of devices";
    req.deadline_ms = deadline_ms;

    const std::string json = req.to_json();
    const Request back = Request::from_json(parse_json(json));
    EXPECT_EQ(back.to_json(), json);
    EXPECT_EQ(back.id, 42u);
    EXPECT_EQ(back.kind, RequestKind::kCausal);
    EXPECT_EQ(back.practice, "No. of devices");
    EXPECT_DOUBLE_EQ(back.deadline_ms, deadline_ms);
    // A saved trace replays the deadline it was given, not a rounding.
    const std::vector<Request> replayed = trace_from_jsonl(trace_to_jsonl({req}));
    ASSERT_EQ(replayed.size(), 1u);
    EXPECT_EQ(replayed[0].deadline_ms, deadline_ms);
  }
}

TEST(RequestWire, IngestKindAndNegativeDeadlineRoundTrip) {
  Request req;
  req.id = 9;
  req.kind = RequestKind::kIngest;
  req.dir = "/data/delta-3";
  // Negative = expired at submit; must survive a trace round trip so
  // replays reproduce the synchronous deadline answer.
  req.deadline_ms = -1;
  const std::string json = req.to_json();
  const Request back = Request::from_json(parse_json(json));
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(back.kind, RequestKind::kIngest);
  EXPECT_EQ(back.dir, "/data/delta-3");
  EXPECT_DOUBLE_EQ(back.deadline_ms, -1);
}

TEST(RequestWire, IntrospectionKindsRoundTrip) {
  for (RequestKind kind : {RequestKind::kStats, RequestKind::kHealth}) {
    Request req;
    req.id = 3;
    req.tenant = "ops";
    req.kind = kind;
    const std::string json = req.to_json();
    const Request back = Request::from_json(parse_json(json));
    EXPECT_EQ(back.to_json(), json);
    EXPECT_EQ(back.kind, kind);
  }
  RequestKind parsed = RequestKind::kCaseTable;
  ASSERT_TRUE(parse_request_kind("stats", &parsed));
  EXPECT_EQ(parsed, RequestKind::kStats);
  ASSERT_TRUE(parse_request_kind("health", &parsed));
  EXPECT_EQ(parsed, RequestKind::kHealth);
}

TEST(RequestWire, RejectsUnknownFieldsAndKinds) {
  EXPECT_THROW(Request::from_json(parse_json(R"({"kind":"rank","bogus":1})")), DataError);
  EXPECT_THROW(Request::from_json(parse_json(R"({"kind":"frobnicate"})")), DataError);
  EXPECT_THROW(Request::from_json(parse_json(R"([1,2])")), DataError);
}

TEST(RequestWire, IntegerFieldsMustBeIntegralAndWithinInt) {
  // Regression: the double was cast straight to int, so 1e300 was
  // undefined behaviour and 2.7 silently became 2.
  for (const char* bad : {"1e300", "2.7", "-2147483649", "2147483648", "\"3\"", "null"}) {
    const std::string line = std::string(R"({"kind":"rank","top_k":)") + bad + "}";
    try {
      Request::from_json(parse_json(line));
      ADD_FAILURE() << line << " parsed";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("top_k"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(Request::from_json(parse_json(R"({"kind":"rank","top_k":2147483647})")).top_k,
            2147483647);
  EXPECT_EQ(Request::from_json(parse_json(R"({"kind":"rank","top_k":-2147483648})")).top_k,
            -2147483647 - 1);
  EXPECT_EQ(Request::from_json(parse_json(R"({"kind":"predict","classes":5.0})")).classes, 5);
}

TEST(RequestWire, InfiniteDeadlineIsRefused) {
  // Regression: strtod read 1e999 as infinity, so the daemon answered
  // the request "ok" under a deadline that never came.
  for (const char* bad : {"1e999", "-1e999"}) {
    const std::string line = std::string(R"({"id":1,"kind":"rank","deadline_ms":)") + bad + "}";
    EXPECT_THROW(Request::from_json(parse_json(line)), DataError) << bad;
  }
  const std::string far = R"({"id":1,"kind":"rank","deadline_ms":1e300})";
  EXPECT_DOUBLE_EQ(Request::from_json(parse_json(far)).deadline_ms, 1e300);
}

TEST(RequestWire, StringFieldsNameThemselves) {
  // Regression: a mistyped string field was logged as the bare "json:
  // expected string, got number", naming no field.
  for (const auto& [line, field] :
       std::vector<std::pair<std::string, std::string>>{
           {R"({"id":1,"kind":"rank","tenant":5})", "request: tenant:"},
           {R"({"id":3,"kind":7})", "request: kind:"},
           {R"({"id":4,"kind":"causal","practice":["x"]})", "request: practice:"}}) {
    try {
      Request::from_json(parse_json(line));
      ADD_FAILURE() << line << " parsed";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
}

TEST(RequestWire, IdMustBeAnUnsigned64BitInteger) {
  // Regression: id -1 was read as 18446744073709551615.
  for (const char* bad : {"-1", "18446744073709551616", "1.5"})
    EXPECT_THROW(
        Request::from_json(parse_json(std::string(R"({"kind":"stats","id":)") + bad + "}")),
        DataError)
        << bad;
  EXPECT_EQ(Request::from_json(parse_json(R"({"kind":"stats","id":18446744073709551615})")).id,
            18446744073709551615ULL);
}

TEST(RequestWire, FuzzMutantsParseOrRaiseDataError) {
  // Seeded mutants of one request line per kind, spliced with donors
  // that hold the values that used to crash the daemon or wrap: a huge
  // number, a negative id, a fraction, an int overflow, and a run of
  // '[' far deeper than kMaxJsonDepth.
  std::vector<std::string> lines;
  for (RequestKind kind : {RequestKind::kCaseTable, RequestKind::kRank, RequestKind::kCausal,
                           RequestKind::kLint, RequestKind::kPredict, RequestKind::kIngest,
                           RequestKind::kStats, RequestKind::kHealth}) {
    Request req;
    req.id = 7;
    req.kind = kind;
    req.month_from = 0;
    req.practice = "No. of devices";
    req.min_severity = "warning";
    req.dir = "/data/delta-3";
    req.deadline_ms = 250;
    lines.push_back(req.to_json());
  }
  const std::vector<std::string> donors = {
      R"({"id":1,"kind":"rank","top_k":1e300,"deadline_ms":1e300})",
      R"({"id":-1,"kind":"predict","classes":2.7,"history":99999999999})",
      std::string(100000, '['),
  };
  Rng rng(fuzz_seed(24));
  const auto pick = [&](const std::vector<std::string>& from) -> const std::string& {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string& line = pick(lines);
    const std::string mutant = mutate(line, pick(donors), rng);
    try {
      Request::from_json(parse_json(mutant));
      ++parsed;
    } catch (const DataError&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(RequestWire, TraceParseReportsLineNumbers) {
  const std::string trace = "{\"id\":1,\"kind\":\"rank\"}\n\n{\"id\":2,\"kind\":\"nope\"}\n";
  try {
    trace_from_jsonl(trace);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(ResponseWire, DeterministicFormExcludesTiming) {
  Response resp;
  resp.id = 7;
  resp.kind = RequestKind::kLint;
  resp.status = RequestStatus::kOk;
  resp.body = "clean";
  resp.total_ms = 12.5;
  EXPECT_EQ(resp.to_json(false), R"({"id":7,"kind":"lint","status":"ok","body":"clean"})");
  EXPECT_NE(resp.to_json(true).find("total_ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine-side: SessionManager and thread-safe session stats.

constexpr int kNetworks = 16;
constexpr int kMonths = 4;

AnalysisSession small_session(int threads = 1) {
  OspOptions opts;
  opts.num_networks = kNetworks;
  opts.num_months = kMonths;
  opts.seed = 5;
  OspDataset data = generate_osp(opts);
  SessionOptions sopts;
  sopts.threads = threads;
  sopts.inference.num_months = kMonths;
  return AnalysisSession(std::move(data.inventory), std::move(data.snapshots),
                         std::move(data.tickets), std::move(sopts));
}

TEST(SessionManager, RegistryContract) {
  SessionManager mgr;
  mgr.open("beta", small_session());
  mgr.open("alpha", small_session());
  EXPECT_THROW(mgr.open("alpha", small_session()), DataError);
  EXPECT_THROW(mgr.open("", small_session()), DataError);

  EXPECT_EQ(mgr.keys(), (std::vector<std::string>{"alpha", "beta"}));

  const std::size_t cases =
      mgr.with_session("alpha", [](AnalysisSession& s) { return s.case_table().size(); });
  EXPECT_EQ(cases, static_cast<std::size_t>(kNetworks * kMonths));
  EXPECT_THROW(mgr.with_session("nope", [](AnalysisSession&) { return 0; }), DataError);
}

TEST(SessionStats, SafeUnderConcurrentReaders) {
  constexpr std::array kPractices{Practice::kNumDevices, Practice::kNumChangeEvents,
                                  Practice::kNumVlans, Practice::kFracChangesAutomated,
                                  Practice::kIntraDeviceComplexity, Practice::kLintIssues};
  AnalysisSession session = small_session(2);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t)
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const AnalysisSession::CacheStats snap = session.stats();
        EXPECT_LE(snap.table_builds, 1u);
        EXPECT_LE(snap.causal_runs, kPractices.size());
        EXPECT_LE(session.manifest().stages.size(), 3 * kPractices.size() + 2);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Each practice's QED is one computed stage (after a case-table memo
  // hit) and its repeat a memo hit, recorded while the readers snapshot
  // the same record.
  session.dependence();
  for (const Practice p : kPractices) {
    session.causal(p);
    session.causal(p);
  }
  done = true;
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(session.stats().table_builds, 1u);
  EXPECT_EQ(session.stats().causal_runs, kPractices.size());
  EXPECT_EQ(session.manifest().stages.size(), 3 * kPractices.size() + 2);
  EXPECT_GT(reads.load(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: server + fixed trace.

ServerOptions two_session_opts(int workers) {
  ServerOptions opts;
  opts.scheduler.workers = workers;
  opts.scheduler.max_active_reqs = 64;
  opts.scheduler.max_queue_depth = 64;
  return opts;
}

std::unique_ptr<AnalysisServer> two_session_server(int workers) {
  auto server = std::make_unique<AnalysisServer>(two_session_opts(workers));
  server->sessions().open("s1", small_session());
  server->sessions().open("s2", small_session());
  return server;
}

/// A fixed mixed-kind trace over two sessions, with repeats so memoized
/// stages get exercised. No deadlines and ample admission headroom, so
/// every status is deterministic.
std::vector<Request> fixed_trace() {
  std::vector<Request> trace;
  auto add = [&trace](RequestKind kind, const char* session, const char* tenant) -> Request& {
    Request req;
    req.id = trace.size() + 1;
    req.kind = kind;
    req.session = session;
    req.tenant = tenant;
    trace.push_back(std::move(req));
    return trace.back();
  };
  Request& slice = add(RequestKind::kCaseTable, "s1", "a");
  slice.month_from = 0;
  slice.month_to = 2;
  add(RequestKind::kRank, "s2", "b").top_k = 5;
  add(RequestKind::kLint, "s1", "a").min_severity = "warning";
  add(RequestKind::kCausal, "s2", "b").practice =
      std::string(practice_name(Practice::kNumDevices));
  Request& predict = add(RequestKind::kPredict, "s1", "a");
  predict.classes = 2;
  predict.history = 2;
  add(RequestKind::kCaseTable, "s2", "b");
  add(RequestKind::kRank, "s1", "a").top_k = 5;
  add(RequestKind::kLint, "s2", "b");
  Request& narrow = add(RequestKind::kCaseTable, "s1", "b");
  narrow.month_from = 1;
  narrow.month_to = 1;
  add(RequestKind::kRank, "s2", "a").top_k = 3;  // memoized dependence on s2
  return trace;
}

/// Replay the fixed trace and return the deterministic response JSONL
/// (sorted by id, no timing fields).
std::string replay_fixed_trace(int workers) {
  const std::unique_ptr<AnalysisServer> server = two_session_server(workers);
  for (const Request& req : fixed_trace()) server->submit(req);
  server->drain();
  std::string out;
  for (const Response& resp : server->responses()) {
    EXPECT_EQ(resp.status, RequestStatus::kOk) << "id " << resp.id << ": " << resp.body;
    out += resp.to_json(false);
    out += '\n';
  }
  return out;
}

TEST(ServeDeterminism, SingleWorkerReplayIsByteIdentical) {
  const std::string first = replay_fixed_trace(1);
  const std::string second = replay_fixed_trace(1);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ServeDeterminism, ResponsesAndEventStreamStableAcrossWorkerCounts) {
  obs::Logger::global().clear();
  obs::set_log_enabled(true);

  std::vector<std::string> responses;
  std::vector<std::string> canonical;
  for (int workers : {1, 2, 8}) {
    obs::Logger::global().clear();
    responses.push_back(replay_fixed_trace(workers));
    canonical.push_back(obs::Logger::global().canonical_jsonl());
  }
  obs::set_log_enabled(false);
  obs::Logger::global().clear();

  EXPECT_EQ(responses[0], responses[1]);
  EXPECT_EQ(responses[0], responses[2]);
  // The canonical (timestamp-free, content-sorted) event stream is
  // structural only — identical multiset of request/stage events no
  // matter how execution interleaved.
  EXPECT_FALSE(canonical[0].empty());
  EXPECT_EQ(canonical[0], canonical[1]);
  EXPECT_EQ(canonical[0], canonical[2]);
}

TEST(ServeDeterminism, WindowedCanonicalSnapshotStableAcrossWorkerCounts) {
  std::vector<std::string> canonical;
  for (int workers : {1, 2, 8}) {
    // One bucket wide enough to cover the whole replay, so which epoch
    // a response lands in cannot depend on scheduling.
    obs::WindowOptions wopts;
    wopts.buckets = 1;
    wopts.bucket_width_ns = ~std::uint64_t{0} / 2;
    obs::WindowRegistry window(std::move(wopts));
    ServerOptions opts = two_session_opts(workers);
    opts.scheduler.window = &window;
    AnalysisServer server(opts);
    server.sessions().open("s1", small_session());
    server.sessions().open("s2", small_session());
    for (const Request& req : fixed_trace()) server.submit(req);
    server.drain();
    canonical.push_back(window.canonical_json());
  }
  EXPECT_NE(canonical[0].find("\"tenant\":\"a\""), std::string::npos);
  EXPECT_NE(canonical[0].find("\"tenant\":\"b\""), std::string::npos);
  EXPECT_EQ(canonical[0], canonical[1]);
  EXPECT_EQ(canonical[0], canonical[2]);
}

TEST(ServeDeterminism, SlowLogCanonicalStableAcrossWorkerCounts) {
  std::vector<std::string> canonical;
  for (int workers : {1, 2, 8}) {
    // Capacity >= trace size: which entries are *kept* is then not
    // timing-dependent, and the id-sorted identity form is invariant.
    ServerOptions opts = two_session_opts(workers);
    opts.slow_log_entries = 64;
    AnalysisServer server(opts);
    server.sessions().open("s1", small_session());
    server.sessions().open("s2", small_session());
    for (const Request& req : fixed_trace()) server.submit(req);
    server.drain();
    canonical.push_back(server.slow_log().canonical_json());
  }
  EXPECT_NE(canonical[0].find("\"id\":1,"), std::string::npos);
  EXPECT_NE(canonical[0].find("\"id\":10,"), std::string::npos);
  EXPECT_EQ(canonical[0], canonical[1]);
  EXPECT_EQ(canonical[0], canonical[2]);
}

TEST(Server, StatsAndHealthAnsweredWithIntrospectionBodies) {
  AnalysisServer server(two_session_opts(1));
  server.sessions().open("s1", small_session());
  Request work;
  work.session = "s1";
  work.kind = RequestKind::kRank;
  ASSERT_EQ(server.submit_and_wait(std::move(work)).status, RequestStatus::kOk);
  // submit_and_wait returns on the sink call, which precedes the
  // worker's stats bump; drain() orders the bump before the reads below.
  server.drain();

  Request health;
  health.kind = RequestKind::kHealth;
  const Response h = server.submit_and_wait(std::move(health));
  ASSERT_EQ(h.status, RequestStatus::kOk) << h.body;
  const JsonValue hdoc = parse_json(h.body);
  EXPECT_EQ(hdoc.at("status").as_string(), "ok");
  EXPECT_EQ(hdoc.at("sessions").as_u64(), 1u);
  EXPECT_EQ(hdoc.at("workers").as_u64(), 1u);

  Request stats_req;
  stats_req.kind = RequestKind::kStats;
  const Response s = server.submit_and_wait(std::move(stats_req));
  ASSERT_EQ(s.status, RequestStatus::kOk) << s.body;
  const JsonValue sdoc = parse_json(s.body);
  EXPECT_EQ(sdoc.at("stats").at("submitted").as_u64(), 3u);
  EXPECT_EQ(sdoc.at("stats").at("introspected").as_u64(), 2u);
  // The stats request's own ok bump lands after the introspector
  // returns, so the body sees the work + health successes only.
  EXPECT_EQ(sdoc.at("stats").at("ok").as_u64(), 2u);
  ASSERT_EQ(sdoc.at("sessions").as_array().size(), 1u);
  EXPECT_EQ(sdoc.at("sessions").as_array()[0].as_string(), "s1");
  // No window configured (observability off, nothing injected).
  EXPECT_EQ(sdoc.at("window").type(), JsonValue::Type::kNull);
  // The executed rank request is the slow log's only entry.
  ASSERT_EQ(sdoc.at("slow").as_array().size(), 1u);
  EXPECT_EQ(sdoc.at("slow").as_array()[0].at("kind").as_string(), "rank");
  EXPECT_EQ(server.stats().introspected, 2u);
}

TEST(Server, StatsBodyEmbedsInjectedWindowSnapshot) {
  obs::WindowOptions wopts;
  wopts.buckets = 1;
  wopts.bucket_width_ns = ~std::uint64_t{0} / 2;
  obs::WindowRegistry window(std::move(wopts));
  ServerOptions opts = two_session_opts(1);
  opts.scheduler.window = &window;
  AnalysisServer server(opts);
  server.sessions().open("s1", small_session());

  Request work;
  work.session = "s1";
  work.tenant = "acme";
  work.kind = RequestKind::kLint;
  ASSERT_EQ(server.submit_and_wait(std::move(work)).status, RequestStatus::kOk);

  Request stats_req;
  stats_req.kind = RequestKind::kStats;
  const Response s = server.submit_and_wait(std::move(stats_req));
  const JsonValue sdoc = parse_json(s.body);
  const JsonValue& win = sdoc.at("window");
  ASSERT_TRUE(win.is_object());
  ASSERT_EQ(win.at("series").as_array().size(), 1u);
  EXPECT_EQ(win.at("series").as_array()[0].at("tenant").as_string(), "acme");
  EXPECT_EQ(win.at("series").as_array()[0].at("kind").as_string(), "lint");
  EXPECT_EQ(win.at("series").as_array()[0].at("ok").as_u64(), 1u);
  // The server recorded into the injected window itself.
  const JsonValue own = parse_json(window.to_json());
  ASSERT_EQ(own.at("series").as_array().size(), 1u);
  EXPECT_EQ(own.at("series").as_array()[0].at("tenant").as_string(), "acme");
}

TEST(Server, SlowLogCapturesStageBreakdownWhenTracingEnabled) {
  obs::set_enabled(true);
  obs::Tracer::global().clear();
  {
    ServerOptions opts = two_session_opts(1);
    opts.slow_log_entries = 4;
    AnalysisServer server(opts);
    server.sessions().open("s1", small_session());
    Request work;
    work.session = "s1";
    work.kind = RequestKind::kRank;
    ASSERT_EQ(server.submit_and_wait(std::move(work)).status, RequestStatus::kOk);

    const std::vector<SlowLog::Entry> worst = server.slow_log().worst();
    ASSERT_EQ(worst.size(), 1u);
    EXPECT_EQ(worst[0].id, 1u);
    EXPECT_EQ(worst[0].kind, "rank");
    EXPECT_EQ(worst[0].status, "ok");
    EXPECT_GE(worst[0].total_ms, worst[0].service_ms);
    // The request's spans were collected as its stage breakdown; the
    // serve-layer stage is always present (plus the engine stages the
    // first rank computed: case_table, dependence).
    bool has_serve_stage = false;
    for (const auto& [path, ms] : worst[0].stages) {
      if (path == "serve/rank") has_serve_stage = true;
      EXPECT_GE(ms, 0.0) << path;
    }
    EXPECT_TRUE(has_serve_stage);
  }
  obs::set_enabled(false);
  obs::Tracer::global().clear();
  obs::Registry::global().reset_values();
}

/// The records of a JSON or JSONL export as a strict reader sees them:
/// split at the LF ending each record, with no other raw byte below
/// 0x20 (a strict reader rejects one inside a string), each parsed.
std::vector<JsonValue> strict_records(const std::string& what, const std::string& text) {
  std::vector<JsonValue> out;
  for (const std::string_view line : split_views(text, '\n')) {
    if (line.empty()) continue;
    EXPECT_EQ(std::count_if(line.begin(), line.end(),
                            [](char c) { return static_cast<unsigned char>(c) < 0x20; }),
              0)
        << what << ": " << line;
    out.push_back(parse_json(line));
  }
  EXPECT_FALSE(out.empty()) << what;
  return out;
}

TEST(Server, HostileTenantSurvivesEveryExport) {
  // The tenant is outside bytes copied into every export: a quote, a
  // backslash and two control characters.
  const std::string tenant = "a\"b\\c\td\x01";
  obs::set_enabled(true);
  obs::set_log_enabled(true);
  obs::Tracer::global().clear();
  obs::Logger::global().clear();
  obs::Registry::global().reset_values();
  {
    obs::WindowOptions wopts;
    wopts.buckets = 1;
    wopts.clock = [] { return std::uint64_t{0}; };  // logical clock: one epoch
    obs::WindowRegistry window(std::move(wopts));
    ServerOptions opts = two_session_opts(1);
    opts.scheduler.window = &window;
    AnalysisServer server(opts);
    server.sessions().open("s1", small_session());
    Request work;
    work.session = "s1";
    work.tenant = tenant;
    work.kind = RequestKind::kRank;
    const Response done = server.submit_and_wait(work);
    ASSERT_EQ(done.status, RequestStatus::kOk) << done.body;
    server.drain();
    Request stats_req;
    stats_req.tenant = tenant;
    stats_req.kind = RequestKind::kStats;
    const Response stats = server.submit_and_wait(stats_req);
    ASSERT_EQ(stats.status, RequestStatus::kOk) << stats.body;

    strict_records("registry", obs::Registry::global().to_json());
    // Every export that carries the tenant, and where it sits.
    std::vector<std::pair<std::string, std::string>> tenants;
    auto collect = [&tenants](const std::string& what, const JsonValue* v) {
      if (v != nullptr) tenants.emplace_back(what, v->as_string());
    };
    const JsonValue spans = strict_records("tracer", obs::Tracer::global().to_json()).front();
    for (const JsonValue& span : spans.at("spans").as_array())
      collect("tracer", span.find("tenant"));
    const JsonValue chrome =
        strict_records("chrome", obs::chrome_trace_json(obs::Tracer::global().snapshot()))
            .front();
    for (const JsonValue& e : chrome.at("traceEvents").as_array())
      collect("chrome", e.at("args").find("tenant"));
    collect("window", &strict_records("window", window.to_json())
                           .front().at("series").as_array().at(0).at("tenant"));
    collect("window canonical", &strict_records("window canonical", window.canonical_json())
                                     .front().at("series").as_array().at(0).at("tenant"));
    for (const std::string& log : {obs::Logger::global().to_jsonl(),
                                  obs::Logger::global().canonical_jsonl()})
      for (const JsonValue& rec : strict_records("event log", log)) {
        collect("event log context", rec.find("tenant"));
        collect("event log field", rec.at("fields").find("tenant"));
      }
    for (const Response* resp : {&done, &stats})
      collect("response", &strict_records("response", resp->to_json(true)).front().at("tenant"));
    collect("slow log", &strict_records("slow log", server.slow_log().to_json())
                             .front().as_array().at(0).at("tenant"));
    collect("slow log canonical", &strict_records("slow log canonical",
                                                  server.slow_log().canonical_json())
                                       .front().as_array().at(0).at("tenant"));
    const JsonValue body = strict_records("stats body", stats.body).front();
    collect("stats body slow", &body.at("slow").as_array().at(0).at("tenant"));
    collect("stats body window",
            &body.at("window").at("series").as_array().at(0).at("tenant"));
    const std::string slo = compute_slo(server.responses(), 1e9, 0, 0).to_json();
    collect("slo", &strict_records("slo", slo).front().at("tenants").as_array().at(0).at("tenant"));

    std::set<std::string> seen;
    for (const auto& [what, value] : tenants) {
      EXPECT_EQ(value, tenant) << what;
      seen.insert(what);
    }
    EXPECT_EQ(seen.size(), 12u);

    // Prometheus label values escape only backslash, quote and LF.
    EXPECT_NE(window.to_prometheus().find("tenant=\"a\\\"b\\\\c\td\x01\""), std::string::npos)
        << window.to_prometheus();
  }
  obs::set_enabled(false);
  obs::set_log_enabled(false);
  obs::Tracer::global().clear();
  obs::Logger::global().clear();
  obs::Registry::global().reset_values();
}

TEST(Server, UnknownSessionKeyAnswersWithError) {
  AnalysisServer server(two_session_opts(1));
  server.sessions().open("s1", small_session());
  Request req;
  req.session = "missing";
  req.kind = RequestKind::kRank;
  const Response resp = server.submit_and_wait(std::move(req));
  EXPECT_EQ(resp.status, RequestStatus::kError);
  EXPECT_NE(resp.body.find("unknown session"), std::string::npos);
}

TEST(Server, UnknownPracticeAnswersErrorWithTheSharedLookupMessage) {
  std::string want;
  try {
    practice_from_name("No. of ponies");
  } catch (const DataError& e) {
    want = e.what();
  }
  EXPECT_NE(want.find("'No. of ponies'"), std::string::npos) << want;
  EXPECT_NE(want.find("No. of change events"), std::string::npos) << want;

  AnalysisServer server(two_session_opts(1));
  server.sessions().open("main", small_session());
  Request req;
  req.kind = RequestKind::kCausal;
  req.practice = "No. of ponies";
  const Response resp = server.submit_and_wait(std::move(req));
  EXPECT_EQ(resp.status, RequestStatus::kError);
  EXPECT_EQ(resp.body, want);
}

TEST(Server, AssignsIdsAndRecordsEveryResponse) {
  AnalysisServer server(two_session_opts(2));
  server.sessions().open("main", small_session());
  Request req;
  req.session = "main";
  req.kind = RequestKind::kCaseTable;
  const std::uint64_t id1 = server.submit(req);
  const std::uint64_t id2 = server.submit(req);
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id2, id1);
  server.drain();
  EXPECT_EQ(server.responses().size(), 2u);
  server.clear_responses();
  EXPECT_TRUE(server.responses().empty());
}

TEST(Server, IngestRequestAppendsMonthAndServesMergedArtifacts) {
  namespace fs = std::filesystem;
  OspOptions gopts;
  gopts.num_networks = kNetworks;
  gopts.num_months = kMonths;
  gopts.seed = 5;
  OspDataset data = generate_osp(gopts);
  const SplitDataset split =
      split_dataset(DiskDataset{std::move(data.inventory), std::move(data.snapshots),
                                std::move(data.tickets)},
                    kMonths - 1);
  ASSERT_EQ(split.deltas.size(), 1u);
  const fs::path delta_dir =
      fs::temp_directory_path() / ("mpa_serve_ingest_" + std::to_string(::getpid()));
  fs::remove_all(delta_dir);
  save_month_delta(split.deltas.front(), delta_dir.string());

  AnalysisServer server(two_session_opts(1));
  SessionOptions sopts;
  sopts.threads = 1;
  sopts.inference.num_months = kMonths - 1;
  server.sessions().open("main", AnalysisSession(split.base.inventory, split.base.snapshots,
                                                 split.base.tickets, std::move(sopts)));

  Request ingest;
  ingest.session = "main";
  ingest.kind = RequestKind::kIngest;
  ingest.dir = delta_dir.string();
  const Response resp = server.submit_and_wait(ingest);
  EXPECT_EQ(resp.status, RequestStatus::kOk) << resp.body;
  EXPECT_NE(resp.body.find("appended month " + std::to_string(kMonths - 1)),
            std::string::npos)
      << resp.body;

  // Re-ingesting the same month is out of order by name.
  Request again = ingest;
  again.id = 0;
  const Response dup = server.submit_and_wait(std::move(again));
  EXPECT_EQ(dup.status, RequestStatus::kError);
  EXPECT_NE(dup.body.find("out-of-order month"), std::string::npos) << dup.body;

  // The served case table now matches a from-scratch session over the
  // merged (base + delta) containers, byte for byte.
  SnapshotStore merged_snaps = split.base.snapshots;
  TicketLog merged_tickets = split.base.tickets;
  for (const auto& s : split.deltas.front().snapshots) merged_snaps.add(s);
  for (const auto& t : split.deltas.front().tickets) merged_tickets.add(t);
  SessionOptions oopts;
  oopts.threads = 1;
  oopts.inference.num_months = kMonths;
  AnalysisSession oracle(split.base.inventory, std::move(merged_snaps),
                         std::move(merged_tickets), std::move(oopts));

  Request slice;
  slice.session = "main";
  slice.kind = RequestKind::kCaseTable;
  const Response table = server.submit_and_wait(std::move(slice));
  EXPECT_EQ(table.status, RequestStatus::kOk) << table.body;
  EXPECT_EQ(table.body, oracle.case_table().to_csv());

  // A missing dir is a per-request error, not a crash.
  Request missing;
  missing.session = "main";
  missing.kind = RequestKind::kIngest;
  missing.dir = (delta_dir / "nope").string();
  EXPECT_EQ(server.submit_and_wait(std::move(missing)).status, RequestStatus::kError);
  Request nodir;
  nodir.session = "main";
  nodir.kind = RequestKind::kIngest;
  EXPECT_EQ(server.submit_and_wait(std::move(nodir)).status, RequestStatus::kError);

  fs::remove_all(delta_dir);
}

// ---------------------------------------------------------------------------
// Synthetic client.

TEST(Client, SynthesizedTraceIsDeterministicPerSeed) {
  ClientOptions opts;
  opts.request_total_cnt = 40;
  opts.seed = 11;
  opts.tenants = {"t0", "t1", "t2"};
  const std::vector<Request> a = synthesize_trace(opts);
  const std::vector<Request> b = synthesize_trace(opts);
  ASSERT_EQ(a.size(), 40u);
  EXPECT_EQ(trace_to_jsonl(a), trace_to_jsonl(b));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, i + 1);

  opts.seed = 12;
  EXPECT_NE(trace_to_jsonl(a), trace_to_jsonl(synthesize_trace(opts)));
}

/// Six requests of one kind against session "main", ids first_id
/// onward.
std::vector<Request> trace_of(RequestKind kind, std::uint64_t first_id) {
  std::vector<Request> trace(6);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = first_id + i;
    trace[i].kind = kind;
  }
  return trace;
}

TEST(Client, ClosedLoopReplayAccountsForEveryRequest) {
  AnalysisServer server(two_session_opts(2));
  server.sessions().open("main", small_session());
  const LoadReport report = SyntheticClient().replay(server, trace_of(RequestKind::kRank, 1));
  EXPECT_EQ(report.total, 6u);
  EXPECT_EQ(report.ok, 6u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
  EXPECT_NE(report.to_json().find("\"total\":6"), std::string::npos);
  EXPECT_NE(report.to_text().find("throughput"), std::string::npos);
}

TEST(Client, ReplayWaitsForAndCountsOnlyItsOwnResponses) {
  AnalysisServer server(two_session_opts(1));
  server.sessions().open("main", small_session());
  const SyntheticClient client;
  const std::vector<Request> predicts = trace_of(RequestKind::kPredict, 1);
  EXPECT_EQ(client.replay(server, predicts).total, 6u);
  // The same ids again: each wait ends on this replay's response, not on
  // the one stored from the first. With one worker, every completion
  // but the last is counted before the next request runs.
  const LoadReport again = client.replay(server, predicts);
  EXPECT_EQ(again.total, 6u);
  EXPECT_EQ(again.ok, 6u);
  EXPECT_GE(server.stats().completed, 11u);
  // New ids: the report counts these six, not the twelve before them.
  EXPECT_EQ(client.replay(server, trace_of(RequestKind::kRank, 7)).total, 6u);
}

TEST(Server, ReusedIdIsAnsweredByItsOwnRequest) {
  AnalysisServer server(two_session_opts(1));
  server.sessions().open("main", small_session());
  const Request predict = trace_of(RequestKind::kPredict, 1)[0];
  ASSERT_EQ(server.submit_and_wait(predict).kind, RequestKind::kPredict);
  const Request rank = trace_of(RequestKind::kRank, 1)[0];
  const Response resp = server.submit_and_wait(rank);
  EXPECT_EQ(resp.kind, RequestKind::kRank);
  const std::string want = server.sessions().with_session(
      "main", [&](AnalysisSession& s) { return render_request(s, rank); });
  EXPECT_EQ(resp.body, want);
}

TEST(Client, ReplayRefusesAnIntervalTheClockCannotHold) {
  // The pacing interval becomes a nanosecond count; one that does not
  // fit is a PreconditionError rather than an undefined cast.
  AnalysisServer server(two_session_opts(1));
  ClientOptions opts;
  opts.request_interval_ms = 1e300;
  EXPECT_THROW(SyntheticClient(opts).replay(server, {}), PreconditionError);
}

TEST(Client, ComputeSloFoldsPerTenantAttainment) {
  auto resp = [](std::uint64_t id, const std::string& tenant, RequestStatus status,
                 double total_ms) {
    Response r;
    r.id = id;
    r.tenant = tenant;
    r.kind = RequestKind::kRank;
    r.status = status;
    r.total_ms = total_ms;
    return r;
  };
  const std::vector<Response> responses = {
      resp(1, "a", RequestStatus::kOk, 10.0),
      resp(2, "a", RequestStatus::kOk, 80.0),   // over SLO
      resp(3, "a", RequestStatus::kRejected, 1.0),  // non-ok never attains
      resp(4, "b", RequestStatus::kOk, 50.0),   // exactly at SLO counts
  };
  const SloReport report = compute_slo(responses, 50.0, 100.0, 85.0);
  EXPECT_EQ(report.slo_ms, 50.0);
  EXPECT_TRUE(report.saturated);  // 85 < 0.9 * 100
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].tenant, "a");
  EXPECT_EQ(report.tenants[0].total, 3u);
  EXPECT_EQ(report.tenants[0].within, 1u);
  EXPECT_NEAR(report.tenants[0].attainment, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(report.tenants[1].tenant, "b");
  EXPECT_EQ(report.tenants[1].within, 1u);
  EXPECT_EQ(report.tenants[1].attainment, 1.0);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"slo_ms\":50"), std::string::npos);
  EXPECT_NE(json.find("\"saturated\":true"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"a\""), std::string::npos);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("SATURATED"), std::string::npos);

  // Keeping up with offered load is not saturation.
  EXPECT_FALSE(compute_slo(responses, 50.0, 100.0, 95.0).saturated);
  EXPECT_FALSE(compute_slo(responses, 50.0, 0.0, 0.0).saturated);
}

}  // namespace
}  // namespace mpa::serve
