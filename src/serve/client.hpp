// SyntheticClient: the load half of the NeuPIMs-style scheduler/client
// split (DESIGN.md §11). It synthesizes a deterministic request trace
// from a seed, replays it against an AnalysisServer — closed-loop
// (submit, wait, next) or open-loop at a configured request interval —
// and reports achieved throughput plus p50/p90/p99 latency from the
// obs histogram quantile machinery.
//
// Trace synthesis is a pure function of ClientOptions (ids 1..n,
// kinds/tenants drawn from a seeded Rng), so `mpa_cli replay` runs are
// reproducible and a saved trace replays byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/server.hpp"

namespace mpa::serve {

struct ClientOptions {
  /// Requests to synthesize (NeuPIMs `request_total_cnt`).
  int request_total_cnt = 32;
  /// Open-loop pacing between submits, in milliseconds (NeuPIMs
  /// `request_interval`); 0 = closed-loop (wait for each response).
  double request_interval_ms = 0;
  std::uint64_t seed = 1;
  /// Tenant names drawn uniformly per request.
  std::vector<std::string> tenants = {"default"};
  /// Deadline attached to every synthesized request (0 = none).
  double deadline_ms = 0;
};

/// Deterministic trace from the options (ids 1..request_total_cnt), all
/// against session "main". Kinds follow a fixed interactive mix:
/// case-table slices, rankings and lint dominate, and the heavyweight
/// causal and predict requests are rare. It never synthesizes ingest
/// (a trace that appends the same delta twice fails on the second try)
/// or introspection; those arrive through a saved trace or the daemon.
std::vector<Request> synthesize_trace(const ClientOptions& opts);

/// Per-tenant SLO attainment over one replay's responses.
struct TenantSlo {
  std::string tenant;
  std::uint64_t total = 0;   ///< Responses for this tenant (all statuses).
  std::uint64_t within = 0;  ///< kOk responses with total_ms <= slo_ms.
  double attainment = 0;     ///< within / total (0 when total == 0).
};

/// SLO attainment report for one replay (`mpa_cli replay --slo-ms`).
struct SloReport {
  double slo_ms = 0;
  double offered_rps = 0;   ///< 1000 / request_interval_ms (0 = closed-loop).
  double achieved_rps = 0;  ///< Completed responses / wall seconds.
  /// Offered load set and achieved throughput fell short of 90% of it:
  /// the server is past its saturation knee at this offered rate.
  bool saturated = false;
  std::vector<TenantSlo> tenants;  ///< Sorted by tenant name.

  std::string to_text() const;
  std::string to_json() const;
};

/// Pure accounting: fold `responses` into per-tenant SLO attainment.
/// A response is within SLO iff it completed kOk and its admission->
/// completion latency fit the budget; rejections and deadline misses
/// count against attainment (the tenant asked and was not served).
SloReport compute_slo(const std::vector<Response>& responses, double slo_ms, double offered_rps,
                      double achieved_rps);

/// One replay's outcome summary.
struct LoadReport {
  std::uint64_t total = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t errors = 0;
  double wall_seconds = 0;
  double throughput_rps = 0;  ///< Completed responses / wall_seconds.
  // Total (admission -> completion) latency quantiles, milliseconds,
  // estimated from the obs latency histogram buckets.
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;

  std::string to_text() const;
  std::string to_json() const;
};

class SyntheticClient {
 public:
  explicit SyntheticClient(ClientOptions opts = {}) : opts_(std::move(opts)) {}

  /// Replay `trace` against `server`: closed-loop when
  /// request_interval_ms == 0, open-loop (paced submits, drain at the
  /// end) otherwise. Every request's response is accounted for, and
  /// only those: responses the server holds from other traffic are
  /// not. An interval whose nanoseconds do not fit the clock's 64-bit
  /// count is a PreconditionError.
  LoadReport replay(AnalysisServer& server, const std::vector<Request>& trace) const;

 private:
  ClientOptions opts_;
};

}  // namespace mpa::serve
