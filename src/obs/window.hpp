// Sliding-window aggregation for the serve plane (DESIGN.md §15): a
// registry of per-(tenant, kind) series, each a ring of fixed-width
// time buckets advanced on a logical clock. Answers the questions the
// cumulative Registry cannot for a long-lived daemon: rolling
// throughput, error/reject/deadline rates, and queue-wait / service /
// latency quantiles over the last window.
//
// Design constraints:
//  - lock-cheap on the worker hot path: record() takes the registry
//    mutex only for the series lookup (same cost class as
//    Registry::counter); in-bucket updates are relaxed atomics. A
//    per-series mutex is taken only when a bucket's epoch rotates.
//  - injectable clock: tests drive a logical clock to pin wraparound
//    and idle-gap expiry without sleeping.
//  - deterministic identity form: canonical_json() is timestamp-free
//    and counts-only, so a replay whose window covers the whole run is
//    byte-identical at any worker count (pinned in test_serve).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/sync.hpp"

namespace mpa::obs {

/// Fixed millisecond upper edges for the windowed queue/service/latency
/// histograms (an implicit +Inf bucket catches the rest).
const std::vector<double>& window_ms_bounds();

struct WindowOptions {
  /// Ring size: the window is `buckets * bucket_width_ns` wide.
  std::size_t buckets = 60;
  std::uint64_t bucket_width_ns = 1'000'000'000;  ///< 1s buckets by default.
  /// Monotonic nanosecond clock; defaults to obs::now_ns. Injected by
  /// tests as a logical clock. Must be set before the first record().
  std::function<std::uint64_t()> clock;
};

class WindowRegistry {
 public:
  explicit WindowRegistry(WindowOptions opts = {});

  /// Process-wide instance recorded into by the serve scheduler when
  /// observability is enabled and no explicit registry was injected.
  static WindowRegistry& global();

  /// Replace options and drop all series. Not safe concurrently with
  /// record()/snapshot() — the CLI calls it once before the server is
  /// constructed.
  void configure(WindowOptions opts) EXCLUDES(mu_);

  /// Record one finished request into the bucket for "now".
  /// `status` is one of ok / rejected / deadline_exceeded / error
  /// (anything else counts as error).
  void record(std::string_view tenant, std::string_view kind, std::string_view status,
              double queue_ms, double service_ms, double latency_ms) EXCLUDES(mu_);

  struct SeriesWindow {
    std::string tenant;
    std::string kind;
    std::uint64_t total = 0;
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t error = 0;
    double throughput_rps = 0;
    double ok_rate = 0;
    double reject_rate = 0;
    double deadline_rate = 0;
    double error_rate = 0;
    double queue_p50_ms = 0, queue_p90_ms = 0, queue_p99_ms = 0;
    double service_p50_ms = 0, service_p90_ms = 0, service_p99_ms = 0;
    double latency_p50_ms = 0, latency_p90_ms = 0, latency_p99_ms = 0;
  };
  struct Snapshot {
    double window_seconds = 0;
    /// Sorted by (tenant, kind); series whose window holds no requests
    /// are omitted (that is what "expired on an idle gap" means).
    std::vector<SeriesWindow> series;
  };
  Snapshot snapshot() const EXCLUDES(mu_);

  /// Single-line JSON document over snapshot() (no trailing newline, so
  /// it embeds verbatim in a `stats` response body).
  std::string to_json() const;
  /// Prometheus text exposition: mpa_window_* gauges labeled by
  /// tenant/kind (gauges, not counters — windowed values can decrease).
  std::string to_prometheus() const;
  /// Timestamp-free identity form: per-series status counts only,
  /// sorted by (tenant, kind). Byte-identical across worker counts
  /// whenever the window covers the whole run.
  std::string canonical_json() const;

 private:
  static constexpr std::size_t kStatuses = 4;  ///< ok/rejected/deadline/error.

  struct Bucket {
    /// Which bucket-width epoch this slot currently holds. kIdleEpoch
    /// marks a slot that has never been written.
    std::atomic<std::uint64_t> epoch{kIdleEpoch};
    std::array<std::atomic<std::uint64_t>, kStatuses> by_status{};
    /// Milliseconds over window_ms_bounds().
    Histogram queue{window_ms_bounds()};
    Histogram service{window_ms_bounds()};
    Histogram latency{window_ms_bounds()};
  };
  struct Series {
    explicit Series(std::size_t buckets) : ring(buckets) {}
    /// Serializes epoch rotation for this series. A concurrent record
    /// racing a rotation can land one sample in the fresh bucket — the
    /// standard windowed-counter smear, bounded to one bucket width.
    // srclint-disable(mutex-annotation): guards the zero-then-publish
    // rotation sequence, not data — the bucket counters stay atomics
    // updated lock-free, so no field can carry GUARDED_BY(rotate_mu).
    Mutex rotate_mu;
    std::vector<Bucket> ring;
  };
  static constexpr std::uint64_t kIdleEpoch = ~std::uint64_t{0};

  Bucket& bucket_for(Series& s, std::uint64_t epoch);
  std::uint64_t now() const;

  WindowOptions opts_;
  /// Guards the series map only — lookup/registration and snapshot,
  /// never held while touching bucket atomics.
  mutable Mutex mu_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Series>> series_ GUARDED_BY(mu_);
};

}  // namespace mpa::obs
