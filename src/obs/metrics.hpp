// Observability metrics for the MPA engine: a process-wide registry of
// counters, gauges, and fixed-bucket latency histograms, exported as
// JSON, Prometheus text, or a human-readable table.
//
// Design constraints (see DESIGN.md §8):
//  - lock-cheap on the hot path: instruments are plain atomics once
//    looked up; the registry mutex is only taken at lookup/registration
//    and export time.
//  - zero-overhead-when-disabled: call sites gate on `obs::enabled()`
//    (one relaxed atomic load) before touching clocks or instruments.
//  - deterministic export: instruments are keyed and emitted in name
//    order, so two runs that record the same events produce the same
//    metric names and (for counters) the same values regardless of
//    thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.hpp"

namespace mpa::obs {

/// Global observability switch. Off by default: the CLI turns it on for
/// --metrics-out / --trace-out / --stats, the benches for
/// MPA_BENCH_METRICS_OUT. Relaxed loads — callers only need a
/// monotonic-enough view, not an ordering guarantee.
bool enabled();
void set_enabled(bool on);

/// Nanoseconds since the first call (steady clock; shared by the span
/// tracer so span starts and histogram samples are comparable).
std::uint64_t now_ns();

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v);
  double value() const;
  void reset();

 private:
  std::atomic<std::uint64_t> bits_{0};  ///< double stored as bit pattern.
};

/// The smallest and largest sample observed since the last reset, kept
/// lock-free: a CAS loop each, only a load when the extreme stands.
class SampleRange {
 public:
  SampleRange();
  void observe(double v);
  double lo() const;  ///< +inf before the first sample.
  double hi() const;  ///< -inf before the first sample.
  void reset();

 private:
  std::atomic<std::uint64_t> lo_bits_;
  std::atomic<std::uint64_t> hi_bits_;
};

/// Fixed-bucket histogram (cumulative counts at export, Prometheus
/// style). Bounds are upper edges; an implicit +Inf bucket catches the
/// rest. It also keeps the smallest and largest sample. observe() is
/// two relaxed atomic adds plus CAS loops for the sum and the extremes
/// (a load each when the extremes stand) — no locks.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1.
  std::vector<std::uint64_t> bucket_counts() const;
  /// The smallest and largest sample since the last reset.
  const SampleRange& range() const { return range_; }
  /// Estimated q-quantile (q in [0,1]) by bounded_quantile over the
  /// buckets and the samples' range. 0 when empty. Exports surface
  /// p50/p90/p99.
  double quantile(double q) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
  SampleRange range_;
};

/// Default bounds for wall-time histograms, in seconds.
const std::vector<double>& latency_buckets_seconds();

/// Bucket-walk quantile estimator under bounded_quantile. `bounds` are
/// upper edges, `counts` has one extra slot for the implicit +Inf
/// bucket (counts.size() == bounds.size() + 1; excess count slots are
/// ignored). Well-defined at the edges: an empty histogram is 0, all
/// mass in one bucket interpolates within it (so q=1 is exactly the
/// bucket bound), +Inf-bucket hits clamp to the highest finite bound,
/// and q is clamped to [0,1].
double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& counts, double q);

/// The quantile rule of Histogram and the windowed registry: linear
/// interpolation inside the bucket holding the target rank (as
/// quantile_from_buckets), where the +Inf bucket ends at the largest
/// sample `hi`, clamped to the samples' range [lo, hi]. So no estimate
/// lies outside the samples seen. With no sample seen (lo > hi) it is
/// quantile_from_buckets(bounds, counts, q).
double bounded_quantile(const std::vector<double>& bounds, std::vector<std::uint64_t> counts,
                        double lo, double hi, double q);

/// A Prometheus label value, escaped for use between the quotes of
/// `name="..."`: backslash, double quote and line feed, as the text
/// exposition format requires; every other byte passes through. The
/// one encoder for label values in every `.prom` export.
std::string prometheus_label_value(std::string_view raw);

/// Named instruments, created on first access and stable thereafter
/// (references never invalidate). One process-wide instance.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name) EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) EXCLUDES(mu_);
  /// `bounds` is consulted only on first creation of `name`.
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds = latency_buckets_seconds())
      EXCLUDES(mu_);

  /// All counter values, keyed by name (tests, summaries).
  std::map<std::string, std::uint64_t> counters_snapshot() const EXCLUDES(mu_);

  /// {"counters":{...},"gauges":{...},"histograms":{...}}
  std::string to_json() const EXCLUDES(mu_);
  /// Prometheus text exposition format (# TYPE lines, _bucket/_sum/_count).
  std::string to_prometheus() const EXCLUDES(mu_);
  /// Human-readable table for the CLI's --stats summary.
  std::string to_text() const EXCLUDES(mu_);

  /// Zero every instrument, keeping registrations (tests).
  void reset_values() EXCLUDES(mu_);

 private:
  Registry() = default;

  /// Guards the instrument maps. Lookup/registration and export only —
  /// never on the record hot path (instruments are atomics once
  /// returned; references stay valid for the process lifetime).
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(mu_);
};

}  // namespace mpa::obs
