// Scoped trace spans for the MPA engine: RAII wall-time timers with
// parent/child nesting, recorded into the per-thread stream of
// obs/thread_records.hpp — merged only at export time, so the engine's
// fork-join thread pool never contends on a shared trace lock.
//
// Nesting is thread-local: a Span opened while another Span is live on
// the same thread becomes its child ("parent/child" paths). Fan-out
// bodies that run on pool workers (where the thread-local stack is
// empty) adopt their logical parent explicitly via Span::with_path,
// keeping the exported tree deterministic in names and counts at any
// thread count (timings, of course, vary).
//
// Zero-overhead-when-disabled: constructing a Span while obs::enabled()
// is false is a single relaxed atomic load — no clock read, no
// allocation, no buffer write.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/thread_records.hpp"

namespace mpa::obs {

/// One completed span. `path` is '/'-separated from the root
/// ("infer/case_table"); times are now_ns() values. `tid` identifies
/// the recording thread (buffer registration order, 1-based) — it
/// feeds the Chrome-trace lane layout and is excluded from every
/// determinism contract, like the timestamps.
struct SpanRecord {
  std::string path;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  /// Request tags stamped from the thread's installed RequestContext
  /// (0/"" outside a request). Like tid, excluded from determinism
  /// contracts: stage→request attribution is timing-dependent with
  /// more than one worker (memoization races).
  std::uint64_t req_id = 0;
  std::string tenant;
};

/// Request-scoped trace context (DESIGN.md §15): minted by the serve
/// scheduler at submit, carried through the queue, and installed on the
/// executing worker thread via ScopedRequestContext — every Span closed
/// and LogEvent emitted while installed is tagged with req_id/tenant,
/// enabling per-request Chrome traces and slow-request attribution.
struct RequestContext {
  std::uint64_t req_id = 0;
  std::string tenant;
  /// Collect per-stage (path, dur_ns) samples from closing spans into
  /// stage_ns. Single-owner: only the installing worker thread may set
  /// it; pool fan-out task bodies adopt a tag_only() copy so the shared
  /// parent context is never mutated concurrently.
  bool collect = false;
  std::vector<std::pair<std::string, std::uint64_t>> stage_ns;

  /// Copy carrying only the request tags (collect off, no samples) —
  /// safe to share read-only across pool workers.
  RequestContext tag_only() const;
};

/// The calling thread's installed context, or nullptr outside a
/// request.
RequestContext* current_request_context();

/// RAII installation of a RequestContext on the calling thread
/// (restores the previous one on destruction). Installing nullptr is a
/// no-op placeholder that still restores — the idiom for "adopt the
/// parent's context if there is one".
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(RequestContext* ctx);
  ~ScopedRequestContext();
  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext* prev_;
};

/// Aggregated per-path count/total-time tree (indented by depth), for
/// Tracer::summary() and `mpa_cli trace summarize` over parsed files.
std::string summarize_spans(const std::vector<SpanRecord>& spans);

class Tracer {
 public:
  static Tracer& global();

  /// The calling thread's innermost live span path ("" at top level).
  /// Capture this before a parallel fan-out and pass it to
  /// Span::with_path inside the task body.
  static std::string current_path();

  /// Merge every thread's buffer, ordered by (start_ns, path) — stable
  /// content (paths and counts) across thread counts.
  std::vector<SpanRecord> snapshot() const;

  /// {"spans":[{"path":...,"start_ns":...,"dur_ns":...,"tid":...},...]}
  std::string to_json() const;

  /// Aggregated human-readable tree: per-path call count and total
  /// wall time, indented by depth.
  std::string summary() const;

  /// Drop every recorded span (buffers stay registered).
  void clear() { spans_.clear(); }

 private:
  friend class Span;

  Tracer() = default;

  ThreadRecords<SpanRecord> spans_;
};

/// RAII span on the global tracer. Records on destruction.
class Span {
 public:
  /// Nest under the calling thread's current span.
  explicit Span(std::string_view name);

  /// Absolute path, ignoring the thread-local stack (for pool-worker
  /// task bodies adopting the fan-out's parent).
  static Span with_path(std::string path);

  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  struct AbsolutePath {};
  Span(AbsolutePath, std::string path);

  void open();

  bool active_ = false;
  std::string path_;
  std::string prev_path_;  ///< Thread-current path to restore on close.
  std::uint64_t start_ns_ = 0;
};

}  // namespace mpa::obs
