// Structured event log for the MPA engine: leveled events with typed
// key/value fields, recorded into the per-thread stream the Tracer uses
// too (obs/thread_records.hpp — the hot path never takes a shared
// lock), merged at snapshot time and exported as JSONL.
//
// Contracts (DESIGN.md §10):
//  - Zero overhead when disabled: constructing a LogEvent while the
//    log is off (or below the minimum level) is a single relaxed
//    atomic load — no clock read, no allocation, no buffer write. The
//    enabled flag and minimum level are packed into one atomic gate
//    so the level filter costs nothing extra.
//  - Deterministic content at any thread count: an event's identity is
//    its level, name, and fields — never its timestamp or the thread
//    that recorded it. canonical_jsonl() serializes the merged stream
//    without timestamps in a content-sorted order, so instrumented
//    runs of a deterministic pipeline produce bit-identical canonical
//    streams at 1, 2, and 8 threads (pinned in tests/test_obs.cpp).
//  - Flight recorder: set_ring_capacity(N) bounds each thread's buffer
//    to the most recent N events (evictions counted in dropped()), so
//    always-on logging in a long-lived server keeps bounded memory.
//
// Usage — the builder is a temporary whose destructor commits:
//   obs::LogEvent(obs::LogLevel::kInfo, "stage_done")
//       .str("stage", "lint").u64("networks", n);
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/thread_records.hpp"

namespace mpa::obs {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Stable lowercase name ("debug", "info", "warn", "error").
std::string_view to_string(LogLevel level);
/// Parse a level name; returns false on unknown input.
bool parse_log_level(std::string_view name, LogLevel* out);

/// Global event-log switch, independent of the metrics/span switch so
/// `--metrics-out` alone never pays logging costs. Off by default.
bool log_enabled();
void set_log_enabled(bool on);
/// Events below `level` are dropped at the gate (same single atomic
/// load as the on/off check). Default: kDebug (record everything).
void set_log_min_level(LogLevel level);

/// One typed key/value field.
struct LogField {
  using Value = std::variant<std::string, std::int64_t, std::uint64_t, bool>;

  std::string key;
  Value value;

  /// The field's value serialized as a JSON token.
  std::string value_json() const;
};

/// One committed event.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string name;
  std::uint64_t t_ns = 0;  ///< obs::now_ns() at commit.
  std::vector<LogField> fields;
  /// Request tags stamped from the recording thread's installed
  /// RequestContext (0/"" outside a request). Serialized only in the
  /// timed form: with more than one worker, which request a memoized
  /// stage executes under is timing-dependent, so the tags are excluded
  /// from the canonical (determinism-pinned) form like t_ns is.
  std::uint64_t ctx_req_id = 0;
  std::string ctx_tenant;

  /// One JSON object (no trailing newline): {"t_ns":...,"level":...,
  /// "name":...,"fields":{...}}. `with_time` false omits t_ns and the
  /// request tags — the deterministic form used by canonical_jsonl().
  std::string to_json(bool with_time = true) const;
};

/// Process-wide event log. Records land in per-thread buffers
/// (registered on first use, co-owned so they survive thread exit) and
/// are merged + sorted only at snapshot/export time.
class Logger {
 public:
  static Logger& global();

  /// Flight-recorder bound per thread buffer (0 = unbounded, the
  /// default). Takes effect for subsequent commits; shrinking does not
  /// retroactively evict.
  void set_ring_capacity(std::size_t n) { events_.set_capacity(n); }
  /// Events evicted by the ring since the last clear().
  std::uint64_t dropped() const { return events_.dropped(); }

  /// Merge every thread's buffer, sorted by (t_ns, content) — a stable
  /// chronological order with deterministic ties.
  std::vector<LogRecord> snapshot() const;

  /// One JSON object per line, chronological (the --log-out format).
  std::string to_jsonl() const;

  /// Timestamp-free serialization sorted by content: bit-identical
  /// across thread counts for a deterministic pipeline.
  std::string canonical_jsonl() const;

  /// Drop every recorded event and zero dropped().
  void clear() { events_.clear(); }

 private:
  friend class LogEvent;

  Logger() = default;

  ThreadRecords<LogRecord> events_;
};

/// Builder for one event. Construction reads the gate (one relaxed
/// atomic load); when below it, every method is an early-out on a
/// plain bool and the destructor does nothing. When active, field
/// setters append typed fields in call order and the destructor
/// timestamps and commits the record.
class LogEvent {
 public:
  LogEvent(LogLevel level, std::string_view name);
  ~LogEvent();
  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& str(std::string_view key, std::string_view value);
  LogEvent& i64(std::string_view key, std::int64_t value);
  LogEvent& u64(std::string_view key, std::uint64_t value);
  LogEvent& boolean(std::string_view key, bool value);

 private:
  /// Callers check active_ first, so a disabled event builds no value.
  void add(std::string_view key, LogField::Value value);

  bool active_ = false;
  LogRecord rec_;
};

}  // namespace mpa::obs
