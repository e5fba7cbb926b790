// Shared plumbing of the end-to-end benchmark: command-line settings,
// the result every workload fills in, clocks, memory, and digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace mpabench {

/// Settings fixed by the benchmark definition (README.md): the engine
/// pool and the serve worker count are part of what is measured.
inline constexpr int kEngineThreads = 4;
inline constexpr int kServeWorkers = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  int seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `attempted` counts the operations
/// the run tried (pipeline or analysis passes, reads, ingests, output
/// checks); `failed` those that threw, were rejected, answered non-ok
/// or failed an output check.
struct Outcome {
  std::vector<Metric> metrics;
  /// Printed with the metrics but not part of the result object: the
  /// workload-specific names of what the end-to-end metrics measure,
  /// and figures the result carries only in a traced run.
  std::vector<Metric> extra;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;  ///< No output check failed.

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Record one output check; prints what failed to stderr.
  void check(bool ok, const std::string& what);
  /// Record one operation's success or failure.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// 16 lowercase hex digits.
std::string hex64(std::uint64_t v);

/// Byte-wise FNV-1a of a string, as 16 hex digits.
std::string digest(const std::string& s);

/// Progress and diagnostics go to stderr; stdout carries the result.
void log(const std::string& line);

}  // namespace mpabench
