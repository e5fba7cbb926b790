// The benchmark's reporting arithmetic, kept free of any dependency so
// the self-test binary can check it in isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace mpabench {

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
double median(std::vector<double> v);

/// Nearest-rank percentile: the value at rank ceil(p/100 * n) of the
/// sorted samples. Never larger than the largest sample. 0 when empty.
double percentile(std::vector<double> v, double p);

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50}
/// whose nearest rank leaves at least `beyond` samples above it, or
/// nullopt when even the median does not. With 200 samples this is 95.
std::optional<double> tail_percentile(std::size_t n, std::size_t beyond = 10);

/// One span as recorded: [start, end) on one thread, with the index
/// of the enclosing span (-1 for a root).
struct SpanRec {
  int parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children (overlapping children are
/// counted once, and children are clipped to the parent's interval).
std::vector<std::uint64_t> self_times(const std::vector<SpanRec>& spans);

/// One open-loop rate phase of the serve workload.
struct RatePhase {
  double rate = 0;        ///< Offered reads per second.
  double p95_ms = 0;      ///< Read latency at the tail percentile, from scheduled send.
  bool backlog_grew = false;
  std::uint64_t failed = 0;  ///< Reads that failed or were refused.
};

/// Whether the backlog at the driver grew over a phase: the mean
/// outstanding-request count sampled at each send in the last quarter
/// of the phase exceeds twice that of the first quarter plus one. A
/// queue the server keeps up with stays flat however bursty ingests
/// make it; one it cannot keep up with grows with every send.
bool backlog_grew(const std::vector<std::size_t>& outstanding_at_send);

/// The sustained-rate rule: the highest offered rate whose phase kept
/// read p95 within `limit_ms`, failed no read, and did not grow its
/// backlog; nullopt when no phase did.
std::optional<double> sustained_rate(const std::vector<RatePhase>& phases, double limit_ms);

}  // namespace mpabench
