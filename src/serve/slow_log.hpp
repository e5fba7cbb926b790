// Slow-request exemplar log (DESIGN.md §15): a bounded record of the K
// worst requests by total latency, each with the per-stage timing
// breakdown its RequestContext collected — the `stats` introspection
// kind returns it so "what was slow, and where did the time go" is
// answerable from a live daemon without trace files.
//
// Determinism: canonical_json() strips every timing and sorts by id, so
// a replay whose capacity covers the whole trace is byte-identical at
// any worker count (which requests are *kept* under a tight capacity
// is timing-dependent by construction — tests pin the canonical form
// with capacity >= trace size).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace mpa::serve {

class SlowLog {
 public:
  explicit SlowLog(std::size_t capacity = 16);

  struct Entry {
    std::uint64_t id = 0;
    std::string tenant;
    std::string kind;
    std::string status;
    double queue_ms = 0;
    double service_ms = 0;
    double total_ms = 0;
    /// Per-stage (span path, milliseconds) in span-close order.
    std::vector<std::pair<std::string, double>> stages;
  };

  void record(Entry entry) EXCLUDES(mu_);

  /// The retained entries, worst (highest total_ms) first; ties break
  /// toward the lower id.
  std::vector<Entry> worst() const EXCLUDES(mu_);

  /// JSON array, worst first, with timings and stage breakdown (the
  /// `stats` response form).
  std::string to_json() const;
  /// Timestamp-free identity form: [{"id","tenant","kind","status"}]
  /// sorted by id.
  std::string canonical_json() const;

 private:
  const std::size_t cap_;
  mutable Mutex mu_;
  /// Kept sorted worst-first and truncated to cap_ on every record —
  /// K is small (default 16), so insertion cost is irrelevant next to
  /// the request it describes.
  std::vector<Entry> entries_ GUARDED_BY(mu_);
};

}  // namespace mpa::serve
