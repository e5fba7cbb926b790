// The benchmark's own spans. They are recorded only in a traced run,
// around the benchmark's calls into each module's public functions, so
// the program under test carries no benchmark instrumentation. Spans
// stay in memory until the run ends; a layer's self time is its span
// time minus the part covered by its child spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mpabench {

void spans_enable(bool on);
bool spans_enabled();

/// RAII span. `name` must outlive the run (a string literal). Inert,
/// apart from one relaxed load, when spans are disabled.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_ = -1;
};

/// Spans aggregated by name.
struct LayerRow {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// Every span name with its count, total and self time, sorted by
/// self time, descending.
std::vector<LayerRow> layer_table();

/// Total seconds of every span called `name` (0 when none).
double span_total_s(const std::string& name);
/// How many spans called `name` were recorded.
std::uint64_t span_count(const std::string& name);

/// Write every recorded span as CSV (name,parent,start_ns,end_ns) to
/// `path`.
void write_spans(const std::string& path);

}  // namespace mpabench
