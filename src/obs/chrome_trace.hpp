// Chrome trace-event export for Tracer snapshots, so a session
// timeline opens directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing instead of being eyeballed as raw span JSON.
//
// The export uses complete ("X") events only — one per SpanRecord,
// with pid/tid/name/cat/ts/dur and the full '/'-separated span path
// under args.path — because a uniform event shape keeps the CI
// validator and downstream tooling trivial (every event has the same
// required keys). Timestamps are microseconds (the trace-event unit),
// carried as decimals so nanosecond starts survive the conversion.
//
// The parser accepts both trace shapes this repo writes — the
// Tracer::to_json() span list and the Chrome trace produced here — so
// `mpa_cli trace summarize` works on either file.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace mpa::obs {

/// Serialize spans as a Chrome trace: {"displayTimeUnit":"ms",
/// "traceEvents":[{"ph":"X",...},...]}.
std::string chrome_trace_json(const std::vector<SpanRecord>& spans);

/// Parse a trace file back into span records. Accepts Tracer span
/// JSON ({"spans":[...]}) and Chrome trace JSON ({"traceEvents":[...]},
/// X events; args.path preferred over name). Throws DataError on
/// malformed input or an unrecognized shape, and one naming the field
/// for a time, duration or tid outside its type (util/number.hpp).
std::vector<SpanRecord> parse_trace_json(const std::string& json);

}  // namespace mpa::obs
