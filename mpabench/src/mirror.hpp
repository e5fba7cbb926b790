// A serial re-run of case-table inference from the benchmark's own
// code. It calls the public functions infer_case_table calls, in the
// same order (parse, LintSource::scan, diff, month-end state,
// compute_design_metrics, run_lint, group_events,
// compute_operational_metrics, count_health_tickets), with a span
// around each, so a traced run can split inference into layers. Its
// rows must equal infer_case_table's bit for bit; when they stop doing
// so, inference changed shape and this mirror must follow it.
#pragma once

#include <string>
#include <vector>

#include "metrics/inference.hpp"

namespace mpabench {

/// Rows of one network for months [first_month, opts.num_months).
std::vector<mpa::Case> mirror_network_cases(const mpa::NetworkRecord& net,
                                            const mpa::Inventory& inventory,
                                            const mpa::SnapshotStore& snapshots,
                                            const mpa::TicketLog& tickets,
                                            const mpa::InferenceOptions& opts, int first_month);

/// Counts the mirror accumulates across calls (reset by the caller).
struct MirrorCounts {
  std::uint64_t lint_findings = 0;
  std::uint64_t network_months = 0;
  std::uint64_t changes = 0;
  std::uint64_t events = 0;
};
MirrorCounts& mirror_counts();

/// Span names of the mirror's leaf calls; their sum over the serial
/// inference time is the mirror's coverage.
const std::vector<std::string>& mirror_leaf_spans();

/// True when both row sets hold the same cases with bit-identical
/// values.
bool same_bits(const std::vector<mpa::Case>& a, const std::vector<mpa::Case>& b);

/// Digest of a case table's exact bits (ids, months, raw doubles).
std::string bits_digest(const std::vector<mpa::Case>& rows);

}  // namespace mpabench
