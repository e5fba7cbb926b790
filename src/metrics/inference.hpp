// End-to-end practice inference: raw data sources -> case table (§2).
//
// This is the entry point an organization points at its own inventory,
// snapshot archive and ticket log. Design metrics are computed from the
// configuration state at the end of each month; operational metrics
// from the changes within the month; health from that month's
// non-maintenance ticket count.
#pragma once

#include <array>

#include "config/lint.hpp"
#include "metrics/case_table.hpp"
#include "metrics/change_analysis.hpp"
#include "model/inventory.hpp"
#include "telemetry/snapshots.hpp"
#include "telemetry/tickets.hpp"

namespace mpa {

class ThreadPool;

/// With obs on, inference adds each network's wall nanoseconds per layer
/// to these counters: stanza interning (parsing), diffing and sorting
/// the changes, month-end views, design metrics, lint, and operational
/// metrics (events, change metrics and tickets).
inline constexpr std::array<const char*, 6> kInferLayerCounters = {
    "mpa_infer_intern_ns_total", "mpa_infer_diff_ns_total", "mpa_infer_state_ns_total",
    "mpa_infer_design_ns_total", "mpa_infer_lint_ns_total", "mpa_infer_ops_ns_total"};

struct InferenceOptions {
  /// Change-event grouping window delta, in minutes (paper: 5; <= 0
  /// disables grouping).
  Timestamp event_window = 5;
  /// Number of observation months (paper: 17).
  int num_months = 17;
  /// Login classifier for change modality (O2).
  AutomationClassifier automation = default_automation_classifier;
  /// Lint configuration for the hygiene metrics (kLint*). The rule set
  /// runs over each month-end config state; suppression pragmas in the
  /// snapshot text are honored.
  LintOptions lint;
  /// Fan inference out per network on this pool (null = serial). Each
  /// network's rows are computed independently and concatenated in
  /// inventory order, so the result is bit-identical at any thread
  /// count.
  ThreadPool* pool = nullptr;
};

/// Build the (network, month) case table from the three data sources.
/// Networks with no archived snapshots still produce rows (their
/// config-derived metrics are zero — incomplete logging is expected).
CaseTable infer_case_table(const Inventory& inventory, const SnapshotStore& snapshots,
                           const TicketLog& tickets, const InferenceOptions& opts = {});

/// Rows for months [first_month, opts.num_months) only — bit-identical
/// to the corresponding rows of infer_case_table over the same data,
/// but each device's snapshot archive is parsed and diffed only from
/// the last snapshot strictly before the window (the carry-in state).
/// This is the O(delta) path AnalysisSession::append_month extends a
/// live case table with; infer_case_table(...) == tail(..., 0).
CaseTable infer_case_table_tail(const Inventory& inventory, const SnapshotStore& snapshots,
                                const TicketLog& tickets, const InferenceOptions& opts,
                                int first_month);

}  // namespace mpa
