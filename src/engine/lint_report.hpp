// The lint report artifact: every diagnostic from linting each
// network's latest config snapshots, grouped by network.
//
// This is the engine-facing face of the rule-engine analyzer
// (config/lint.hpp). AnalysisSession::lint() computes it with a
// per-network parallel fan-out, memoizes it, and persists it through
// the ArtifactStore next to the case table; `mpa_cli lint` renders it
// as human-readable text, JSON, or SARIF 2.1.0 for code-review
// tooling.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "config/lint.hpp"

namespace mpa {

/// One network's findings.
struct NetworkLint {
  std::string network_id;
  std::size_t num_devices = 0;  ///< Devices with a lintable snapshot.
  std::vector<Diagnostic> diagnostics;
};

struct LintReport {
  std::vector<NetworkLint> networks;

  std::size_t total_findings() const;

  /// Copy keeping only findings at or above `min` severity.
  LintReport at_least(LintSeverity min) const;

  /// CSV round-trip for ArtifactStore persistence. String fields go
  /// through csv_field(), so any byte in them survives the reload.
  std::string to_csv() const;
  /// Throws DataError naming the row on malformed input: a wrong
  /// header (once there are rows), an unknown record kind, severity or
  /// category, or an integer cell that is not decimal digits within
  /// INT_MAX.
  static LintReport from_csv(std::string_view csv);

  /// Human-readable listing: one line per finding plus per-network and
  /// overall summaries.
  std::string to_text() const;

  /// JSON object with per-network findings and an overall summary.
  std::string to_json() const;

  /// SARIF 2.1.0 log. The tool.driver.rules array always lists every
  /// built-in rule, findings or not.
  std::string to_sarif() const;
};

}  // namespace mpa
