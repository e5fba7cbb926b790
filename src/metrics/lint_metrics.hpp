// Writing a network's lint counts (LintSummary, config/lint.hpp) into
// the per-(network, month) hygiene metrics that join the case table.
//
// The paper correlates management practices with network health; the
// lint rules give us a direct "config hygiene" practice family (H in
// the tables): how many inconsistencies a network's configs carry, how
// severe they are, and how many distinct failure modes appear. The
// summary feeds Practice::kLintIssues / kLintErrors / kLintRulesHit /
// kLintDensity, which flow through dependence, causal, and prediction
// analyses like every other practice metric.
#pragma once

#include "config/lint.hpp"
#include "metrics/case_table.hpp"

namespace mpa {

/// Write the summary's metrics into a case row.
void apply_lint_metrics(const LintSummary& summary, Case& c);

}  // namespace mpa
