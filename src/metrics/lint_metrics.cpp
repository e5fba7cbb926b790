#include "metrics/lint_metrics.hpp"

namespace mpa {

void apply_lint_metrics(const LintSummary& summary, Case& c) {
  c[Practice::kLintIssues] = summary.total;
  c[Practice::kLintErrors] = summary.by_severity[static_cast<std::size_t>(LintSeverity::kError)];
  c[Practice::kLintRulesHit] = summary.rules_hit;
  c[Practice::kLintDensity] = summary.density;
}

}  // namespace mpa
