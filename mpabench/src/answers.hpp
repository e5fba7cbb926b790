// Exact digest of a run's answers. A timed pass folds every answer it
// computed in; the digest must equal the one of a reference pass run
// on one engine thread, since the engine's results are bit-identical
// at any thread count.
#pragma once

#include <string>
#include <utility>

#include "engine/lint_report.hpp"
#include "learn/eval.hpp"
#include "metrics/case_table.hpp"
#include "mpa/causal.hpp"
#include "mpa/dependence.hpp"
#include "util/hash.hpp"

namespace mpabench {

class Answers {
 public:
  void table(const mpa::CaseTable& t);
  void lint(const mpa::LintReport& r);
  void rankings(const mpa::DependenceAnalysis& d);
  void causal(const mpa::CausalResult& r);
  void eval(const mpa::EvalResult& r);
  void value(double v);
  std::string hex() const;

 private:
  mpa::Fnv h_;
};

}  // namespace mpabench
