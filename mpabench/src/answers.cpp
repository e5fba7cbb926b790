#include "answers.hpp"

#include "harness.hpp"
#include "mirror.hpp"

namespace mpabench {

void Answers::table(const mpa::CaseTable& t) { h_.str(bits_digest(t.cases())); }

void Answers::lint(const mpa::LintReport& r) { h_.str(r.to_csv()); }

void Answers::rankings(const mpa::DependenceAnalysis& d) {
  for (const auto& pm : d.mi_ranking()) {
    h_.u64(static_cast<std::uint64_t>(pm.practice));
    value(pm.avg_monthly_mi);
  }
  for (const auto& pc : d.cmi_ranking()) {
    h_.u64(static_cast<std::uint64_t>(pc.a));
    h_.u64(static_cast<std::uint64_t>(pc.b));
    value(pc.avg_monthly_cmi);
  }
}

void Answers::causal(const mpa::CausalResult& r) {
  h_.u64(static_cast<std::uint64_t>(r.treatment));
  for (const auto& c : r.comparisons) {
    h_.str(c.label());
    h_.u64(c.pairs);
    h_.u64(static_cast<std::uint64_t>(c.outcome.n_pos));
    h_.u64(static_cast<std::uint64_t>(c.outcome.n_zero));
    h_.u64(static_cast<std::uint64_t>(c.outcome.n_neg));
    value(c.outcome.p_value);
    h_.u64(c.balanced ? 1 : 0);
    h_.u64(c.causal ? 1 : 0);
  }
}

void Answers::eval(const mpa::EvalResult& r) {
  value(r.accuracy);
  for (const auto& row : r.confusion)
    for (int n : row) h_.u64(static_cast<std::uint64_t>(n));
}

void Answers::value(double v) { h_.bytes(&v, sizeof v); }

std::string Answers::hex() const { return hex64(h_.value()); }

}  // namespace mpabench
