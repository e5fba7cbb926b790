#include "mpa/dependence.hpp"

#include <algorithm>
#include <chrono>

#include "stats/contingency.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mpa {
namespace {

// MI of one binned practice column with health over one month block,
// using a caller-owned scratch table (allocation-free across calls).
double month_mi(const BinnedCaseView& view, Practice p, std::size_t mi,
                ContingencyTable& scratch) {
  scratch.reset(view.practice_cardinality(p), view.health_cardinality());
  scratch.count(view.practice_month(p, mi), view.health_month(mi));
  return scratch.mutual_information();
}

// CMI of a practice pair given health over one month block.
double month_cmi(const BinnedCaseView& view, Practice a, Practice b, std::size_t mi,
                 CmiAccumulator& scratch) {
  scratch.reset(view.practice_cardinality(a), view.practice_cardinality(b),
                view.health_cardinality());
  scratch.count(view.practice_month(a, mi), view.practice_month(b, mi), view.health_month(mi));
  return scratch.value();
}

// The ~P^2/2 practice pairs in (ai, bi) enumeration order, each CMI
// still 0 — the fixed order every pair's slot is written in.
std::vector<PairCmi> analysis_pairs() {
  const auto analysis_set = analysis_practices();
  std::vector<PairCmi> pairs;
  pairs.reserve(analysis_set.size() * (analysis_set.size() - 1) / 2);
  for (std::size_t ai = 0; ai < analysis_set.size(); ++ai)
    for (std::size_t bi = ai + 1; bi < analysis_set.size(); ++bi)
      pairs.push_back(PairCmi{analysis_set[ai], analysis_set[bi], 0.0});
  return pairs;
}

// Average of `term(mi)` over the month blocks with at least 2 cases,
// summed in month order from 0.0 (0 when no month qualifies).
template <typename Term>
double avg_monthly(const BinnedCaseView& view, Term term) {
  double total = 0;
  int months = 0;
  for (std::size_t mi = 0; mi < view.num_months(); ++mi) {
    if (view.month_size(mi) < 2) continue;
    total += term(mi);
    ++months;
  }
  return months == 0 ? 0 : total / months;
}

}  // namespace

DependenceAnalysis::DependenceAnalysis(const CaseTable& table, const DependenceOptions& opts)
    : view_((require(!table.empty(), "DependenceAnalysis: empty case table"), table)) {
  // Average monthly MI per practice (analysis set only; the excluded
  // identity metrics would just duplicate their parents).
  ContingencyTable mi_scratch;
  for (Practice p : analysis_practices())
    mi_.push_back(PracticeMi{
        p, avg_monthly(view_, [&](std::size_t mi) { return month_mi(view_, p, mi, mi_scratch); })});
  std::sort(mi_.begin(), mi_.end(), [](const PracticeMi& a, const PracticeMi& b) {
    return a.avg_monthly_mi > b.avg_monthly_mi;
  });

  // Average monthly CMI per practice pair, given health. Each task
  // writes only its own pair's slot, so the ranking sort sees the same
  // sequence at any thread count.
  cmi_ = analysis_pairs();
  if (opts.record_pair_times) pair_seconds_.assign(cmi_.size(), 0.0);
  parallel_for(opts.pool, cmi_.size(), [&](std::size_t pi) {
    const auto start = opts.record_pair_times ? std::chrono::steady_clock::now()
                                              : std::chrono::steady_clock::time_point{};
    thread_local CmiAccumulator scratch;
    PairCmi& pair = cmi_[pi];
    pair.avg_monthly_cmi = avg_monthly(
        view_, [&](std::size_t mi) { return month_cmi(view_, pair.a, pair.b, mi, scratch); });
    if (opts.record_pair_times)
      pair_seconds_[pi] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  });
  std::sort(cmi_.begin(), cmi_.end(), [](const PairCmi& a, const PairCmi& b) {
    return a.avg_monthly_cmi > b.avg_monthly_cmi;
  });
}

std::pair<double, double> DependenceAnalysis::mi_confidence_interval(Practice p, Rng& rng,
                                                                     int rounds, double lo_pct,
                                                                     double hi_pct) const {
  require(rounds >= 10, "mi_confidence_interval: need at least 10 rounds");
  const int cx = view_.practice_cardinality(p);
  const int cy = view_.health_cardinality();
  ContingencyTable scratch;
  std::vector<double> replicates;
  replicates.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    replicates.push_back(avg_monthly(view_, [&](std::size_t mi) {
      const std::size_t len = view_.month_size(mi);
      const std::span<const int> xs = view_.practice_month(p, mi);
      const std::span<const int> ys = view_.health_month(mi);
      // Resample with replacement straight into the contingency table —
      // no intermediate sample vectors.
      scratch.reset(cx, cy);
      for (std::size_t k = 0; k < len; ++k) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(len) - 1));
        scratch.add(xs[pick], ys[pick]);
      }
      return scratch.mutual_information();
    }));
  }
  return {percentile(replicates, lo_pct), percentile(replicates, hi_pct)};
}

std::vector<PracticeMi> DependenceAnalysis::top_practices(std::size_t k) const {
  return {mi_.begin(), mi_.begin() + static_cast<std::ptrdiff_t>(std::min(k, mi_.size()))};
}

std::vector<PairCmi> DependenceAnalysis::top_pairs(std::size_t k) const {
  return {cmi_.begin(), cmi_.begin() + static_cast<std::ptrdiff_t>(std::min(k, cmi_.size()))};
}

}  // namespace mpa
