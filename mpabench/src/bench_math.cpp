#include "bench_math.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mpabench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::optional<double> tail_percentile(std::size_t n, std::size_t beyond) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Integer form of ceil(p/100 * n) with p in tenths of a percent, so
    // 95% of 200 is exactly rank 190.
    const auto tenths = static_cast<std::size_t>(std::lround(p * 10));
    const std::size_t rank = (tenths * n + 999) / 1000;
    if (rank >= 1 && n - rank >= beyond) return p;
  }
  return std::nullopt;
}

std::vector<std::uint64_t> self_times(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const SpanRec& s : spans)
    if (s.parent >= 0) {
      const SpanRec& p = spans[static_cast<std::size_t>(s.parent)];
      const std::uint64_t b = std::max(s.start_ns, p.start_ns);
      const std::uint64_t e = std::min(s.end_ns, p.end_ns);
      if (b < e) children[static_cast<std::size_t>(s.parent)].emplace_back(b, e);
    }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t run_b = 0;
    std::uint64_t run_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) covered += run_e - run_b;
      run_b = b;
      run_e = e;
      open = true;
    }
    if (open) covered += run_e - run_b;
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

bool backlog_grew(const std::vector<std::size_t>& outstanding_at_send) {
  const std::size_t q = outstanding_at_send.size() / 4;
  if (q == 0) return false;
  double first = 0;
  double last = 0;
  for (std::size_t i = 0; i < q; ++i) {
    first += static_cast<double>(outstanding_at_send[i]);
    last += static_cast<double>(outstanding_at_send[outstanding_at_send.size() - q + i]);
  }
  first /= static_cast<double>(q);
  last /= static_cast<double>(q);
  return last > 2 * first + 1;
}

std::optional<double> sustained_rate(const std::vector<RatePhase>& phases, double limit_ms) {
  std::optional<double> best;
  for (const RatePhase& ph : phases)
    if (ph.p95_ms <= limit_ms && !ph.backlog_grew && ph.failed == 0 &&
        (!best || ph.rate > *best))
      best = ph.rate;
  return best;
}

}  // namespace mpabench
