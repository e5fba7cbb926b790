// Tests of the benchmark's own arithmetic: the tail-percentile rule,
// nearest-rank percentiles, span self time, the backlog-growth rule and
// the sustained-rate rule. run.py runs this before every measurement;
// a non-zero exit stops the benchmark.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "selftest line %d: %s\n", line, what);
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using mpabench::SpanRec;

void test_tail_percentile() {
  using mpabench::tail_percentile;
  EXPECT(tail_percentile(200) == 95.0);    // rank 190, 10 beyond
  EXPECT(tail_percentile(199) == 90.0);    // p95 leaves only 9 beyond
  EXPECT(tail_percentile(1000) == 99.0);   // rank 990, 10 beyond
  EXPECT(tail_percentile(10000) == 99.9);  // rank 9990, 10 beyond
  EXPECT(tail_percentile(20) == 50.0);
  EXPECT(!tail_percentile(19).has_value());
  EXPECT(!tail_percentile(0).has_value());
  EXPECT(tail_percentile(100, 5) == 95.0);
}

void test_percentile_and_median() {
  using mpabench::median;
  using mpabench::percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(percentile(v, 95) == 95);
  EXPECT(percentile(v, 50) == 50);
  EXPECT(percentile(v, 100) == 100);
  EXPECT(percentile(v, 0) == 1);
  EXPECT(percentile({7}, 99.9) == 7);  // never above the largest sample
  EXPECT(percentile({}, 50) == 0);
  EXPECT(median({3, 1, 2}) == 2);
  EXPECT(median({4, 1, 3, 2}) == 2.5);
  EXPECT(median({}) == 0);
}

void test_self_times() {
  using mpabench::self_times;
  // A root [0,100) with two overlapping children [10,30) and [20,50):
  // they cover 40, so the root's self time is 60. The second child has
  // a grandchild [25,35) covering 10 of its 30.
  const std::vector<SpanRec> spans = {
      {-1, 0, 100}, {0, 10, 30}, {0, 20, 50}, {2, 25, 35}};
  const auto self = self_times(spans);
  EXPECT(self.size() == 4);
  EXPECT(self[0] == 60);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 20);
  EXPECT(self[3] == 10);
  // A child that outlives its parent is clipped to the parent.
  const auto clipped = self_times({{-1, 100, 200}, {0, 150, 260}});
  EXPECT(clipped[0] == 50);
  EXPECT(clipped[1] == 110);
  // Disjoint children add up; a span with no children is all self.
  const auto disjoint = self_times({{-1, 0, 10}, {0, 1, 3}, {0, 5, 9}});
  EXPECT(disjoint[0] == 4);
}

void test_backlog_grew() {
  using mpabench::backlog_grew;
  EXPECT(!backlog_grew({}));
  EXPECT(!backlog_grew({0, 1, 0, 1, 0, 1, 0, 1}));
  // Bursts that drain (an ingest stalls the queue, then it empties).
  EXPECT(!backlog_grew({0, 0, 5, 1, 0, 0, 6, 2, 0, 0, 5, 1}));
  std::vector<std::size_t> growing;
  for (std::size_t i = 0; i < 40; ++i) growing.push_back(i / 2);
  EXPECT(backlog_grew(growing));
}

void test_sustained_rate() {
  using mpabench::RatePhase;
  using mpabench::sustained_rate;
  const RatePhase lo{10, 300, false, 0};
  const RatePhase hi_ok{20, 450, false, 0};
  const RatePhase hi_slow{20, 700, false, 0};
  const RatePhase hi_growing{20, 450, true, 0};
  const RatePhase hi_failed{20, 450, false, 1};
  EXPECT(sustained_rate({lo, hi_ok}, 500) == 20.0);
  EXPECT(sustained_rate({lo, hi_slow}, 500) == 10.0);
  EXPECT(sustained_rate({lo, hi_growing}, 500) == 10.0);
  EXPECT(sustained_rate({lo, hi_failed}, 500) == 10.0);
  EXPECT(sustained_rate({hi_ok, lo}, 500) == 20.0);  // order does not matter
  EXPECT(!sustained_rate({RatePhase{10, 900, false, 0}}, 500).has_value());
  EXPECT(sustained_rate({lo}, 300) == 10.0);  // the limit is inclusive
}

}  // namespace

int main() {
  test_tail_percentile();
  test_percentile_and_median();
  test_self_times();
  test_backlog_grew();
  test_sustained_rate();
  if (g_failures != 0) {
    std::fprintf(stderr, "mpabench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "mpabench selftest: ok\n");
  return 0;
}
