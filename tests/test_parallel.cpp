// Tests for the fork-join thread pool (util/parallel.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace mpa {
namespace {

TEST(ThreadPool, DefaultThreadCountRespectsEnv) {
  setenv("MPA_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3);
  setenv("MPA_THREADS", "0", 1);  // not a positive integer -> fallback
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  setenv("MPA_THREADS", "junk", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  unsetenv("MPA_THREADS");
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

TEST(ThreadPool, DefaultThreadCountTreatsMpaThreadsOutsideIntAsUnset) {
  // Regression: the parsed long was cast straight to int, so 2^32 + 1
  // ran one thread and 2^31 a negative count.
  unsetenv("MPA_THREADS");
  const int unset = ThreadPool::default_thread_count();
  for (const char* v : {"4294967297", "2147483648", "99999999999999999999"}) {
    setenv("MPA_THREADS", v, 1);
    EXPECT_EQ(ThreadPool::default_thread_count(), unset) << "MPA_THREADS=" << v;
  }
  setenv("MPA_THREADS", "2147483647", 1);  // INT_MAX itself is a valid count.
  EXPECT_EQ(ThreadPool::default_thread_count(), 2147483647);
  unsetenv("MPA_THREADS");
}

TEST(ThreadPool, DefaultThreadCountTreatsSignsAndSpacesAsUnset) {
  // Regression: strtol skipped leading whitespace and took a '+', so
  // " 3" and "+3" ran 3 threads while --threads refused both. Counts
  // one above the unset value, so a match cannot be a coincidence.
  unsetenv("MPA_THREADS");
  const int unset = ThreadPool::default_thread_count();
  const std::string n = std::to_string(unset + 1);
  for (const std::string& v : {" " + n, "+" + n, n + " ", n + "\n", "0x" + n}) {
    setenv("MPA_THREADS", v.c_str(), 1);
    EXPECT_EQ(ThreadPool::default_thread_count(), unset) << "MPA_THREADS='" << v << "'";
  }
  setenv("MPA_THREADS", n.c_str(), 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), unset + 1);
  unsetenv("MPA_THREADS");
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    pool.parallel_for(n, [&](std::size_t i) { counts[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round)
    pool.parallel_for(20, [&](std::size_t i) { total += static_cast<long>(i); });
  EXPECT_EQ(total.load(), 50 * (19 * 20 / 2));
}

TEST(ThreadPool, EdgeSizes) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "n=0 must not run anything"; });
  std::atomic<int> ran{0};
  pool.parallel_for(1, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a failed job.
  std::atomic<int> ran{0};
  pool.parallel_for(10, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, NestedCallsRunEveryIndex) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

// The outer job's first task returns at once; the second issues a
// nested job whose tasks each wait until two distinct threads have
// entered it. That happens only if a thread other than the nested
// caller, idle once the first task is done, joins the nested job.
TEST(ThreadPool, NestedJobRunsOnIdleWorkers) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> entered;
  std::atomic<bool> met{false};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pool.parallel_for(2, [&](std::size_t outer) {
    if (outer == 0) return;
    pool.parallel_for(2, [&](std::size_t) {
      {
        std::lock_guard<std::mutex> lk(mu);
        entered.insert(std::this_thread::get_id());
        if (entered.size() >= 2) met = true;
      }
      while (!met && std::chrono::steady_clock::now() < deadline) std::this_thread::yield();
    });
  });
  EXPECT_TRUE(met.load()) << "the nested job ran on one thread only";
}

TEST(ThreadPool, NestedExceptionReachesNestedCaller) {
  ThreadPool pool(4);
  std::atomic<int> caught{0};
  std::atomic<int> ran{0};
  pool.parallel_for(6, [&](std::size_t) {
    try {
      pool.parallel_for(10, [&](std::size_t j) {
        if (j == 7) throw std::runtime_error("nested boom");
        ++ran;
      });
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()) == "nested boom") ++caught;
    }
  });
  EXPECT_EQ(caught.load(), 6);  // each nested caller saw its own job's error
  EXPECT_EQ(ran.load(), 6 * 9);
  // The pool survives failed nested jobs, nested and top level.
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(5, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 20);
}

TEST(ThreadPool, ThreeLevelsOfNestingComplete) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> counts(3 * 4 * 5);
    pool.parallel_for(3, [&](std::size_t a) {
      pool.parallel_for(4, [&](std::size_t b) {
        pool.parallel_for(5, [&](std::size_t c) { counts[(a * 4 + b) * 5 + c].fetch_add(1); });
      });
    });
    for (std::size_t i = 0; i < counts.size(); ++i)
      EXPECT_EQ(counts[i].load(), 1) << threads << " threads, index " << i;
    EXPECT_EQ(pool.stats().jobs, 1u + 3u + 12u) << threads << " threads";
  }
}

TEST(ParallelForHelper, NullPoolRunsInline) {
  std::vector<int> out(16, 0);
  parallel_for(nullptr, out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ParallelForHelper, SlotWritesAreOrderIndependent) {
  ThreadPool pool(8);
  std::vector<double> serial(200), pooled(200);
  auto body = [](std::size_t i) { return static_cast<double>(i) * 1.5 + 1; };
  parallel_for(nullptr, serial.size(), [&](std::size_t i) { serial[i] = body(i); });
  parallel_for(&pool, pooled.size(), [&](std::size_t i) { pooled[i] = body(i); });
  EXPECT_EQ(serial, pooled);
}

}  // namespace
}  // namespace mpa
