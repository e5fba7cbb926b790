// Deterministic fork-join parallelism for the MPA engine.
//
// A ThreadPool runs index-based jobs (`parallel_for`): workers pull
// indices from a shared atomic counter, so scheduling is dynamic but
// the work done for index i is exactly the same regardless of thread
// count. Every parallel stage in the library is structured so that
// task i writes only to slot i of a pre-sized output and any RNG
// stream it needs was forked on the calling thread in index order —
// which makes results bit-identical between 1 thread and N threads.
//
// The pool size defaults to the MPA_THREADS environment variable,
// falling back to the hardware concurrency. A pool of size 1 spawns
// no workers and runs everything inline, as does a nested
// parallel_for issued from inside a worker.
//
// Locking (checked by clang thread-safety analysis, DESIGN.md §12):
// mu_ guards the job slot and stop flag and backs both condition
// variables; job_mu_ serializes concurrent parallel_for callers and is
// the one place in the library where two locks nest — job_mu_ is
// always acquired before mu_, never the reverse. Job progress counters
// are atomics, read inside wait predicates under mu_ only to pair with
// the notify protocol.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "util/number.hpp"
#include "util/sync.hpp"

namespace mpa {

class ThreadPool {
 public:
  /// MPA_THREADS if it is a positive count under the number rule
  /// (util/number.hpp), else the hardware concurrency (else 1). Any
  /// other value (" 3", "+3", one outside int) counts as unset.
  static int default_thread_count() {
    if (const std::optional<int> n = env_count("MPA_THREADS")) return *n;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  explicit ThreadPool(int threads = default_thread_count())
      : threads_(threads < 1 ? 1 : threads) {
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int t = 0; t + 1 < threads_; ++t)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lk(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
  }

  /// Total threads that execute job bodies (workers + caller).
  int size() const { return threads_; }

  /// Lifetime execution counters, maintained with relaxed atomics (a
  /// handful of adds per job, not per task — negligible overhead).
  /// `jobs` and `tasks` are structural and therefore identical at any
  /// thread count; `inline_jobs`, `worker_joins`, and `queue_wait_ns`
  /// depend on scheduling and are timing-class metrics. The obs layer
  /// (src/obs/) exports these; the pool itself stays dependency-free.
  struct Stats {
    std::uint64_t jobs = 0;           ///< parallel_for invocations (n > 0).
    std::uint64_t tasks = 0;          ///< Task bodies run (sum of n).
    std::uint64_t inline_jobs = 0;    ///< Jobs run without pool dispatch.
    std::uint64_t worker_joins = 0;   ///< Worker wakeups that joined a job.
    std::uint64_t queue_wait_ns = 0;  ///< Total submit-to-join latency.
  };
  Stats stats() const {
    Stats s;
    s.jobs = jobs_.load(std::memory_order_relaxed);
    s.tasks = tasks_.load(std::memory_order_relaxed);
    s.inline_jobs = inline_jobs_.load(std::memory_order_relaxed);
    s.worker_joins = worker_joins_.load(std::memory_order_relaxed);
    s.queue_wait_ns = queue_wait_ns_.load(std::memory_order_relaxed);
    return s;
  }

  /// Run fn(i) for every i in [0, n), blocking until all complete.
  /// The calling thread participates. The first exception thrown by
  /// any task is rethrown here after the job drains. Nested calls
  /// (from inside a task) run inline.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) EXCLUDES(job_mu_, mu_) {
    if (n == 0) return;
    jobs_.fetch_add(1, std::memory_order_relaxed);
    tasks_.fetch_add(n, std::memory_order_relaxed);
    if (threads_ <= 1 || n == 1 || in_region()) {
      inline_jobs_.fetch_add(1, std::memory_order_relaxed);
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    MutexLock job_lock(job_mu_);  // one job at a time (job_mu_ -> mu_ order)
    Job job;
    job.body = [&fn](std::size_t i) { fn(i); };
    job.limit = n;
    job.submit_ns = clock_ns();
    {
      MutexLock lk(mu_);
      job_ = &job;
    }
    wake_.notify_all();
    run_region(job);
    {
      // Wait for every body to finish AND every worker to step out of
      // the job before destroying it: a worker that ran the last task
      // still touches job.next once more on its way out of the loop.
      MutexLock lk(mu_);
      while (!(job.completed.load() == job.limit && job.participants.load() == 0)) done_.wait(mu_);
      job_ = nullptr;
    }
    std::exception_ptr error;
    {
      // The job has drained, but error is guarded: read it under its
      // mutex rather than asserting quiescence to the analysis.
      MutexLock lk(job.error_mu);
      error = job.error;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  struct Job {
    std::function<void(std::size_t)> body;
    std::size_t limit = 0;
    std::uint64_t submit_ns = 0;  // for queue-wait accounting
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::atomic<int> participants{0};  // workers currently inside run_region
    Mutex error_mu;
    std::exception_ptr error GUARDED_BY(error_mu);
  };

  static std::uint64_t clock_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  static bool& in_region() {
    thread_local bool flag = false;
    return flag;
  }

  void run_region(Job& job) EXCLUDES(mu_) {
    in_region() = true;
    while (true) {
      const std::size_t i = job.next.fetch_add(1);
      if (i >= job.limit) break;
      try {
        job.body(i);
      } catch (...) {
        MutexLock lk(job.error_mu);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.completed.fetch_add(1) + 1 == job.limit) {
        { MutexLock lk(mu_); }  // pair with waiter's check
        done_.notify_all();
      }
    }
    in_region() = false;
  }

  void worker_loop() EXCLUDES(mu_) {
    MutexLock lk(mu_);
    while (true) {
      while (!(stop_ || (job_ != nullptr && job_->next.load() < job_->limit))) wake_.wait(mu_);
      if (stop_) return;  // lk releases on scope exit
      Job* job = job_;
      job->participants.fetch_add(1, std::memory_order_relaxed);
      worker_joins_.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t joined = clock_ns();
      if (joined > job->submit_ns)
        queue_wait_ns_.fetch_add(joined - job->submit_ns, std::memory_order_relaxed);
      lk.unlock();
      run_region(*job);
      lk.lock();
      // Ordered against the caller's predicate check by mu_; after
      // this the worker never touches *job again.
      job->participants.fetch_sub(1, std::memory_order_relaxed);
      done_.notify_all();
    }
  }

  const int threads_;
  std::vector<std::thread> workers_;
  Mutex mu_;      // guards job_ / stop_ and the cv handshakes
  Mutex job_mu_;  // serializes concurrent parallel_for callers; precedes mu_
  CondVar wake_;
  CondVar done_;
  Job* job_ GUARDED_BY(mu_) = nullptr;
  bool stop_ GUARDED_BY(mu_) = false;

  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> inline_jobs_{0};
  std::atomic<std::uint64_t> worker_joins_{0};
  std::atomic<std::uint64_t> queue_wait_ns_{0};
};

/// Convenience wrapper: run on `pool` when provided, inline otherwise.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  } else {
    pool->parallel_for(n, static_cast<Fn&&>(fn));
  }
}

}  // namespace mpa
