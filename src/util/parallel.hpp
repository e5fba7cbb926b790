// Deterministic fork-join parallelism for the MPA engine.
//
// A ThreadPool runs index-based jobs (`parallel_for`): threads pull
// indices from a shared atomic counter, so scheduling is dynamic but
// the work done for index i is exactly the same regardless of thread
// count. Every parallel stage in the library is structured so that
// task i writes only to slot i of a pre-sized output and any RNG
// stream it needs was forked on the calling thread in index order —
// which makes results bit-identical between 1 thread and N threads.
//
// Jobs nest. The pool keeps a list of open jobs, each tagged with its
// depth: 0 for a top-level call, and one more than the enclosing
// task's job for a parallel_for issued from inside a task of the same
// pool. A nested call publishes its job beside the running ones
// instead of running inline. Every caller runs its own job's indices,
// then helps only jobs deeper than its own until its job drains, so it
// never waits behind shallower work and its stack grows by at most the
// nesting depth. A worker out of work joins the shallowest open job
// with indices left, the oldest at that depth: a top-level job's
// remaining tasks before the nested jobs inside the running ones.
// Before it sleeps, an idle worker or waiting caller polls for up to
// kSpinNs, since nested jobs arrive tens of microseconds apart.
//
// The pool size defaults to the MPA_THREADS environment variable,
// falling back to the hardware concurrency. A pool of size 1 spawns
// no workers and runs everything inline, as does a job of one index
// and a call made from inside a task of another pool.
//
// Locking (checked by clang thread-safety analysis, DESIGN.md §12):
// mu_ guards the open-job list, the stop flag and the counts of
// sleeping threads, and backs both condition variables (wake_ for idle
// workers, done_ for callers waiting on their job). job_mu_ serializes
// top-level callers and is the one place in the library where two
// locks nest — job_mu_ is always acquired before mu_, never the
// reverse; a nested call takes mu_ alone. Job progress counters are
// atomics; a thread joins or leaves a job only under mu_, which is what
// lets a caller free its job once it has drained.
#pragma once

#include <algorithm>
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
    std::uint64_t inline_jobs = 0;    ///< Jobs run without publishing them.
    std::uint64_t worker_joins = 0;   ///< Joins of a job by a thread other than its caller.
    std::uint64_t queue_wait_ns = 0;  ///< Total publish-to-join latency.
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
  /// any task is rethrown here after the job drains. A call from
  /// inside a task of this pool is a nested job that idle threads
  /// help with (see the file comment).
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) EXCLUDES(job_mu_, mu_) {
    if (n == 0) return;
    jobs_.fetch_add(1, std::memory_order_relaxed);
    tasks_.fetch_add(n, std::memory_order_relaxed);
    const Region region = this_region();
    if (threads_ <= 1 || n == 1 || (region.pool != nullptr && region.pool != this)) {
      inline_jobs_.fetch_add(1, std::memory_order_relaxed);
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    Job job;
    job.body = [&fn](std::size_t i) { fn(i); };
    job.limit = n;
    if (region.pool == this) {
      job.depth = region.depth + 1;
      run_job(job);
    } else {
      MutexLock job_lock(job_mu_);  // one top-level job at a time (job_mu_ -> mu_ order)
      run_job(job);
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
    int depth = 0;                // 0 for a top-level call
    std::uint64_t submit_ns = 0;  // for queue-wait accounting
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::atomic<int> participants{0};  // joined threads other than the caller
    Mutex error_mu;
    std::exception_ptr error GUARDED_BY(error_mu);
  };

  /// The pool and job depth of the task this thread is running, if any.
  struct Region {
    const ThreadPool* pool = nullptr;
    int depth = 0;
  };

  static std::uint64_t clock_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  static Region& this_region() {
    thread_local Region region;
    return region;
  }

  /// Publish `job`, run its indices, then help deeper jobs until every
  /// task has finished and every joined thread has stepped out of it.
  void run_job(Job& job) EXCLUDES(mu_) {
    job.submit_ns = clock_ns();
    {
      MutexLock lk(mu_);
      open_.push_back(&job);
      published_.fetch_add(1);
      if (idle_workers_ > 0) wake_.notify_all();
      if (waiting_callers_ > 0) done_.notify_all();  // they may help a deeper job
    }
    run_tasks(job);
    const auto drained = [&job] {
      return job.completed.load() == job.limit && job.participants.load() == 0;
    };
    MutexLock lk(mu_);
    while (!drained()) {
      if (Job* deeper = open_job(job.depth + 1)) {
        join(*deeper);
        continue;
      }
      const std::uint64_t seen = published_.load();
      lk.unlock();
      spin_until([&] { return drained() || published_.load() != seen; });
      lk.lock();
      if (drained() || open_job(job.depth + 1) != nullptr) continue;
      ++waiting_callers_;
      done_.wait(mu_);
      --waiting_callers_;
    }
    open_.erase(std::find(open_.begin(), open_.end(), &job));
  }

  /// Poll `ready` for up to kSpinNs, yielding between polls. A thread
  /// does this with mu_ released before it sleeps: nested jobs come
  /// in bursts tens of microseconds apart, about what a sleeping
  /// thread takes to wake.
  template <typename Ready>
  static void spin_until(Ready ready) {
    const std::uint64_t until = clock_ns() + kSpinNs;
    while (!ready() && clock_ns() < until) std::this_thread::yield();
  }

  /// Claim and run `job`'s indices until none are left.
  void run_tasks(Job& job) EXCLUDES(mu_) {
    Region& region = this_region();
    const Region outer = region;
    region = Region{this, job.depth};
    while (true) {
      const std::size_t i = job.next.fetch_add(1);
      if (i >= job.limit) break;
      try {
        job.body(i);
      } catch (...) {
        MutexLock lk(job.error_mu);
        if (!job.error) job.error = std::current_exception();
      }
      job.completed.fetch_add(1);
    }
    region = outer;
  }

  /// The shallowest open job at least `min_depth` deep with indices
  /// left, the oldest among equals; null when there is none.
  Job* open_job(int min_depth) REQUIRES(mu_) {
    Job* best = nullptr;
    for (Job* job : open_)
      if (job->depth >= min_depth && job->next.load() < job->limit &&
          (best == nullptr || job->depth < best->depth))
        best = job;
    return best;
  }

  /// Run tasks of a job this thread did not publish. Joining and
  /// leaving under mu_ is what the job's caller waits on before it
  /// frees the job: a thread that ran the last task still touches
  /// job.next once more on its way out.
  void join(Job& job) REQUIRES(mu_) {
    job.participants.fetch_add(1, std::memory_order_relaxed);
    worker_joins_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t joined = clock_ns();
    if (joined > job.submit_ns)
      queue_wait_ns_.fetch_add(joined - job.submit_ns, std::memory_order_relaxed);
    mu_.unlock();
    run_tasks(job);
    mu_.lock();
    if (job.participants.fetch_sub(1, std::memory_order_relaxed) == 1 &&
        job.completed.load() == job.limit && waiting_callers_ > 0)
      done_.notify_all();
  }

  void worker_loop() EXCLUDES(mu_) {
    MutexLock lk(mu_);
    while (true) {
      Job* job = open_job(0);
      if (job == nullptr && !stop_) {
        const std::uint64_t seen = published_.load();
        lk.unlock();
        spin_until([&] { return published_.load() != seen; });
        lk.lock();
        job = open_job(0);
      }
      while (!stop_ && job == nullptr) {
        ++idle_workers_;
        wake_.wait(mu_);
        --idle_workers_;
        job = open_job(0);
      }
      if (stop_) return;  // lk releases on scope exit
      join(*job);
    }
  }

  static constexpr std::uint64_t kSpinNs = 50'000;

  const int threads_;
  std::vector<std::thread> workers_;
  Mutex mu_;      // guards open_, stop_, the sleeper counts and the cv handshakes
  Mutex job_mu_;  // serializes top-level parallel_for callers; precedes mu_
  CondVar wake_;  // idle workers: a job was published, or stop_
  CondVar done_;  // waiting callers: a job drained, or a deeper one was published
  std::vector<Job*> open_ GUARDED_BY(mu_);  // publication order
  int idle_workers_ GUARDED_BY(mu_) = 0;
  int waiting_callers_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  std::atomic<std::uint64_t> published_{0};  // jobs ever published; polled while spinning

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
