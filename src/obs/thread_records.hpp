// One per-thread record stream, used by the span tracer and the event
// log alike: each thread appends to its own buffer and the buffers are
// merged only when the stream is read, so the engine's fork-join pool
// never contends on a shared lock. A buffer is registered on its
// thread's first append (its tid is the registration order, from 1)
// and co-owned by the stream, so records outlive their thread until
// clear(). The buffer is found through a thread_local, so there is one
// stream per record type, held by its process-wide singleton
// (Tracer::global(), Logger::global()).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace mpa::obs {

template <typename Record>
class ThreadRecords {
 public:
  /// Append to the calling thread's buffer; when the buffer is at its
  /// bound, overwrite its oldest record and count it in dropped().
  void append(Record&& rec) EXCLUDES(mu_) {
    Buffer& buf = local_buffer();
    const std::size_t cap = capacity_.load(std::memory_order_relaxed);
    MutexLock lk(buf.mu);
    if (cap == 0 || buf.records.size() < cap) {
      buf.records.push_back(std::move(rec));
      return;
    }
    if (buf.next >= buf.records.size()) buf.next = 0;
    buf.records[buf.next++] = std::move(rec);
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Bound each buffer to its most recent n records (0 = unbounded, the
  /// default). Takes effect for later appends; shrinking evicts nothing.
  void set_capacity(std::size_t n) { capacity_.store(n, std::memory_order_relaxed); }
  /// Records overwritten by the bound since the last clear().
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Call visit(tid, record) for every record, each buffer under its
  /// own lock.
  template <typename Visit>
  void for_each(Visit&& visit) const EXCLUDES(mu_) {
    for (const auto& buf : registered()) {
      MutexLock lk(buf->mu);
      for (const Record& rec : buf->records) visit(buf->tid, rec);
    }
  }

  /// Empty every buffer, keeping the registrations, and zero dropped().
  void clear() EXCLUDES(mu_) {
    for (const auto& buf : registered()) {
      MutexLock lk(buf->mu);
      buf->records.clear();
      buf->next = 0;
    }
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Buffer {
    Mutex mu;  ///< Uncontended except while the stream is read or cleared.
    std::vector<Record> records GUARDED_BY(mu);
    std::size_t next GUARDED_BY(mu) = 0;  ///< Overwrite cursor once bounded.
    std::uint32_t tid = 0;                ///< Written before registration.
  };

  Buffer& local_buffer() EXCLUDES(mu_) {
    thread_local std::shared_ptr<Buffer> buf;
    if (buf == nullptr) {
      buf = std::make_shared<Buffer>();
      MutexLock lk(mu_);
      buf->tid = static_cast<std::uint32_t>(buffers_.size()) + 1;
      buffers_.push_back(buf);
    }
    return *buf;
  }

  std::vector<std::shared_ptr<Buffer>> registered() const EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return buffers_;
  }

  mutable Mutex mu_;  ///< Guards buffers_.
  std::vector<std::shared_ptr<Buffer>> buffers_ GUARDED_BY(mu_);
  std::atomic<std::size_t> capacity_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace mpa::obs
