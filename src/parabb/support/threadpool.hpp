// Fixed-size thread pool used to run independent experiment replications
// and solver-service jobs in parallel. Deliberately simple: a mutex-guarded
// FIFO of std::function jobs plus a wait-for-idle barrier; throughput is
// bounded by the B&B searches themselves, not by queue contention.
//
// Shutdown semantics are deterministic: shutdown(kDrain) — and the
// destructor, which calls it — runs every job that was ever accepted by
// submit() before the workers exit; shutdown(kDiscard) drops the jobs
// still queued (reporting how many) but always finishes the jobs already
// running. Work is never dropped silently.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace parabb {

class ThreadPool {
 public:
  /// What shutdown() does with jobs still queued (not yet running).
  enum class DrainPolicy : std::uint8_t {
    kDrain,    ///< run every queued job to completion, then stop
    kDiscard,  ///< drop queued jobs (counted); running jobs still finish
  };

  /// `threads == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Equivalent to shutdown(DrainPolicy::kDrain): every accepted job runs.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueue a job. Jobs must not throw; exceptions escaping a job abort.
  /// Throws precondition_error after shutdown() has begun.
  void submit(std::function<void()> job);

  /// Block until every submitted job has finished.
  void wait_idle();

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Stops the pool and joins the workers. Returns the number of queued
  /// jobs discarded (always 0 under kDrain). Idempotent: the second and
  /// later calls return 0 without touching anything. After shutdown,
  /// submit() throws and wait_idle() returns immediately.
  std::size_t shutdown(DrainPolicy policy = DrainPolicy::kDrain);

  /// True once shutdown() has begun (no further submissions accepted).
  bool stopped() const;

  /// Jobs queued but not yet claimed by a worker (point-in-time snapshot;
  /// for observability gauges, not for control flow).
  std::size_t queue_depth() const {
    const std::lock_guard lock(mutex_);
    return queue_.size();
  }

  /// Total jobs ever accepted by submit().
  std::uint64_t submitted_total() const {
    const std::lock_guard lock(mutex_);
    return submitted_;
  }

 private:
  void run_worker();

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;
  std::uint64_t submitted_ = 0;
  bool stop_ = false;
};

}  // namespace parabb
