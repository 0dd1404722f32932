#include "parabb/support/threadpool.hpp"

#include <algorithm>

#include "parabb/support/assert.hpp"

namespace parabb {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { run_worker(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(DrainPolicy::kDrain); }

std::size_t ThreadPool::shutdown(DrainPolicy policy) {
  std::size_t discarded = 0;
  {
    std::lock_guard lock(mutex_);
    if (stop_) return 0;  // idempotent: a prior shutdown already joined
    stop_ = true;
    if (policy == DrainPolicy::kDiscard) {
      discarded = queue_.size();
      queue_.clear();
    }
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  // Discarded jobs never run, so wait_idle callers must be released here.
  cv_idle_.notify_all();
  return discarded;
}

bool ThreadPool::stopped() const {
  std::lock_guard lock(mutex_);
  return stop_;
}

void ThreadPool::submit(std::function<void()> job) {
  PARABB_REQUIRE(static_cast<bool>(job), "submitted job must be callable");
  {
    std::lock_guard lock(mutex_);
    PARABB_REQUIRE(!stop_, "submit after shutdown");
    queue_.push_back(std::move(job));
    ++submitted_;
  }
  cv_work_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    submit([i, &fn] { fn(i); });
  }
  wait_idle();
}

void ThreadPool::run_worker() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    job();  // noexcept by contract; a throw terminates (fail fast)
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
    }
    cv_idle_.notify_all();
  }
}

}  // namespace parabb
