#include "core/trial_pool.hpp"

#include <algorithm>
#include <utility>

#include "core/run_env.hpp"

namespace robustore::core {

TrialPool::TrialPool(unsigned threads) {
  unsigned n = threads == 0 ? defaultThreads() : threads;
  if (n == 0) n = 1;
  if (n > RunEnv::kMaxThreads) n = RunEnv::kMaxThreads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

TrialPool::~TrialPool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void TrialPool::submit(std::function<void()> job) {
  {
    std::unique_lock lock(mutex_);
    queue_.push_back(std::move(job));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void TrialPool::wait() {
  std::unique_lock lock(mutex_);
  batch_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void TrialPool::forEachIndex(std::uint32_t count,
                             const std::function<void(std::uint32_t)>& job) {
  for (std::uint32_t i = 0; i < count; ++i) {
    submit([&job, i] { job(i); });
  }
  wait();
}

void TrialPool::workerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr err;
    try {
      job();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::unique_lock lock(mutex_);
      if (err && !first_error_) first_error_ = err;
      if (--in_flight_ == 0) batch_done_.notify_all();
    }
  }
}

unsigned TrialPool::defaultThreads() {
  return RunEnv::threads(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace robustore::core
