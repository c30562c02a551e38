#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace robustore::core {

/// Fixed-size worker pool for fanning independent simulation trials out
/// across cores.
///
/// Determinism contract: the pool never reorders *results* — callers hand
/// it index-tagged jobs that write into pre-sized slots, then reduce the
/// slots in index order on the calling thread. Scheduling order is
/// arbitrary; observable output is not.
class TrialPool {
 public:
  /// `threads == 0` resolves to defaultThreads(). The pool always keeps at
  /// least one worker.
  explicit TrialPool(unsigned threads = 0);

  /// Joins all workers; pending jobs are still drained first.
  ~TrialPool();

  TrialPool(const TrialPool&) = delete;
  TrialPool& operator=(const TrialPool&) = delete;

  [[nodiscard]] unsigned threadCount() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues one job. Jobs may run on any worker, in any order.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished. If any job threw, the
  /// first captured exception is rethrown here (remaining jobs still run
  /// to completion so slot writers never observe torn batches).
  void wait();

  /// Convenience fan-out: runs `job(i)` for every `i` in `[0, count)` and
  /// waits. The canonical use writes `job(i)`'s result into slot `i` of a
  /// pre-sized vector; the caller then reduces slots in index order.
  void forEachIndex(std::uint32_t count,
                    const std::function<void(std::uint32_t)>& job);

  /// Worker count used when the caller does not pin one: the
  /// ROBUSTORE_THREADS environment variable if set and valid, otherwise
  /// std::thread::hardware_concurrency() (minimum 1).
  [[nodiscard]] static unsigned defaultThreads();

 private:
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace robustore::core
