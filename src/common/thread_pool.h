// Copyright 2026 The Microbrowse Authors
//
// A small fixed-size thread pool. Cross-validation folds and stats-build
// chunks are embarrassingly parallel; the pool keeps that parallelism explicit and
// bounded. On single-core hosts a pool of one thread degenerates gracefully.
//
// Error handling: every task returns Status, and a failing task does not
// take the process down — the pool records the first failure, skips the
// tasks still queued (the queue drains gracefully), and Wait() surfaces
// that first Status to the caller. Exceptions escaping a task are
// captured as kInternal.

#ifndef MICROBROWSE_COMMON_THREAD_POOL_H_
#define MICROBROWSE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace microbrowse {

/// Fixed-size worker pool executing Status-returning tasks FIFO.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to at least one).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`. Must not be called after destruction began. The
  /// first non-OK return (or escaped exception) is recorded and reported by
  /// the next Wait(); once a failure is recorded, tasks still in the queue
  /// are drained without running (their work would be discarded anyway).
  void SubmitFallible(std::function<Status()> task);

  /// Blocks until every submitted task has finished or been drained, then
  /// returns the first recorded failure (OK when none). The failure is
  /// cleared, so the pool is reusable for another round of work.
  Status Wait();

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// Runs `fn(i)` for i in [0, count) across the pool, waits, and returns
  /// the first failure. After a failure, not-yet-started indices are
  /// skipped. `fn` must be safe to invoke concurrently for distinct
  /// indices.
  Status ParallelForFallible(size_t count, const std::function<Status(size_t)>& fn);

  /// Runs `fn(i)` for every i in [0, count): across the pool first, then
  /// on the calling thread for each index whose task did not finish. A
  /// pool task can fail without running `fn` (a worker fault) or part way
  /// through it (an escaped exception), which also skips the indices still
  /// queued, and ParallelForFallible's Status does not say which index
  /// failed; here none is lost. `fn` must start each index afresh, since a
  /// rerun may follow a partial run.
  void ParallelForAll(size_t count, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  void RecordFailure(const Status& status);

  std::vector<std::thread> workers_;
  std::deque<std::function<Status()>> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
  bool has_failure_ = false;
  Status first_failure_;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_COMMON_THREAD_POOL_H_
