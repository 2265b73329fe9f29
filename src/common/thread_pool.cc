// Copyright 2026 The Microbrowse Authors

#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/failpoint.h"

namespace microbrowse {

namespace {

/// Runs one task, translating escaped exceptions into Status — a worker
/// thread must never unwind into std::terminate.
Status RunGuarded(const std::function<Status()>& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("uncaught exception in pool task: ") + e.what());
  } catch (...) {
    return Status::Internal("uncaught non-std exception in pool task");
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::SubmitFallible(std::function<Status()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

Status ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  Status status = std::move(first_failure_);
  first_failure_ = Status::OK();
  has_failure_ = false;
  return status;
}

Status ThreadPool::ParallelForFallible(size_t count,
                                       const std::function<Status(size_t)>& fn) {
  for (size_t i = 0; i < count; ++i) {
    SubmitFallible([&fn, i] { return fn(i); });
  }
  return Wait();
}

void ThreadPool::ParallelForAll(size_t count, const std::function<void(size_t)>& fn) {
  std::vector<char> done(count, 0);
  // The Status only says that some task failed; `done` says which.
  (void)ParallelForFallible(count, [&](size_t i) {
    fn(i);
    done[i] = 1;
    return Status::OK();
  });
  for (size_t i = 0; i < count; ++i) {
    if (!done[i]) fn(i);
  }
}

void ThreadPool::RecordFailure(const Status& status) {
  if (!has_failure_) {
    has_failure_ = true;
    first_failure_ = status;
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<Status()> task;
    bool skip = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting_down_ with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
      // Graceful drain: once one task failed, the remaining queue is
      // discarded unrun — its results would be thrown away by the caller
      // anyway.
      skip = has_failure_;
    }
    if (!skip) {
      // Injection point for rehearsing worker faults without a crafted task.
      Status status = failpoint::Check("threadpool.task");
      if (status.ok()) status = RunGuarded(task);
      if (!status.ok()) {
        std::unique_lock<std::mutex> lock(mu_);
        RecordFailure(status);
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace microbrowse
