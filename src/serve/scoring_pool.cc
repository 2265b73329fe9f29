// Copyright 2026 The Microbrowse Authors

#include "serve/scoring_pool.h"

#include <algorithm>
#include <iterator>

namespace microbrowse {
namespace serve {

ScoringPool::ScoringPool(Options options, BatchHandler handler)
    : options_(options), handler_(std::move(handler)) {
  options_.num_workers = std::max(1, options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ScoringPool::~ScoringPool() { Stop(); }

bool ScoringPool::Submit(const std::shared_ptr<ReactorConn>& connection,
                         std::string_view line, Deadline deadline, uint64_t seq) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= options_.max_queue) return false;
    ScoringTask& task = queue_.emplace_back();
    task.connection = connection;
    if (!spare_lines_.empty()) {
      task.line = std::move(spare_lines_.back());
      spare_lines_.pop_back();
    }
    task.line.assign(line);
    task.deadline = deadline;
    task.seq = seq;
  }
  work_cv_.notify_one();
  return true;
}

void ScoringPool::WorkerLoop() {
  // Reused across drains: a warm worker allocates no batch vector.
  std::vector<ScoringTask> batch;
  batch.reserve(kMaxBatch);
  for (;;) {
    // Drop the connection references before taking the lock: the last one
    // may destroy its connection.
    for (ScoringTask& task : batch) task.connection.reset();
    std::unique_lock<std::mutex> lock(mu_);
    for (ScoringTask& task : batch) {
      if (spare_lines_.size() >= kMaxSpareLines) break;
      if (task.line.capacity() > kMaxSpareLineBytes) continue;
      task.line.clear();
      spare_lines_.push_back(std::move(task.line));
    }
    batch.clear();
    // The empty check and the wait share mu_ with Submit: no lost wake-up.
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // Stopping, and the queue is drained.
    // A fair share, not the whole queue: a task claimed here is out of
    // reach of a worker that falls idle while this one scores its batch.
    const size_t workers = static_cast<size_t>(options_.num_workers);
    const size_t share = (queue_.size() + workers - 1) / workers;
    const auto end = queue_.begin() + std::min(share, kMaxBatch);
    batch.assign(std::make_move_iterator(queue_.begin()), std::make_move_iterator(end));
    queue_.erase(queue_.begin(), end);
    lock.unlock();
    if (options_.batch_size != nullptr) {
      options_.batch_size->Record(static_cast<double>(batch.size()));
    }
    handler_(batch);
  }
}

void ScoringPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  // Workers leave only once the queue is empty, and Submit refuses once
  // stopping_ is set, so every admitted task is handled before this joins.
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

}  // namespace serve
}  // namespace microbrowse
