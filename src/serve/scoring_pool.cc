// Copyright 2026 The Microbrowse Authors

#include "serve/scoring_pool.h"

#include <algorithm>
#include <chrono>
#include <random>

namespace microbrowse {
namespace serve {

namespace {
/// Per-worker retired-line-buffer pool bounds (the BufferPool idiom):
/// bounded count, and oversized buffers are freed rather than pooled.
constexpr size_t kMaxSpareLines = 64;
constexpr size_t kMaxSpareLineBytes = 64 * 1024;
}  // namespace

ScoringPool::ScoringPool(Options options, BatchHandler handler)
    : options_(options), handler_(std::move(handler)) {
  options_.num_workers = std::max(1, options_.num_workers);
  options_.max_batch = std::max<size_t>(1, options_.max_batch);
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ScoringPool::~ScoringPool() { Stop(); }

bool ScoringPool::Submit(const std::shared_ptr<ReactorConn>& connection,
                         std::string_view line, Deadline deadline, uint64_t seq) {
  if (stopping_.load(std::memory_order_acquire)) return false;
  // Reserve a slot under the global bound first; the per-deque caps below
  // only shape placement, never admission.
  if (queued_total_.fetch_add(1, std::memory_order_acq_rel) >= options_.max_queue) {
    queued_total_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  const int num_workers = static_cast<int>(workers_.size());
  const size_t per_worker_cap =
      (options_.max_queue + num_workers - 1) / num_workers;
  const int start = static_cast<int>(next_intake_.fetch_add(1, std::memory_order_relaxed) %
                                     static_cast<uint64_t>(num_workers));
  for (int attempt = 0; attempt <= num_workers; ++attempt) {
    const int index = (start + attempt) % num_workers;
    Worker& worker = *workers_[index];
    std::lock_guard<std::mutex> lock(worker.mu);
    // The last attempt forces placement at the round-robin target: the
    // global reservation already succeeded, so the task must land somewhere
    // even if a racing burst filled every deque past its shaping cap.
    if (attempt < num_workers && worker.deque.size() >= per_worker_cap) continue;
    ScoringTask task;
    task.connection = connection;
    if (!worker.spare_lines.empty()) {
      task.line = std::move(worker.spare_lines.back());
      worker.spare_lines.pop_back();
    }
    task.line.assign(line);
    task.deadline = deadline;
    task.seq = seq;
    worker.deque.push_back(std::move(task));
    break;
  }
  if (sleepers_.load(std::memory_order_acquire) > 0) {
    // Pair the notify with cv_mu_ so a worker between its queue check and
    // its wait cannot miss this task (the timed wait is only a backstop).
    std::lock_guard<std::mutex> lock(cv_mu_);
    work_cv_.notify_one();
  }
  return true;
}

void ScoringPool::PopOwn(Worker& worker, std::vector<ScoringTask>* batch) {
  std::lock_guard<std::mutex> lock(worker.mu);
  const size_t take = std::min(worker.deque.size(), options_.max_batch);
  for (size_t i = 0; i < take; ++i) {
    batch->push_back(std::move(worker.deque.front()));
    worker.deque.pop_front();
  }
  if (take > 0) queued_total_.fetch_sub(take, std::memory_order_acq_rel);
}

bool ScoringPool::StealInto(int thief, std::vector<ScoringTask>* batch) {
  const int num_workers = static_cast<int>(workers_.size());
  if (num_workers <= 1) return false;
  // Randomized victim rotation: thieves starting at different points avoids
  // every idle worker hammering worker 0's lock.
  thread_local std::minstd_rand rng(std::random_device{}());
  const int start = static_cast<int>(rng() % static_cast<unsigned>(num_workers));
  for (int k = 0; k < num_workers; ++k) {
    const int index = (start + k) % num_workers;
    if (index == thief) continue;
    Worker& victim = *workers_[index];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.deque.empty()) continue;
    // Steal the older half from the front — those tasks waited longest and
    // are closest to their deadlines.
    const size_t half = (victim.deque.size() + 1) / 2;
    const size_t take = std::min(half, options_.max_batch);
    for (size_t i = 0; i < take; ++i) {
      batch->push_back(std::move(victim.deque.front()));
      victim.deque.pop_front();
    }
    queued_total_.fetch_sub(take, std::memory_order_acq_rel);
    if (options_.steal_count != nullptr) {
      options_.steal_count->Increment(static_cast<int64_t>(take));
    }
    return true;
  }
  return false;
}

void ScoringPool::WorkerLoop(int index) {
  Worker& self = *workers_[index];
  // Pooled batch vector: capacity is retained across drains, so a warm
  // worker's claim-score-respond cycle performs no vector allocations.
  std::vector<ScoringTask> batch;
  batch.reserve(options_.max_batch);
  for (;;) {
    batch.clear();
    PopOwn(self, &batch);
    if (batch.empty()) StealInto(index, &batch);
    if (batch.empty()) {
      if (stopping_.load(std::memory_order_acquire) &&
          queued_total_.load(std::memory_order_acquire) == 0) {
        return;
      }
      std::unique_lock<std::mutex> lock(cv_mu_);
      sleepers_.fetch_add(1, std::memory_order_acq_rel);
      work_cv_.wait_for(lock, std::chrono::milliseconds(5));
      sleepers_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    if (options_.batch_size != nullptr) {
      options_.batch_size->Record(static_cast<double>(batch.size()));
    }
    handler_(batch);
    // Retire the line buffers for reuse by future Submits to this worker.
    std::lock_guard<std::mutex> lock(self.mu);
    for (ScoringTask& task : batch) {
      if (self.spare_lines.size() >= kMaxSpareLines) break;
      if (task.line.capacity() > kMaxSpareLineBytes) continue;
      task.line.clear();
      self.spare_lines.push_back(std::move(task.line));
    }
  }
}

void ScoringPool::Stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(cv_mu_);
    work_cv_.notify_all();
  }
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  // Belt and braces: a Submit racing Stop could in principle land a task
  // after the workers' final sweep. Drain any stragglers inline so every
  // admitted request is always answered (the drain accounting invariant).
  std::vector<ScoringTask> leftovers;
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    while (!worker->deque.empty()) {
      leftovers.push_back(std::move(worker->deque.front()));
      worker->deque.pop_front();
    }
  }
  if (!leftovers.empty()) {
    queued_total_.fetch_sub(leftovers.size(), std::memory_order_acq_rel);
    handler_(leftovers);
  }
}

}  // namespace serve
}  // namespace microbrowse
