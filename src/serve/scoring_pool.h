// Copyright 2026 The Microbrowse Authors
//
// The work-stealing scoring scheduler (DESIGN.md §17). Each worker owns a
// bounded deque of pending requests; Submit routes round-robin to spread
// intake, workers drain their own deque from the front in batches, and an
// idle worker steals the older half of a randomly-ordered victim's deque
// before sleeping. A saturated server contends on a per-worker mutex
// instead of one global one, and the common case (worker pops its own
// deque) never touches another worker's lock.
//
// Scheduling policy lives here; request policy does not: the server's
// batch handler performs the deadline check, scoring, response sequencing
// and drain accounting. Stop() drains every queued task through the
// handler, which is what keeps the chaos soak's exact request accounting
// invariant true.

#ifndef MICROBROWSE_SERVE_SCORING_POOL_H_
#define MICROBROWSE_SERVE_SCORING_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/histogram.h"
#include "common/metrics.h"

namespace microbrowse {
namespace serve {

class ReactorConn;

/// One admitted request: the connection it came from, the raw line, the
/// queue-wait budget and the connection-order response slot.
struct ScoringTask {
  std::shared_ptr<ReactorConn> connection;
  std::string line;
  Deadline deadline;
  uint64_t seq = 0;
};

class ScoringPool {
 public:
  struct Options {
    int num_workers = 4;
    /// Total queued tasks across all deques; Submit refuses beyond it
    /// (ServerOptions.max_queue).
    size_t max_queue = 1024;
    /// Upper bound on tasks a worker takes per drain.
    size_t max_batch = 32;
    /// Optional metric hooks (may be nullptr).
    ShardedHistogram* batch_size = nullptr;
    Counter* steal_count = nullptr;
  };

  /// `handler` is invoked on worker threads with a non-empty batch; it owns
  /// deadline checks, scoring and per-task accounting. It must not call
  /// back into this pool.
  using BatchHandler = std::function<void(std::vector<ScoringTask>&)>;

  ScoringPool(Options options, BatchHandler handler);
  ~ScoringPool();

  ScoringPool(const ScoringPool&) = delete;
  ScoringPool& operator=(const ScoringPool&) = delete;

  /// Queues one task. Returns false (without queueing) when the pool is at
  /// max_queue or stopping — the caller refuses the request. The line is
  /// copied into a pooled buffer; steady-state submission allocates
  /// nothing.
  bool Submit(const std::shared_ptr<ReactorConn>& connection, std::string_view line,
              Deadline deadline, uint64_t seq);

  /// Stops intake, drains every queued task through the handler and joins
  /// the workers. Idempotent; called by the destructor if needed.
  void Stop();

  /// Tasks currently queued (not yet claimed by a worker). Test hook.
  size_t queued() const { return queued_total_.load(std::memory_order_acquire); }

 private:
  struct Worker {
    std::mutex mu;
    std::deque<ScoringTask> deque;
    /// Retired line buffers, reused by Submit via the free-list below.
    std::vector<std::string> spare_lines;
  };

  void WorkerLoop(int index);
  /// Pops up to max_batch tasks from the front of `worker`'s own deque.
  void PopOwn(Worker& worker, std::vector<ScoringTask>* batch);
  /// Steals the older half of one victim's deque (victims visited in a
  /// per-worker randomized rotation) into `batch`, up to max_batch.
  bool StealInto(int thief, std::vector<ScoringTask>* batch);

  Options options_;
  BatchHandler handler_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::atomic<size_t> queued_total_{0};
  std::atomic<uint64_t> next_intake_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  std::mutex cv_mu_;
  std::condition_variable work_cv_;
  std::atomic<int> sleepers_{0};
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_SCORING_POOL_H_
