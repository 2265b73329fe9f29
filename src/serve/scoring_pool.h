// Copyright 2026 The Microbrowse Authors
//
// The scoring scheduler (DESIGN.md §17): one bounded FIFO under one mutex,
// drained by a fixed set of workers. A free worker claims the oldest tasks,
// its share of the queue up to kMaxBatch, so the request closest to its
// deadline is scored next. Request policy (deadline checks, scoring, response
// sequencing, drain accounting) lives in the server's batch handler.

#ifndef MICROBROWSE_SERVE_SCORING_POOL_H_
#define MICROBROWSE_SERVE_SCORING_POOL_H_

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
  /// Most tasks a worker claims at once (it claims at most its share of
  /// the queue: ceil(queued / num_workers)).
  static constexpr size_t kMaxBatch = 32;

  struct Options {
    int num_workers = 4;
    /// Queued tasks beyond which Submit refuses (ServerOptions.max_queue).
    size_t max_queue = 1024;
    ShardedHistogram* batch_size = nullptr;  ///< Optional metric hook.
  };

  /// `handler` is invoked on worker threads with a non-empty batch; it owns
  /// deadline checks, scoring and per-task accounting. It must not call
  /// back into this pool.
  using BatchHandler = std::function<void(std::vector<ScoringTask>&)>;

  ScoringPool(Options options, BatchHandler handler);
  ~ScoringPool();

  ScoringPool(const ScoringPool&) = delete;
  ScoringPool& operator=(const ScoringPool&) = delete;

  /// Queues one task, copying the line into a retired buffer when one is
  /// free. Returns false (without queueing) when the pool holds max_queue
  /// tasks or is stopping — the caller refuses the request.
  bool Submit(const std::shared_ptr<ReactorConn>& connection, std::string_view line,
              Deadline deadline, uint64_t seq);

  /// Stops intake, drains every queued task through the handler (the chaos
  /// soak's exact accounting relies on it) and joins the workers.
  /// Idempotent; called by the destructor if needed.
  void Stop();

  /// Tasks currently queued (not yet claimed by a worker). Test hook.
  size_t queued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  /// Retired-line-buffer bounds (the BufferPool idiom): bounded count, and
  /// oversized buffers are freed rather than pooled.
  static constexpr size_t kMaxSpareLines = 64;
  static constexpr size_t kMaxSpareLineBytes = 64 * 1024;

  void WorkerLoop();

  Options options_;
  BatchHandler handler_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<ScoringTask> queue_;
  std::vector<std::string> spare_lines_;  // Retired line buffers for Submit.
  bool stopping_ = false;
  std::vector<std::thread> threads_;  // Last: the workers use every member above.
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_SCORING_POOL_H_
