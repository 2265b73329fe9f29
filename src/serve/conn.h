// Copyright 2026 The Microbrowse Authors
//
// The connection contract between the scoring workers and the transport
// that owns the socket. The epoll reactor (serve/reactor.h) hands the
// workers a Conn, so the scheduler (serve/scoring_pool.h) and the request
// path depend only on this interface, not on the reactor: a Write lands
// in a reactor outbox that is flushed on EPOLLOUT.
//
// Lifetime: connections are shared_ptr-owned. The reactor drops its
// reference when the peer disconnects or is evicted; queued requests keep
// theirs until answered, so a worker can always Write (the write is
// silently dropped once `alive` is false — the response's requests were
// already accounted in the serve metrics at HandleLine time, which is what
// keeps the chaos accounting invariant exact across disconnects).
//
// Ordering: every response-bearing line read from a connection is stamped
// with a sequence number (AssignSeq) on the intake thread, in read order.
// Workers deliver through WriteSeq, which writes a response the moment it
// is next in line and holds early completions until their predecessors
// land — so pipelined responses always flush in request order even when
// the work-stealing pool finishes them out of order (DESIGN.md §17).

#ifndef MICROBROWSE_SERVE_CONN_H_
#define MICROBROWSE_SERVE_CONN_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace microbrowse {
namespace serve {

/// One live client connection as seen by the request queue and workers.
class Conn {
 public:
  virtual ~Conn() = default;

  /// Queues or sends one protocol response line; the '\n' terminator is
  /// appended by the transport. Never blocks: the reactor enqueues and
  /// flushes on write-readiness. Dropped once !alive.
  virtual void Write(std::string_view response_line) = 0;

  /// Queues or sends raw bytes verbatim (the plain-HTTP fast path, where
  /// the payload carries its own framing).
  virtual void WriteRaw(std::string_view bytes) = 0;

  /// Marks the connection dead and wakes/shuts the transport so its
  /// resources are reclaimed. Safe from any thread; idempotent.
  virtual void Kill() = 0;

  /// False once the peer disconnected or the connection was evicted;
  /// writes after that are dropped.
  std::atomic<bool> alive{true};

  /// Requests from this connection currently queued or executing — bounds
  /// per-connection pipelining and defers idle eviction while a response
  /// is still owed.
  std::atomic<int64_t> inflight{0};

  /// Stamps the next response slot. Called only on the intake thread (the
  /// reactor thread), once per line that will produce a response, in read
  /// order.
  uint64_t AssignSeq() { return next_seq_assign_.fetch_add(1, std::memory_order_acq_rel); }

  /// Delivers the response for slot `seq`: written through immediately when
  /// every earlier slot has been written, held (copied) otherwise and
  /// flushed the moment its predecessors land. `raw` responses bypass line
  /// framing (plain-HTTP payloads). Safe from any thread.
  void WriteSeq(uint64_t seq, std::string_view payload, bool raw = false) {
    std::lock_guard<std::mutex> lock(seq_mu_);
    if (seq != next_flush_) {
      // Early completion: park a copy, reusing a retired buffer when one is
      // available so steady-state holds allocate nothing.
      HeldResponse held;
      if (!spare_payloads_.empty()) {
        held.payload = std::move(spare_payloads_.back());
        spare_payloads_.pop_back();
      }
      held.seq = seq;
      held.raw = raw;
      held.payload.assign(payload);
      held_.push_back(std::move(held));
      return;
    }
    Deliver(payload, raw);
    ++next_flush_;
    // Release any parked successors that are now in line.
    bool progressed = true;
    while (progressed && !held_.empty()) {
      progressed = false;
      for (size_t i = 0; i < held_.size(); ++i) {
        if (held_[i].seq != next_flush_) continue;
        Deliver(held_[i].payload, held_[i].raw);
        ++next_flush_;
        if (spare_payloads_.size() < kMaxSparePayloads &&
            held_[i].payload.capacity() <= kMaxSparePayloadBytes) {
          held_[i].payload.clear();
          spare_payloads_.push_back(std::move(held_[i].payload));
        }
        held_[i] = std::move(held_.back());
        held_.pop_back();
        progressed = true;
        break;
      }
    }
  }

  /// True when every assigned slot has been written — the transport's
  /// close-after-flush paths wait for this so a trailing HTTP response
  /// cannot outrun still-owed pipelined responses. Safe from any thread.
  bool SeqDrained() {
    std::lock_guard<std::mutex> lock(seq_mu_);
    return next_flush_ == next_seq_assign_.load(std::memory_order_acquire);
  }

 private:
  void Deliver(std::string_view payload, bool raw) {
    // Dead connections still advance the cursor (Write/WriteRaw drop the
    // bytes internally) so SeqDrained converges and successors release.
    if (raw) {
      WriteRaw(payload);
    } else {
      Write(payload);
    }
  }

  struct HeldResponse {
    uint64_t seq = 0;
    bool raw = false;
    std::string payload;
  };
  static constexpr size_t kMaxSparePayloads = 16;
  /// Oversized retired buffers (a parked /metricsz scrape, say) are freed
  /// rather than pooled — the BufferPool capacity-cap idiom.
  static constexpr size_t kMaxSparePayloadBytes = 64 * 1024;

  std::atomic<uint64_t> next_seq_assign_{0};
  /// seq_mu_ guards next_flush_/held_/spare_payloads_ and orders before the
  /// transport lock (ReactorConn::out_mu_) — never acquire seq_mu_ while
  /// holding it.
  std::mutex seq_mu_;
  uint64_t next_flush_ = 0;
  std::vector<HeldResponse> held_;
  std::vector<std::string> spare_payloads_;
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_CONN_H_
