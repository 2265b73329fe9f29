// Copyright 2026 The Microbrowse Authors
//
// The epoll serving core: one reactor thread multiplexes every connection
// (and the listener) through an epoll set, so connection count costs file
// descriptors and buffer bytes, not threads. Connection sockets are
// edge-triggered: each readable connection is drained until EAGAIN,
// bounded by a fixed number of recv calls per wakeup; a connection that
// exhausts its budget with bytes still unread is re-queued and serviced
// on the next loop pass, so one firehose client cannot starve the rest of
// the set. The reactor owns all socket I/O — accepting, reading into
// pooled per-connection buffers (serve/conn_buffer.h), framing request
// lines, and flushing response outboxes on EPOLLOUT write-readiness.
// Protocol policy (what a line *means*, admission control, drain refusals)
// lives in the handler — the Server implements it — so the reactor stays
// pure transport.
//
// Threading model:
//   - The reactor thread runs epoll_wait, accepts, reads, frames lines
//     (handler callbacks run here), flushes outboxes, and is the only
//     thread that touches epoll state or closes connection fds.
//   - Responses reach a connection only through ReactorConn::WriteSeq, from
//     two kinds of thread at once: the reactor thread (the handler answers
//     cache hits and refusals inline) and the scoring workers (everything
//     the handler queued). Both append under the connection's outbox
//     mutex, in sequence order.
//   - The reactor's writes while it dispatches one read chunk's lines only
//     append; after the chunk it sends the whole burst with one send. A
//     worker sends what its WriteSeq released (its own response plus any
//     parked successors) with one send. What the socket does not take, the
//     reactor finishes on EPOLLOUT; a worker asks for that through an
//     eventfd wakeup. No thread ever blocks in send(2).
//   - Any thread may Kill() a connection: it marks it dead and shuts the
//     socket down, which surfaces as an event the reactor cleans up.
//
// Slow consumers are bounded twice: an outbox growing past
// max_outbox_bytes evicts immediately (the peer is not reading and the
// server must not buffer its backlog without bound), and an outbox with
// pending bytes that makes no flush progress for write_timeout_ms evicts
// on the tick (the peer is reading too slowly to matter). Both count as
// write-timeout evictions.
//
// Within one epoll batch, events may reference a connection closed earlier
// in the same batch; connections are therefore looked up by fd in the live
// map (a stale fd simply misses) and the closed connection's descriptor is
// kept open until the batch ends, so the kernel cannot recycle the fd into
// a freshly accepted connection mid-batch.

#ifndef MICROBROWSE_SERVE_REACTOR_H_
#define MICROBROWSE_SERVE_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/socket.h"
#include "common/status.h"
#include "serve/conn_buffer.h"

namespace microbrowse {
namespace serve {

class Reactor;

/// Why a connection left the reactor — the handler maps these onto the
/// serve metrics (idle_evicted, write_timeout, ...).
enum class CloseReason {
  kEof,           ///< Peer closed cleanly on a line boundary.
  kError,         ///< Socket error, reset, or EOF mid-line.
  kOverlongLine,  ///< Partial line exceeded max_line_bytes.
  kIdle,          ///< No bytes moved for idle_timeout_ms with nothing owed.
  kWriteTimeout,  ///< Outbox stalled or overflowed — peer not reading.
  kHandler,       ///< Handler-requested close (HTTP response flushed).
  kServerStop,    ///< Reactor shutting down.
};

struct ReactorOptions {
  /// epoll_wait bound and the cadence of the idle / write-stall / quiet
  /// scans. Must divide the idle timeout a few times over so eviction
  /// lands near the configured bound.
  int64_t tick_ms = 100;
  size_t max_line_bytes = 4 << 20;
  /// Pending unflushed response bytes beyond which a connection is evicted
  /// (slow consumer; its responses would otherwise buffer unboundedly).
  size_t max_outbox_bytes = 4 << 20;
  /// A connection with pending output making no flush progress for this
  /// long is evicted. 0 disables the stall check (overflow still applies).
  int64_t write_timeout_ms = 5'000;
  /// A connection moving no bytes for this long with no response owed is
  /// evicted. 0 disables idle eviction.
  int64_t idle_timeout_ms = 60'000;
  /// SO_SNDBUF applied to accepted sockets; 0 keeps the kernel default
  /// (test hook — see ServerOptions.sndbuf_bytes).
  int sndbuf_bytes = 0;
};

/// One reactor-owned connection: the socket, its read buffer and outbox,
/// and the response sequencer the scoring workers deliver through.
///
/// Lifetime: connections are shared_ptr-owned. The reactor drops its
/// reference when the peer disconnects or is evicted; queued requests keep
/// theirs until answered, so a worker can always WriteSeq (the write is
/// silently dropped once `alive` is false — the response's requests were
/// already accounted in the serve metrics at HandleLine time, which is what
/// keeps the chaos accounting invariant exact across disconnects).
///
/// Ordering: every response-bearing line read from a connection is stamped
/// with a sequence number (AssignSeq) on the intake thread, in read order.
/// Responses are delivered through WriteSeq, which writes a response the
/// moment it is next in line and holds early completions until their
/// predecessors land — so pipelined responses always flush in request
/// order even when two scoring workers finish them out of order, or
/// the reactor answers a cache hit while an earlier miss is still scoring
/// (DESIGN.md §17).
class ReactorConn : public std::enable_shared_from_this<ReactorConn> {
 public:
  ReactorConn(Socket socket, Reactor* reactor, const ReactorOptions& options,
              BufferPool* pool)
      : socket_(std::move(socket)),
        reactor_(reactor),
        max_outbox_bytes_(options.max_outbox_bytes),
        in_(options.max_line_bytes, pool) {}

  /// Marks the connection dead and wakes the reactor, which closes it (only
  /// the reactor thread releases the fd). Safe from any thread; idempotent.
  void Kill();

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
  uint64_t AssignSeq() {
    return next_seq_assign_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Delivers the response for slot `seq`, the only way bytes reach the
  /// outbox. When every earlier slot has been written, the payload and any
  /// parked successors it releases are appended and sent with one send;
  /// otherwise it is held (copied) until its predecessors land. Protocol
  /// payloads get their '\n' here; `raw` ones (plain-HTTP responses) carry
  /// their own framing. Never blocks: what the socket does not take, the
  /// reactor finishes on write-readiness. On the reactor thread, while it
  /// dispatches this connection's read burst, it only appends and the
  /// reactor sends once after the burst. Dropped once !alive. Safe from any
  /// thread.
  void WriteSeq(uint64_t seq, std::string_view payload, bool raw = false);

  /// True when every assigned slot has been written — the close-after-flush
  /// paths wait for this so a trailing HTTP response cannot outrun
  /// still-owed pipelined responses. Safe from any thread.
  bool SeqDrained();

  /// Flush the outbox after this write completes, then close (HTTP/1.0
  /// "Connection: close" semantics). Reactor-thread only.
  void CloseAfterFlush() { close_after_flush_ = true; }

  uint64_t bytes_received() const { return in_.total_bytes(); }

  /// Handler scratch: the Server's plain-HTTP state machine. True while
  /// request headers are being consumed; the stored request line is
  /// answered at the blank line or the first quiet tick.
  bool http_pending = false;
  std::string http_request_line;
  /// Response slot reserved for the pending HTTP response (set at GET
  /// intake, consumed by FinishHttp).
  uint64_t http_seq = 0;

 private:
  friend class Reactor;

  /// Appends one payload (plus '\n' unless `raw`) to the outbox. False,
  /// appending nothing, once the connection is dead or marked for
  /// eviction. Requires out_mu_.
  bool AppendLocked(std::string_view bytes, bool raw);
  /// Sends as much pending output as the socket accepts. Returns true when
  /// the outbox drained. Requires out_mu_.
  bool TryFlushLocked();
  /// TryFlushLocked, then marks an outbox still past max_outbox_bytes for
  /// eviction. Requires out_mu_.
  void SendLocked();
  /// Pending outbox bytes. Requires out_mu_.
  size_t PendingLocked() const { return outbox_.size() - out_start_; }

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
  /// seq_mu_ guards next_flush_/held_/spare_payloads_ and orders before
  /// out_mu_ — never acquire seq_mu_ while holding out_mu_.
  std::mutex seq_mu_;
  uint64_t next_flush_ = 0;
  std::vector<HeldResponse> held_;
  std::vector<std::string> spare_payloads_;

  Socket socket_;
  Reactor* reactor_;
  size_t max_outbox_bytes_;
  ConnBuffer in_;

  std::mutex out_mu_;
  std::string outbox_;
  size_t out_start_ = 0;          ///< First unsent outbox byte.
  uint64_t total_flushed_ = 0;    ///< Ever-sent bytes — the stall detector's mark.
  bool flush_requested_ = false;  ///< A wakeup is already queued for this conn.
  bool overflowed_ = false;       ///< Outbox exceeded max_outbox_bytes — evict.
  bool write_error_ = false;      ///< A flush hit a hard socket error — evict.

  // Reactor-thread-only state.
  bool closed_ = false;           ///< Left the reactor; skip stale events/wakeups.
  bool want_write_ = false;       ///< EPOLLOUT currently armed.
  bool close_after_flush_ = false;
  bool read_pending_ = false;     ///< Queued for another read pass.
  Deadline idle_ = Deadline::Infinite();
  uint64_t idle_bytes_mark_ = 0;
  uint64_t quiet_bytes_mark_ = 0;
  Deadline write_stall_ = Deadline::Infinite();
  uint64_t write_stall_mark_ = 0;
};

/// Protocol callbacks, all invoked on the reactor thread.
class ReactorHandler {
 public:
  virtual ~ReactorHandler() = default;

  /// One framed request line. The view is valid only for the duration of
  /// the call — copy what must outlive it.
  virtual void OnLine(const std::shared_ptr<ReactorConn>& conn, std::string_view line) = 0;

  /// The connection left the reactor (metrics hook). Runs before the fd is
  /// released.
  virtual void OnClose(const std::shared_ptr<ReactorConn>& conn, CloseReason reason) = 0;

  /// Tick on which `conn` received no new bytes — the HTTP slow-header
  /// backstop (a GET whose headers never finish is answered after the
  /// first quiet tick).
  virtual void OnQuietTick(const std::shared_ptr<ReactorConn>& conn) = 0;
};

/// The event loop. Init once, Run on a dedicated thread, Stop from any.
class Reactor {
 public:
  Reactor(ReactorHandler* handler, ReactorOptions options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Creates the epoll set and wakeup eventfd and registers `listener_fd`
  /// (which is switched to non-blocking). The listener fd stays owned by
  /// the caller.
  Status Init(int listener_fd);

  /// Runs the event loop until Stop(); closes every connection on exit.
  void Run();

  /// Ends the loop (idempotent, any thread).
  void Stop();

  /// Deregisters the listener so no further connections are accepted — the
  /// drain state machine's first act. Any thread.
  void StopAccepting();

  /// Asks the reactor to finish flushing `conn`'s outbox on
  /// write-readiness. Called by ReactorConn::WriteSeq off-thread.
  void RequestFlush(std::shared_ptr<ReactorConn> conn);

  size_t active_connections() const {
    return active_connections_.load(std::memory_order_acquire);
  }

  /// Response bytes accepted but not yet handed to the kernel, across all
  /// connections — what Drain() waits on (a drained server has delivered
  /// its answers, not parked them in outboxes).
  int64_t pending_out_bytes() const {
    return pending_out_bytes_.load(std::memory_order_acquire);
  }

 private:
  friend class ReactorConn;

  void HandleAccept();
  void HandleReadable(const std::shared_ptr<ReactorConn>& conn);
  void HandleWritable(const std::shared_ptr<ReactorConn>& conn);
  void HandleTick();
  void DrainWakeups();
  /// Updates EPOLLOUT interest to match pending output; closes the
  /// connection when a flush finished under close_after_flush.
  void UpdateWriteInterest(const std::shared_ptr<ReactorConn>& conn);
  void CloseConn(const std::shared_ptr<ReactorConn>& conn, CloseReason reason);
  void Wake();

  ReactorHandler* handler_;
  ReactorOptions options_;
  BufferPool buffer_pool_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listener_fd_ = -1;
  bool listener_registered_ = false;

  std::unordered_map<int, std::shared_ptr<ReactorConn>> conns_;
  /// Connections closed during the current epoll batch; their fds close
  /// when the batch ends (see file comment on fd reuse).
  std::vector<std::shared_ptr<ReactorConn>> deferred_close_;
  /// Connections that exhausted their per-wakeup read budget with bytes
  /// (possibly) still unread — serviced again on the next loop pass, which
  /// polls with a zero timeout while this is non-empty.
  std::vector<std::shared_ptr<ReactorConn>> pending_reads_;

  std::mutex wakeup_mu_;
  std::vector<std::shared_ptr<ReactorConn>> flush_queue_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_accepting_{false};
  std::atomic<size_t> active_connections_{0};
  std::atomic<int64_t> pending_out_bytes_{0};
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_REACTOR_H_
