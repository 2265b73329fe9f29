// Copyright 2026 The Microbrowse Authors
//
// The epoll serving core: each reactor thread multiplexes its own share of
// the connections through its own epoll set, so connection count costs
// file descriptors and buffer bytes, not threads. Connection sockets are
// edge-triggered: each readable connection is drained until EAGAIN,
// bounded by a fixed number of recv calls per pass; a connection that
// exhausts its budget with bytes still unread is re-queued and read again
// on the next pass, so one firehose client cannot starve the rest of the
// set. A reactor owns all I/O of its connections — reading into pooled
// per-connection buffers (serve/conn_buffer.h), framing request lines,
// and flushing response outboxes, on write-readiness when the socket is
// full. Protocol policy (what a line *means*, deadlines, drain refusals)
// lives in the handler — the Server implements it — so the reactor stays
// pure transport.
//
// Threading model (DESIGN.md §17):
//   - The reactors never touch the listener: the server's one accept
//     thread hands the k-th accepted socket to reactor k mod N through
//     that reactor's adopt queue and wake eventfd, so placement is
//     deterministic, the accept path is single, and a busy reactor delays
//     no new connection.
//   - Every other touch of a connection happens on the reactor thread that
//     adopted it: reads, the handler's callbacks (which answer each line,
//     scoring included, before the next), writes, ticks and the close. A
//     response is a plain append to the outbox; each connection's
//     responses to one pass leave with one send.
//   - A pass reads every ready connection before it dispatches any line,
//     and stamps each connection's read time: the anchor of the deadline
//     of every line that read completed. A line that waits behind other
//     lines' scoring in the same pass has its wait counted.
//   - A reactor busy scoring delays the reads, ticks and drain of its own
//     connections only; the other reactors keep serving theirs.
//
// A connection that will answer nothing more (killed, or closing once an
// HTTP response flushes) is not read again: TCP flow control holds its
// peer, so unanswered input never accumulates in the read buffer.
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
// kept open until the pass ends, so the kernel cannot recycle the fd into
// a freshly adopted connection mid-pass.

#ifndef MICROBROWSE_SERVE_REACTOR_H_
#define MICROBROWSE_SERVE_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/histogram.h"
#include "common/socket.h"
#include "common/status.h"
#include "serve/conn_buffer.h"

namespace microbrowse {
namespace serve {

/// Why a connection left the reactor — the handler maps these onto the
/// serve metrics (idle_evicted, write_timeout, ...).
enum class CloseReason {
  kEof,           ///< Peer closed cleanly on a line boundary.
  kError,         ///< Socket error, reset, or EOF mid-line.
  kOverlongLine,  ///< Partial line exceeded max_line_bytes.
  kIdle,          ///< No bytes moved for idle_timeout_ms with nothing owed.
  kWriteTimeout,  ///< Outbox stalled or overflowed — peer not reading.
  kHandler,       ///< Handler-requested close (HTTP response flushed, Kill).
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
  /// Optional metric hook: the responses written per dispatched read
  /// chunk (one connection's lines of one pass), when there are any.
  ShardedHistogram* batch_size = nullptr;
};

/// One reactor-owned connection: the socket, its read buffer and outbox.
/// Touched only by the reactor thread that adopted it, so nothing here is
/// locked. Connections are shared_ptr-owned by their reactor, which drops
/// them when the peer disconnects or is evicted.
class ReactorConn {
 public:
  ReactorConn(Socket socket, size_t max_line_bytes, BufferPool* pool)
      : socket_(std::move(socket)), in_(max_line_bytes, pool) {}

  /// Appends one response to the outbox: protocol payloads get their '\n'
  /// here, `raw` ones (plain-HTTP responses) carry their own framing. The
  /// reactor sends what the connection's lines of one pass wrote with one
  /// send once they are dispatched. Dropped once the connection is killed.
  void Write(std::string_view payload, bool raw = false);

  /// Stops dispatching this connection's lines and closes it once the
  /// current dispatch ends, dropping unsent output.
  void Kill() { killed_ = true; }

  /// Flush the outbox, then close (HTTP/1.0 "Connection: close").
  void CloseAfterFlush() { close_after_flush_ = true; }

  /// When the read that completed the lines now being dispatched ran: the
  /// anchor of their deadlines.
  std::chrono::steady_clock::time_point read_at() const { return read_at_; }

  /// Handler scratch: the Server's plain-HTTP state machine. True while
  /// request headers are being consumed; the stored request line is
  /// answered at the blank line or the first quiet tick.
  bool http_pending = false;
  std::string http_request_line;

 private:
  friend class Reactor;

  /// Sends as much pending output as the socket accepts.
  void TryFlush();
  size_t pending() const { return outbox_.size() - out_start_; }

  Socket socket_;
  ConnBuffer in_;

  std::string outbox_;
  size_t out_start_ = 0;        ///< First unsent outbox byte.
  uint64_t total_flushed_ = 0;  ///< Ever-sent bytes — the stall detector's mark.
  uint64_t writes_ = 0;         ///< Responses ever written — the batch-size count.
  bool write_error_ = false;    ///< A flush hit a hard socket error — evict.

  bool killed_ = false;
  bool closed_ = false;           ///< Left the reactor; skip stale events.
  bool want_write_ = false;       ///< EPOLLOUT currently armed.
  bool close_after_flush_ = false;
  bool read_pending_ = false;     ///< Queued for another read pass.
  bool dispatch_pending_ = false; ///< Read this pass; lines await dispatch.
  bool eof_ = false;              ///< The peer closed; close after dispatch.
  std::chrono::steady_clock::time_point read_at_{};
  Deadline idle_ = Deadline::Infinite();
  uint64_t idle_bytes_mark_ = 0;
  uint64_t quiet_bytes_mark_ = 0;
  Deadline write_stall_ = Deadline::Infinite();
  uint64_t write_stall_mark_ = 0;
};

/// Protocol callbacks, all invoked on the connection's reactor thread.
class ReactorHandler {
 public:
  virtual ~ReactorHandler() = default;

  /// One framed request line. The view is valid only for the duration of
  /// the call — copy what must outlive it.
  virtual void OnLine(ReactorConn& conn, std::string_view line) = 0;

  /// The connection left the reactor (metrics hook). Runs before the fd is
  /// released.
  virtual void OnClose(ReactorConn& conn, CloseReason reason) = 0;

  /// Once per tick, on the reactor thread, before the connection scans.
  virtual void OnTick() = 0;

  /// Tick on which `conn` received no new bytes — the HTTP slow-header
  /// backstop (a GET whose headers never finish is answered after the
  /// first quiet tick).
  virtual void OnQuietTick(ReactorConn& conn) = 0;
};

/// One event loop. Init once, Run on a dedicated thread, Stop from any.
class Reactor {
 public:
  Reactor(ReactorHandler* handler, ReactorOptions options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Creates the epoll set and wake eventfd.
  Status Init();

  /// Runs the event loop until Stop(); closes every connection on exit,
  /// sockets still waiting in the adopt queue included.
  void Run();

  /// Ends the loop (idempotent, any thread).
  void Stop();

  /// Queues an accepted socket for this reactor to serve. Any thread.
  void Adopt(Socket socket);

  /// Interrupts a blocking epoll_wait so the loop makes another pass. Any
  /// thread.
  void Wake();

  size_t active_connections() const {
    return active_connections_.load(std::memory_order_acquire);
  }

  /// Connections whose responses wait on write-readiness (the socket did
  /// not take them all) — what Drain() waits on besides the passes.
  int64_t unflushed_connections() const {
    return unflushed_connections_.load(std::memory_order_acquire);
  }

  /// Loop passes completed. A pass that starts after a caller reads this
  /// has answered every line read before it and sent what the sockets take
  /// by the time the count moves twice.
  uint64_t passes() const { return passes_.load(std::memory_order_acquire); }

 private:
  void AdoptQueued();
  void AddConn(Socket socket);
  /// Reads `conn` up to the per-pass budget, queuing it for dispatch.
  void ReadConn(ReactorConn& conn);
  /// Hands every complete line of `conn` to the handler, then flushes.
  void DispatchConn(ReactorConn& conn);
  void HandleTick();
  /// Sends pending output, evicts on overflow or error, and keeps EPOLLOUT
  /// interest in step with what is left; closes the connection when a
  /// killed or close-after-flush connection is done.
  void Flush(ReactorConn& conn);
  void SetWriteInterest(ReactorConn& conn, bool want);
  void CloseConn(ReactorConn& conn, CloseReason reason);

  ReactorHandler* handler_;
  ReactorOptions options_;
  BufferPool buffer_pool_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::unordered_map<int, std::shared_ptr<ReactorConn>> conns_;
  /// Connections read this pass, in read order; dispatched once every
  /// ready connection has been read. A connection closed meanwhile stays
  /// alive in deferred_close_ until the pass ends.
  std::vector<ReactorConn*> ready_;
  /// Connections closed during the current pass; their fds close when the
  /// pass ends (see file comment on fd reuse).
  std::vector<std::shared_ptr<ReactorConn>> deferred_close_;
  /// Connections that exhausted their per-pass read budget with bytes
  /// (possibly) still unread — read again on the next pass, which polls
  /// with a zero timeout while this is non-empty.
  std::vector<std::shared_ptr<ReactorConn>> pending_reads_;

  std::mutex adopt_mu_;
  std::vector<Socket> adopt_queue_;

  std::atomic<bool> stop_{false};
  std::atomic<size_t> active_connections_{0};
  std::atomic<int64_t> unflushed_connections_{0};
  std::atomic<uint64_t> passes_{0};
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_REACTOR_H_
