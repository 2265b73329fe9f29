// Copyright 2026 The Microbrowse Authors
//
// The mbserved network front end. `num_threads` reactor threads each
// multiplex their own share of the connections through an edge-triggered
// epoll set (serve/reactor.h): non-blocking sockets, pooled zero-copy line
// framing, responses appended to per-connection outboxes and flushed once
// per pass. 10k connections cost 10k fds and buffers, not 10k threads.
//
// Serving is run to completion (DESIGN.md §17): one accept thread hands the
// k-th connection to reactor k mod N, and from then on that reactor
// answers every line of the connection on its own thread, in read order —
// cache hits, misses (scored right there), refusals, reloads, scrapes and
// plain-HTTP GETs. A line is parsed once; nothing is queued or handed to
// another thread, so responses leave in request order by construction.
// There is no admission queue: TCP flow control and the per-pass read
// budget bound what one connection can ask for, and deadlines shed stale
// work.
//
// Every request carries a deadline (its own "deadline_ms" field, or
// ServerOptions.default_deadline_ms) counted from the read that completed
// its line. A pass reads every ready connection before it answers any
// line, so a request that waits behind other lines' scoring in the same
// pass and is past its budget when its turn comes is answered
// {"ok":false,"error":"deadline_exceeded"} *without* being scored. The
// deadline covers that wait, not scoring: a request that starts in time
// finishes.
//
// A reactor busy scoring delays reads, ticks and the drain of its own
// connections only. Connections that move no bytes past the idle timeout
// are evicted on the reactor's tick, and connections whose peer stops
// *reading* are evicted after write_timeout_ms (the mb.serve.write_timeout
// counter) — a stalled consumer can pin neither a reactor nor unbounded
// outbox memory.
//
// Shutdown is a state machine: serving -> draining -> stopped. Drain()
// (SIGTERM in mbserved) closes the listener, refuses new work with
// {"ok":false,"error":"draining","retry_after_ms":N}, lets the requests
// being scored finish and their responses flush up to a drain deadline,
// then hard-stops. healthz/readyz keep answering through the drain so
// routers can see the state flip.

#ifndef MICROBROWSE_SERVE_SERVER_H_
#define MICROBROWSE_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/socket.h"
#include "serve/health.h"
#include "serve/protocol.h"
#include "serve/reactor.h"
#include "serve/service.h"

namespace microbrowse {
namespace serve {

/// Server configuration.
struct ServerOptions {
  uint16_t port = 7077;  ///< 0 = kernel-assigned (tests).
  /// Reactor threads; each reads, scores and answers its own connections.
  int num_threads = 4;
  /// A request line longer than this fails its connection — bounds the
  /// per-connection read buffer against a client that never sends '\n'.
  size_t max_line_bytes = 4 << 20;
  /// Deadline budget applied to requests that carry no "deadline_ms"
  /// field, in milliseconds, counted from the read of the request's line.
  /// 0 = no default deadline (a request without its own budget waits
  /// however long the lines before it take).
  int64_t default_deadline_ms = 0;
  /// A connection that moves no bytes for this long is evicted (the
  /// mb.serve.idle_evicted counter tracks it). Connections with response
  /// bytes still unsent are never idle-evicted — a client silently awaiting
  /// a response is waiting, not dead. 0 disables eviction.
  int64_t idle_timeout_ms = 60'000;
  /// A connection whose peer stops reading our responses is evicted after
  /// this long without write progress (mb.serve.write_timeout): the bound
  /// on outbox staleness. 0 disables it (the outbox byte cap below still
  /// applies).
  int64_t write_timeout_ms = 5'000;
  /// Pending unflushed response bytes beyond which a slow consumer is
  /// evicted immediately (also mb.serve.write_timeout).
  size_t max_outbox_bytes = 4 << 20;
  /// How long Drain() waits for in-flight requests before hard-stopping.
  int64_t drain_deadline_ms = 5'000;
  /// Advertised in "draining" refusals and the readyz response.
  int64_t drain_retry_after_ms = 500;
  /// Test hook: SO_SNDBUF for accepted sockets (0 = kernel default). A
  /// tiny send buffer makes "peer stopped reading" reproducible in
  /// milliseconds instead of after megabytes.
  int sndbuf_bytes = 0;
  /// listen(2) backlog. The default rides out ordinary bursts; the c10k
  /// bench raises it so a connect storm is not throttled by SYN drops
  /// (the kernel clamps to net.core.somaxconn).
  int listen_backlog = 64;
};

/// TCP front end over a ScoringService.
class Server : private ReactorHandler {
 public:
  /// `service` must outlive the server.
  Server(ScoringService* service, ServerOptions options);
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the reactor threads. Returns the bound
  /// port.
  Result<uint16_t> Start();

  /// Graceful drain: closes the listener, flips healthz/readyz to
  /// "draining", answers new requests on existing connections with
  /// {"error":"draining","retry_after_ms":N}, waits — up to
  /// options.drain_deadline_ms — until every reactor has answered what it
  /// had read and its responses have flushed, then Stop()s. Returns OK when
  /// everything in flight completed, kDeadlineExceeded when the hard stop
  /// abandoned work. FailedPrecondition when not serving (never started,
  /// already draining, or stopped).
  Status Drain();

  /// Stops accepting, closes every connection and joins the accept and
  /// reactor threads (a request being scored finishes first). Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

  /// Live connections over all reactors. Drops to zero once every client
  /// has disconnected and been reaped (test hook).
  size_t active_connections();

  /// True from Drain() (or Stop()) onward — new scoring work is refused.
  bool draining() const {
    return state_.load(std::memory_order_acquire) != kServing;
  }

 private:
  /// serving -> draining -> stopped; the only legal transitions.
  enum State : int { kServing = 0, kDraining = 1, kStopped = 2 };

  // --- Request path ---------------------------------------------------------

  /// Answers one protocol line on its connection's reactor thread: parses
  /// it once, then serves it, refuses it past its deadline, or — while
  /// draining — serves observability types and refuses the rest.
  void HandleRequestLine(ReactorConn& connection, std::string_view line);
  /// The deadline for one request, counted from `read_at`: its own
  /// "deadline_ms" field when present and parsable, else the server
  /// default (also for a line that did not parse, passed as nullptr).
  Deadline RequestDeadline(const Request* request,
                           std::chrono::steady_clock::time_point read_at) const;
  /// Writes an {"ok":false,...} refusal, echoing the request id when the
  /// line parsed (`request` non-null). `retry_after_ms` < 0 omits the
  /// field.
  void WriteRefusal(ReactorConn& connection, const Request* request,
                    std::string_view error, int64_t retry_after_ms);
  /// The full raw response (status line, headers, body) for one plain-HTTP
  /// GET request line — the /metricsz, /healthz and /readyz scrape paths.
  std::string BuildHttpResponse(std::string_view request_line);

  // --- Reactor callbacks (ReactorHandler) -----------------------------------

  void OnLine(ReactorConn& conn, std::string_view line) override;
  void OnClose(ReactorConn& conn, CloseReason reason) override;
  void OnTick() override;
  void OnQuietTick(ReactorConn& conn) override;
  /// Writes the buffered HTTP response and schedules the close-after-flush.
  void FinishHttp(ReactorConn& conn);

  /// The accept thread: blocks in accept(2) and hands the k-th connection
  /// to reactor k mod N until a drain or stop shuts the listener down.
  void AcceptLoop();

  ScoringService* service_;
  ServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;

  /// threads_[i] runs reactors_[i]; accept_thread_ feeds them.
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::thread> threads_;
  std::thread accept_thread_;

  std::mutex stop_mu_;
  std::atomic<int> state_{kServing};
  HealthState health_;
  bool started_ = false;
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_SERVER_H_
