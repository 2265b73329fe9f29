// Copyright 2026 The Microbrowse Authors
//
// The mbserved network front end. One reactor thread multiplexes every
// connection through an edge-triggered epoll set (serve/reactor.h):
// non-blocking sockets, pooled zero-copy line framing, responses queued
// into per-connection outboxes and flushed on write-readiness. 10k
// connections cost 10k fds and buffers, not 10k threads.
//
// A score_pair / predict_ctr request whose result is cached is answered on
// the reactor thread as it is read: one parse, one cache probe, the
// service's own response builder, and WriteSeq. It passes the same drain,
// per-connection in-flight and deadline checks as any request first. Every
// other admitted request joins the ScoringPool's one bounded FIFO
// (serve/scoring_pool.h, DESIGN.md §17), from which a free worker claims
// the oldest tasks first. Workers write each response back through its
// ReactorConn (serve/reactor.h).
// Admission control is intake-side: when the pool is at capacity (or one
// connection exceeds its in-flight cap) the request is answered
// immediately with {"ok":false,"error":"overloaded"} instead of queueing
// unboundedly — under overload the server sheds load at constant latency
// rather than building an ever-longer tail.
//
// Every request carries a deadline (its own "deadline_ms" field, or
// ServerOptions.default_deadline_ms): a queued request whose budget is
// already spent when a worker reaches it is answered
// {"ok":false,"error":"deadline_exceeded"} *without* being scored, so an
// overloaded server burns no work on answers nobody is waiting for.
// Connections that move no bytes past the idle timeout are evicted on the
// reactor's tick, and connections whose peer stops *reading* are evicted
// after write_timeout_ms (the mb.serve.write_timeout counter) — a stalled
// consumer can pin neither a worker nor unbounded outbox memory.
//
// Shutdown is a state machine: serving -> draining -> stopped. Drain()
// (SIGTERM in mbserved) closes the listener, refuses new work with
// {"ok":false,"error":"draining","retry_after_ms":N}, lets in-flight
// requests finish and their responses flush up to a drain deadline, then
// hard-stops. healthz/readyz keep answering through the drain so routers
// can see the state flip.
//
// Responses to a pipelined connection are delivered in request order:
// every response-bearing line is stamped with a per-connection sequence
// number at intake, and workers deliver through ReactorConn::WriteSeq,
// which holds early completions until their predecessors flush
// (serve/reactor.h, DESIGN.md §17). Clients that pipeline may still tag
// requests with "id" and match on the echo — mbctl and serve_bench both
// do — but ordering alone suffices.

#ifndef MICROBROWSE_SERVE_SERVER_H_
#define MICROBROWSE_SERVE_SERVER_H_

#include <atomic>
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
#include "serve/reactor.h"
#include "serve/scoring_pool.h"
#include "serve/service.h"

namespace microbrowse {
namespace serve {

/// Server configuration.
struct ServerOptions {
  uint16_t port = 7077;  ///< 0 = kernel-assigned (tests).
  int num_threads = 4;   ///< Scoring worker threads.
  /// Bounded request queue; requests beyond it are rejected with
  /// "overloaded".
  size_t max_queue = 1024;
  /// A request line longer than this fails its connection — bounds the
  /// per-connection read buffer against a client that never sends '\n'.
  size_t max_line_bytes = 4 << 20;
  /// Deadline budget applied to requests that carry no "deadline_ms"
  /// field, in milliseconds. 0 = no default deadline (a request without
  /// its own budget waits however long the queue takes).
  int64_t default_deadline_ms = 0;
  /// A connection that moves no bytes for this long is evicted (the
  /// mb.serve.idle_evicted counter tracks it). Connections with requests
  /// still in flight are never idle-evicted — a client silently awaiting
  /// a slow response is waiting, not dead. 0 disables eviction.
  int64_t idle_timeout_ms = 60'000;
  /// A connection whose peer stops reading our responses is evicted after
  /// this long without write progress (mb.serve.write_timeout): the bound
  /// on outbox staleness. 0 disables it (the outbox byte cap below still
  /// applies).
  int64_t write_timeout_ms = 5'000;
  /// Pending unflushed response bytes beyond which a slow consumer is
  /// evicted immediately (also mb.serve.write_timeout).
  size_t max_outbox_bytes = 4 << 20;
  /// Requests one connection may have queued or executing before further
  /// reads on it are refused with "overloaded". 0 = unlimited.
  size_t max_inflight_per_connection = 128;
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

  /// Binds, listens and starts the reactor + worker pool. Returns the
  /// bound port.
  Result<uint16_t> Start();

  /// Graceful drain: closes the listener, flips healthz/readyz to
  /// "draining", answers new requests on existing connections with
  /// {"error":"draining","retry_after_ms":N}, waits for queued and
  /// executing requests and unflushed responses up to
  /// options.drain_deadline_ms, then Stop()s. Returns OK when
  /// everything in flight completed, kDeadlineExceeded when the hard stop
  /// abandoned work. FailedPrecondition when not serving (never started,
  /// already draining, or stopped).
  Status Drain();

  /// Stops accepting, closes every connection, drains workers and joins
  /// all threads. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

  /// Live reactor-registered connections. Drops to zero once every client
  /// has disconnected and been reaped (test hook).
  size_t active_connections();

  /// True from Drain() (or Stop()) onward — new scoring work is refused.
  bool draining() const {
    return state_.load(std::memory_order_acquire) != kServing;
  }

  /// Queued + executing requests (test hook).
  int64_t inflight_requests() const {
    return inflight_total_.load(std::memory_order_acquire);
  }

 private:
  /// serving -> draining -> stopped; the only legal transitions.
  enum State : int { kServing = 0, kDraining = 1, kStopped = 2 };

  // --- Request path ---------------------------------------------------------

  /// Dispatches one request line from a serving connection: admission
  /// control, deadline stamping, then an inline answer for a cache hit or
  /// queueing for everything else. Refusals are written inline.
  void HandleRequestLine(const std::shared_ptr<ReactorConn>& connection,
                         std::string_view line);
  /// The scoring pool's batch handler: deadline check, scoring, ordered
  /// delivery and drain accounting for one claimed batch.
  void ProcessBatch(std::vector<ScoringTask>& batch);
  /// The deadline for one request: its own "deadline_ms" field when present
  /// and parsable, else the server default (also for a line that did not
  /// parse, passed as nullptr).
  Deadline RequestDeadline(const Request* request) const;
  /// Answers one request received while draining: observability types are
  /// served inline, everything else is refused with "draining".
  void HandleLineDuringDrain(ReactorConn& connection, std::string_view line,
                             uint64_t seq);
  /// Writes an {"ok":false,...} refusal into response slot `seq`, echoing
  /// the request id when the line parses. `retry_after_ms` < 0 omits the
  /// field.
  void WriteRefusal(ReactorConn& connection, std::string_view line,
                    std::string_view error, int64_t retry_after_ms, uint64_t seq);
  /// The full raw response (status line, headers, body) for one plain-HTTP
  /// GET request line — the /metricsz, /healthz and /readyz scrape paths.
  std::string BuildHttpResponse(std::string_view request_line);

  // --- Reactor callbacks (ReactorHandler) -----------------------------------

  void OnLine(const std::shared_ptr<ReactorConn>& conn, std::string_view line) override;
  void OnClose(const std::shared_ptr<ReactorConn>& conn, CloseReason reason) override;
  void OnQuietTick(const std::shared_ptr<ReactorConn>& conn) override;
  /// Sends the buffered HTTP response and schedules the close-after-flush.
  void FinishHttp(const std::shared_ptr<ReactorConn>& conn);

  ScoringService* service_;
  ServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;

  std::unique_ptr<ScoringPool> pool_;

  std::unique_ptr<Reactor> reactor_;
  std::thread reactor_thread_;

  /// Requests admitted but not yet answered (queued + executing), across
  /// all connections; what Drain() waits on.
  std::atomic<int64_t> inflight_total_{0};

  std::mutex stop_mu_;
  std::atomic<int> state_{kServing};
  HealthState health_;
  bool started_ = false;
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_SERVER_H_
