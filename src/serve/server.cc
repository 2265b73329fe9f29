// Copyright 2026 The Microbrowse Authors

#include "serve/server.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace microbrowse {
namespace serve {

namespace {

/// Tick cadence for the quiet-connection scans: the reactor's epoll_wait
/// bound. The tick bounds how long a silent peer goes unexamined, which is
/// what makes both the idle reaper and Stop() prompt; it must divide the
/// idle timeout a few times over so eviction lands near the configured
/// bound rather than up to a tick late.
int64_t ReadTickMs(int64_t idle_timeout_ms) {
  if (idle_timeout_ms <= 0) return 1000;
  return std::clamp<int64_t>(idle_timeout_ms / 4, 10, 1000);
}

/// Request types still answered while draining: a drain must stay
/// observable (health probes, metric scrapes) right up to the hard stop.
bool ServedDuringDrain(std::string_view type) {
  return type == "healthz" || type == "readyz" || type == "statsz" ||
         type == "metricsz" || type == "ping";
}

/// Per-thread scratch for the server's own parses (deadline extraction,
/// id echo in refusals): the arena-backed Request is reused across
/// requests, so intake-side parsing allocates nothing steady-state.
Request& ScratchRequest() {
  thread_local Request request;
  return request;
}

}  // namespace

Server::Server(ScoringService* service, ServerOptions options)
    : service_(service), options_(options) {
  if (options_.num_threads < 1) options_.num_threads = 1;
  if (options_.max_queue < 1) options_.max_queue = 1;
}

Server::~Server() {
  Stop();
  // Only now may healthz stop reporting this server's drain state; until
  // the last moment a stopped-but-live server should still look draining
  // to in-process probes.
  service_->AttachHealth(nullptr);
}

Result<uint16_t> Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  auto listener = TcpListen(options_.port, options_.listen_backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  auto port = LocalPort(listener_);
  if (!port.ok()) return port.status();
  port_ = *port;
  health_.retry_after_ms.store(options_.drain_retry_after_ms,
                               std::memory_order_relaxed);
  service_->AttachHealth(&health_);
  ScoringPool::Options pool_options;
  pool_options.num_workers = options_.num_threads;
  pool_options.max_queue = options_.max_queue;
  pool_options.batch_size = service_->metrics().batch_size;
  pool_ = std::make_unique<ScoringPool>(
      pool_options, [this](std::vector<ScoringTask>& batch) { ProcessBatch(batch); });
  ReactorOptions reactor_options;
  reactor_options.tick_ms = ReadTickMs(options_.idle_timeout_ms);
  reactor_options.max_line_bytes = options_.max_line_bytes;
  reactor_options.max_outbox_bytes = options_.max_outbox_bytes;
  reactor_options.write_timeout_ms = options_.write_timeout_ms;
  reactor_options.idle_timeout_ms = options_.idle_timeout_ms;
  reactor_options.sndbuf_bytes = options_.sndbuf_bytes;
  reactor_ = std::make_unique<Reactor>(static_cast<ReactorHandler*>(this), reactor_options);
  const Status init = reactor_->Init(listener_.fd());
  if (!init.ok()) {
    reactor_.reset();
    return init;
  }
  reactor_thread_ = std::thread([this] { reactor_->Run(); });
  started_ = true;
  return port_;
}

Status Server::Drain() {
  if (!started_) return Status::FailedPrecondition("server not started");
  int expected = kServing;
  if (!state_.compare_exchange_strong(expected, kDraining,
                                      std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("server is not serving");
  }
  // Flip the health surface first so probes see "draining" before (not
  // after) requests start being refused.
  health_.draining.store(true, std::memory_order_release);
  // Refuse new connections. The reactor stops polling the listener; the
  // shutdown additionally makes in-progress connects fail at the TCP
  // level. Only shut the listener down — the fd stays open until Stop()
  // has joined the reactor thread.
  if (reactor_ != nullptr) reactor_->StopAccepting();
  listener_.Shutdown();
  MB_LOG(kInfo) << "drain started: waiting for "
                << inflight_total_.load(std::memory_order_acquire)
                << " in-flight requests (deadline " << options_.drain_deadline_ms
                << " ms)";
  const Deadline deadline = options_.drain_deadline_ms > 0
                                ? Deadline::AfterMillis(options_.drain_deadline_ms)
                                : Deadline::Infinite();
  bool drained = false;
  for (;;) {
    // A drained server has *delivered* its in-flight answers: a finished
    // request may still sit in a connection outbox, so wait for those
    // bytes to flush too.
    if (inflight_total_.load(std::memory_order_acquire) == 0 &&
        (reactor_ == nullptr || reactor_->pending_out_bytes() == 0)) {
      drained = true;
      break;
    }
    if (deadline.expired()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const int64_t abandoned = inflight_total_.load(std::memory_order_acquire);
  Stop();
  if (!drained) {
    return Status::DeadlineExceeded(
        StrFormat("drain deadline (%lld ms) exceeded; %lld requests abandoned",
                  static_cast<long long>(options_.drain_deadline_ms),
                  static_cast<long long>(abandoned)));
  }
  MB_LOG(kInfo) << "drain complete";
  return Status::OK();
}

void Server::Stop() {
  // Serializes concurrent Stop calls; the destructor's call is then a
  // no-op after an explicit one.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (!started_ || state_.exchange(kStopped, std::memory_order_acq_rel) == kStopped) {
    return;
  }
  // The listener fd must stay open until the reactor thread has joined,
  // or the loop could race the close (and, with fd reuse, poll an
  // unrelated descriptor); the shutdown alone refuses connects meanwhile.
  // Run() closes every connection before it returns.
  listener_.Shutdown();
  if (reactor_ != nullptr) {
    reactor_->Stop();
    if (reactor_thread_.joinable()) reactor_thread_.join();
  }
  listener_.Close();

  // Drain the scheduler: queued work still runs (its writes drop on the
  // dead connections), then the workers exit.
  if (pool_ != nullptr) {
    pool_->Stop();
    pool_.reset();
  }
  // The workers are gone, so no connection can reach into the reactor any
  // more; only now may its wakeup plumbing be torn down.
  reactor_.reset();
}

size_t Server::active_connections() {
  return reactor_ != nullptr ? reactor_->active_connections() : 0;
}

// ---------------------------------------------------------------------------
// Request path
// ---------------------------------------------------------------------------

Deadline Server::RequestDeadline(const Request* request) const {
  if (request != nullptr && request->Has("deadline_ms")) {
    const std::string_view value = request->Get("deadline_ms");
    int64_t ms = 0;
    auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), ms);
    if (ec == std::errc() && end == value.data() + value.size()) {
      // Non-positive budgets are legal and already expired — the request
      // is answered deadline_exceeded without scoring.
      return Deadline::AfterMillis(ms);
    }
    // Malformed deadline_ms falls through to the server default.
  }
  return options_.default_deadline_ms > 0
             ? Deadline::AfterMillis(options_.default_deadline_ms)
             : Deadline::Infinite();
}

void Server::HandleRequestLine(const std::shared_ptr<ReactorConn>& connection,
                               std::string_view line) {
  const int state = state_.load(std::memory_order_acquire);
  if (state == kStopped) {
    connection->Kill();
    return;
  }
  // Stamp the response slot on the intake thread, in read order: every
  // path below (served, refused, drained) answers exactly once through
  // WriteSeq, which is what keeps pipelined responses in request order.
  const uint64_t seq = connection->AssignSeq();
  if (state == kDraining) {
    HandleLineDuringDrain(*connection, line, seq);
    return;
  }

  const size_t per_connection_cap = options_.max_inflight_per_connection;
  if (per_connection_cap > 0 &&
      connection->inflight.load(std::memory_order_acquire) >=
          static_cast<int64_t>(per_connection_cap)) {
    // One pipelining client may not monopolise the queue; the cap is a
    // per-connection slice of admission control, so it reports as the
    // same "overloaded" refusal as a full queue.
    service_->metrics().rejected_overload->Increment(1);
    WriteRefusal(*connection, line, "overloaded", -1, seq);
    return;
  }

  // Parse once here: the deadline and the cache probe both read it. A
  // line that does not parse takes the worker path, which answers the
  // parse error.
  const WallTimer started;
  Request& request = ScratchRequest();
  const bool parsed = ParseRequestInto(line, &request).ok();
  const Deadline request_deadline = RequestDeadline(parsed ? &request : nullptr);
  if (parsed) {
    const CacheProbe probe = service_->ProbeCache(request);
    if (probe.hit()) {
      // A cache hit costs less than handing it to a worker: answer it here.
      // WriteSeq parks it behind any miss still in flight on this
      // connection. An expired budget is refused as a worker would.
      if (request_deadline.expired()) {
        service_->metrics().deadline_exceeded->Increment(1);
        WriteRefusal(*connection, line, "deadline_exceeded", -1, seq);
        return;
      }
      thread_local std::string response;
      service_->Respond(request, probe, started, &response);
      connection->WriteSeq(seq, response);
      return;
    }
  }

  // Account the request in flight before Submit so a worker that claims
  // it instantly still decrements a non-zero count; undone below when
  // admission refuses it.
  connection->inflight.fetch_add(1, std::memory_order_acq_rel);
  inflight_total_.fetch_add(1, std::memory_order_acq_rel);
  if (pool_->Submit(connection, line, request_deadline, seq)) return;
  connection->inflight.fetch_sub(1, std::memory_order_acq_rel);
  inflight_total_.fetch_sub(1, std::memory_order_acq_rel);
  if (state_.load(std::memory_order_acquire) == kDraining) {
    // The drain began after the state check above.
    HandleLineDuringDrain(*connection, line, seq);
    return;
  }
  // Admission control: reject instead of queueing unboundedly. The
  // response still echoes the id (when parseable) so pipelined clients
  // can account for the shed request.
  service_->metrics().rejected_overload->Increment(1);
  WriteRefusal(*connection, line, "overloaded", -1, seq);
}

void Server::HandleLineDuringDrain(ReactorConn& connection, std::string_view line,
                                   uint64_t seq) {
  Request& request = ScratchRequest();
  const bool parsed = ParseRequestInto(line, &request).ok();
  const std::string_view type = parsed ? request.Get("type") : std::string_view();
  if (ServedDuringDrain(type)) {
    thread_local std::string response;
    service_->HandleLineTo(line, &response);
    connection.WriteSeq(seq, response);
    return;
  }
  service_->metrics().drained->Increment(1);
  WriteRefusal(connection, line, "draining",
               health_.retry_after_ms.load(std::memory_order_relaxed), seq);
}

void Server::WriteRefusal(ReactorConn& connection, std::string_view line,
                          std::string_view error, int64_t retry_after_ms,
                          uint64_t seq) {
  thread_local JsonWriter response;
  response.Reset();
  Request& request = ScratchRequest();
  if (ParseRequestInto(line, &request).ok() && request.Has("id")) {
    response.String("id", request.Get("id"));
  }
  response.Bool("ok", false).String("error", error);
  if (retry_after_ms >= 0) response.Int("retry_after_ms", retry_after_ms);
  thread_local std::string rendered;
  response.FinishTo(&rendered);
  connection.WriteSeq(seq, rendered);
}

void Server::ProcessBatch(std::vector<ScoringTask>& batch) {
  // The pool records batch_size itself.
  thread_local std::string response;
  for (ScoringTask& task : batch) {
    // Deadline check sits immediately before scoring: a request whose
    // budget died in the queue is answered without spending scoring work on
    // it. The deadline covers queue wait, not scoring — a request that
    // starts in time finishes and is delivered.
    if (task.deadline.expired()) {
      service_->metrics().deadline_exceeded->Increment(1);
      WriteRefusal(*task.connection, task.line, "deadline_exceeded", -1, task.seq);
    } else {
      service_->HandleLineTo(task.line, &response);
      task.connection->WriteSeq(task.seq, response);
    }
    // Deliver before the decrements: when inflight_total_ reaches zero
    // during a drain, every admitted response has already been handed to
    // its transport.
    task.connection->inflight.fetch_sub(1, std::memory_order_acq_rel);
    inflight_total_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

std::string Server::BuildHttpResponse(std::string_view request_line) {
  // "GET <path> HTTP/1.x" — split out the path (strip a trailing '\r'
  // left by the CRLF line ending first).
  std::string path;
  {
    std::string_view view = request_line;
    if (!view.empty() && view.back() == '\r') view.remove_suffix(1);
    const size_t path_begin = view.find(' ');
    const size_t path_end = view.find(' ', path_begin + 1);
    if (path_begin != std::string_view::npos) {
      path = std::string(view.substr(path_begin + 1, path_end == std::string_view::npos
                                                         ? std::string_view::npos
                                                         : path_end - path_begin - 1));
    }
  }
  if (!path.empty() && path.size() > 1 && path.back() == '/') path.pop_back();
  std::string body;
  std::string status_line;
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  if (path == "/metricsz") {
    status_line = "HTTP/1.0 200 OK";
    body = service_->RenderMetricsText();
  } else if (path == "/healthz" || path == "/readyz") {
    // Route through the same service handlers as the protocol endpoints
    // so HTTP probes and protocol probes can never disagree. readyz maps
    // not-ready onto 503 for load balancers that only look at the status.
    const std::string request =
        path == "/healthz" ? R"({"type":"healthz"})" : R"({"type":"readyz"})";
    body = service_->HandleLine(request);
    const bool ready = body.find("\"ok\":true") != std::string::npos;
    status_line = (path == "/healthz" || ready) ? "HTTP/1.0 200 OK"
                                                : "HTTP/1.0 503 Service Unavailable";
    content_type = "application/json";
    body += "\n";
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    body = "not found; try /metricsz, /healthz or /readyz\n";
  }
  std::string response = status_line + "\r\n";
  response += "Content-Type: " + content_type + "\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  return response;
}

// ---------------------------------------------------------------------------
// Reactor callbacks (ReactorHandler)
// ---------------------------------------------------------------------------

void Server::OnLine(const std::shared_ptr<ReactorConn>& conn, std::string_view line) {
  if (conn->http_pending) {
    // An HTTP request's header lines; their content is irrelevant for a
    // scrape. The blank line ends them and triggers the response.
    if (line.empty()) FinishHttp(conn);
    return;
  }
  if (line.empty()) return;
  if (StartsWith(line, "GET ")) {
    // Plain-HTTP fast path so `curl http://host:port/metricsz` (and
    // /healthz, /readyz) works without speaking the newline-JSON
    // protocol. One response, then close (HTTP/1.0 semantics). The GET
    // takes a response slot like any other line, so its response cannot
    // outrun still-owed pipelined protocol responses.
    conn->http_pending = true;
    conn->http_seq = conn->AssignSeq();
    conn->http_request_line.assign(line.data(), line.size());
    return;
  }
  HandleRequestLine(conn, line);
}

void Server::FinishHttp(const std::shared_ptr<ReactorConn>& conn) {
  conn->http_pending = false;
  conn->WriteSeq(conn->http_seq, BuildHttpResponse(conn->http_request_line),
                 /*raw=*/true);
  conn->CloseAfterFlush();
}

void Server::OnQuietTick(const std::shared_ptr<ReactorConn>& conn) {
  if (conn->http_pending) {
    // Slow-loris backstop: a GET whose headers never finish is answered
    // after the first quiet tick.
    FinishHttp(conn);
  }
}

void Server::OnClose(const std::shared_ptr<ReactorConn>& conn, CloseReason reason) {
  (void)conn;
  switch (reason) {
    case CloseReason::kIdle:
      service_->metrics().idle_evicted->Increment(1);
      break;
    case CloseReason::kWriteTimeout:
      service_->metrics().write_timeout->Increment(1);
      break;
    default:
      break;
  }
}

}  // namespace serve
}  // namespace microbrowse
