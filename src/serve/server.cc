// Copyright 2026 The Microbrowse Authors

#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace microbrowse {
namespace serve {

namespace {

/// Tick cadence for the quiet-connection scans: each reactor's epoll_wait
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

}  // namespace

Server::Server(ScoringService* service, ServerOptions options)
    : service_(service), options_(options) {
  if (options_.num_threads < 1) options_.num_threads = 1;
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
  ReactorOptions reactor_options;
  reactor_options.tick_ms = ReadTickMs(options_.idle_timeout_ms);
  reactor_options.max_line_bytes = options_.max_line_bytes;
  reactor_options.max_outbox_bytes = options_.max_outbox_bytes;
  reactor_options.write_timeout_ms = options_.write_timeout_ms;
  reactor_options.idle_timeout_ms = options_.idle_timeout_ms;
  reactor_options.batch_size = service_->metrics().batch_size;
  for (int i = 0; i < options_.num_threads; ++i) {
    reactors_.push_back(
        std::make_unique<Reactor>(static_cast<ReactorHandler*>(this), reactor_options));
    const Status init = reactors_.back()->Init();
    if (!init.ok()) {
      reactors_.clear();
      return init;
    }
  }
  for (const auto& reactor : reactors_) {
    threads_.emplace_back([r = reactor.get()] { r->Run(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
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
  // Refuse new connections: the shutdown wakes the accept thread, which
  // sees the drain and returns, and makes in-progress connects fail at the
  // TCP level. Only shut the listener down — the fd stays open until
  // Stop() has joined the accept thread.
  listener_.Shutdown();
  MB_LOG(kInfo) << "drain started (deadline " << options_.drain_deadline_ms << " ms)";
  const Deadline deadline = options_.drain_deadline_ms > 0
                                ? Deadline::AfterMillis(options_.drain_deadline_ms)
                                : Deadline::Infinite();
  // A reactor has answered everything it read before the drain once it
  // completes a pass that started after now, which the second pass from
  // here is; a drained server has also *delivered* those answers, so no
  // connection may still wait on write-readiness.
  std::vector<uint64_t> marks;
  for (const auto& reactor : reactors_) marks.push_back(reactor->passes());
  size_t busy = reactors_.size();
  for (;;) {
    busy = 0;
    for (size_t i = 0; i < reactors_.size(); ++i) {
      if (reactors_[i]->passes() < marks[i] + 2 ||
          reactors_[i]->unflushed_connections() > 0) {
        ++busy;
        reactors_[i]->Wake();
      }
    }
    if (busy == 0 || deadline.expired()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
  if (busy > 0) {
    return Status::DeadlineExceeded(StrFormat(
        "drain deadline (%lld ms) exceeded; what %zu of %zu reactors had not "
        "answered or flushed was abandoned",
        static_cast<long long>(options_.drain_deadline_ms), busy, reactors_.size()));
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
  // The listener fd must stay open until the accept thread has joined, or
  // its accept could race the close (and, with fd reuse, take from an
  // unrelated descriptor); the shutdown wakes it and refuses connects
  // meanwhile. Joining it first means no socket is adopted by a reactor
  // that has stopped; Run() closes every connection before it returns.
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (const auto& reactor : reactors_) reactor->Stop();
  for (std::thread& thread : threads_) thread.join();
  listener_.Close();
}

void Server::AcceptLoop() {
  uint64_t accepted = 0;
  for (;;) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (state_.load(std::memory_order_acquire) != kServing) {
      if (fd >= 0) ::close(fd);  // Accepted as the drain began: refuse it.
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Out of descriptors or buffers: retry once some are released,
      // rather than spin on the pending connection.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    Socket socket(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) (void)SetSendBufferBytes(socket, options_.sndbuf_bytes);
    reactors_[accepted++ % reactors_.size()]->Adopt(std::move(socket));
  }
}

size_t Server::active_connections() {
  size_t total = 0;
  for (const auto& reactor : reactors_) total += reactor->active_connections();
  return total;
}

// ---------------------------------------------------------------------------
// Request path
// ---------------------------------------------------------------------------

Deadline Server::RequestDeadline(const Request* request,
                                 std::chrono::steady_clock::time_point read_at) const {
  if (request != nullptr && request->Has("deadline_ms")) {
    const std::string_view value = request->Get("deadline_ms");
    int64_t ms = 0;
    auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), ms);
    if (ec == std::errc() && end == value.data() + value.size()) {
      // Non-positive budgets are legal and already expired — the request
      // is answered deadline_exceeded without scoring.
      return Deadline::AfterMillis(ms, read_at);
    }
    // Malformed deadline_ms falls through to the server default.
  }
  return options_.default_deadline_ms > 0
             ? Deadline::AfterMillis(options_.default_deadline_ms, read_at)
             : Deadline::Infinite();
}

void Server::HandleRequestLine(ReactorConn& connection, std::string_view line) {
  const int state = state_.load(std::memory_order_acquire);
  if (state == kStopped) {
    connection.Kill();
    return;
  }
  // Parse once: the deadline, the drain check and the service all read it.
  const WallTimer started;
  thread_local Request request;
  const Status parsed = ParseRequestInto(line, &request);
  const Request* fields = parsed.ok() ? &request : nullptr;
  thread_local std::string response;
  if (state == kDraining) {
    // A drain must stay observable (health probes, metric scrapes) right
    // up to the hard stop; everything else is refused with a retry hint.
    if (fields == nullptr || !ServedDuringDrain(request.Get("type"))) {
      service_->metrics().drained->Increment(1);
      WriteRefusal(connection, fields, "draining",
                   health_.retry_after_ms.load(std::memory_order_relaxed));
      return;
    }
  } else if (RequestDeadline(fields, connection.read_at()).expired()) {
    // The budget was spent at the read, or while earlier lines of the pass
    // were answered: refuse without spending scoring work on it.
    service_->metrics().deadline_exceeded->Increment(1);
    WriteRefusal(connection, fields, "deadline_exceeded", -1);
    return;
  }
  service_->Respond(parsed, request, started, &response);
  connection.Write(response);
}

void Server::WriteRefusal(ReactorConn& connection, const Request* request,
                          std::string_view error, int64_t retry_after_ms) {
  thread_local JsonWriter response;
  response.Reset();
  if (request != nullptr && request->Has("id")) response.String("id", request->Get("id"));
  response.Bool("ok", false).String("error", error);
  if (retry_after_ms >= 0) response.Int("retry_after_ms", retry_after_ms);
  thread_local std::string rendered;
  response.FinishTo(&rendered);
  connection.Write(rendered);
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

void Server::OnLine(ReactorConn& conn, std::string_view line) {
  if (conn.http_pending) {
    // An HTTP request's header lines; their content is irrelevant for a
    // scrape. The blank line ends them and triggers the response.
    if (line.empty()) FinishHttp(conn);
    return;
  }
  if (line.empty()) return;
  if (StartsWith(line, "GET ")) {
    // Plain-HTTP fast path so `curl http://host:port/metricsz` (and
    // /healthz, /readyz) works without speaking the newline-JSON
    // protocol. One response, then close (HTTP/1.0 semantics). Every
    // earlier line of the connection is already answered, so the response
    // cannot outrun them.
    conn.http_pending = true;
    conn.http_request_line.assign(line.data(), line.size());
    return;
  }
  HandleRequestLine(conn, line);
}

void Server::FinishHttp(ReactorConn& conn) {
  conn.http_pending = false;
  conn.Write(BuildHttpResponse(conn.http_request_line), /*raw=*/true);
  conn.CloseAfterFlush();
}

void Server::OnTick() {
  // An idle reactor would otherwise keep the generation it last scored on
  // alive after a reload, doubling model memory until it scores again.
  service_->FollowReloadsOnThisThread();
}

void Server::OnQuietTick(ReactorConn& conn) {
  if (conn.http_pending) {
    // Slow-loris backstop: a GET whose headers never finish is answered
    // after the first quiet tick.
    FinishHttp(conn);
  }
}

void Server::OnClose(ReactorConn& conn, CloseReason reason) {
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
