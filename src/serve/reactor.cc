// Copyright 2026 The Microbrowse Authors

#include "serve/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"

namespace microbrowse {
namespace serve {

namespace {

/// recv(2) chunk size per read.
constexpr size_t kReadChunkBytes = 16 * 1024;

/// The starvation bound: recv calls one connection may consume per pass
/// before being re-queued behind the other ready connections.
constexpr int kMaxReadsPerPass = 8;

/// Interest set of an idle connection. Edge-triggered, so a readiness event
/// must be drained until EAGAIN (the kernel will not re-notify), in return
/// for fewer epoll_wait wakeups per request at saturation.
constexpr uint32_t kReadEvents = EPOLLIN | EPOLLET;

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

/// Adds `delta` to a counter that only the calling reactor thread writes:
/// a plain load and store, no locked read-modify-write.
template <typename T>
void AddOwned(std::atomic<T>& counter, T delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta, std::memory_order_release);
}

}  // namespace

// ---------------------------------------------------------------------------
// ReactorConn
// ---------------------------------------------------------------------------

void ReactorConn::Write(std::string_view payload, bool raw) {
  if (killed_ || closed_) return;
  outbox_.append(payload.data(), payload.size());
  if (!raw) outbox_.push_back('\n');
  ++writes_;
}

void ReactorConn::TryFlush() {
  while (out_start_ < outbox_.size()) {
    Result<size_t> sent = SendSome(
        socket_, std::string_view(outbox_.data() + out_start_, outbox_.size() - out_start_));
    if (!sent.ok()) {
      write_error_ = true;
      return;
    }
    if (*sent == 0) return;  // Kernel buffer full — wait for EPOLLOUT.
    out_start_ += *sent;
    total_flushed_ += *sent;
  }
  outbox_.clear();
  out_start_ = 0;
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

Reactor::Reactor(ReactorHandler* handler, ReactorOptions options)
    : handler_(handler), options_(std::move(options)) {}

Reactor::~Reactor() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Status Reactor::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(ADD wakeup)");
  }
  return Status::OK();
}

void Reactor::Run() {
  constexpr int kMaxEvents = 256;
  std::vector<epoll_event> events(kMaxEvents);
  Deadline next_tick = Deadline::AfterMillis(options_.tick_ms);

  while (!stop_.load(std::memory_order_acquire)) {
    // Connections still owed a read must not wait for the next kernel
    // event (none may come — the edge already fired): poll without
    // blocking until the backlog clears.
    const int64_t wait_ms =
        pending_reads_.empty()
            ? std::min<int64_t>(options_.tick_ms, next_tick.remaining_millis())
            : 0;
    const int n = ::epoll_wait(epoll_fd_, events.data(), kMaxEvents,
                               static_cast<int>(wait_ms));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // The epoll set itself failed; nothing recoverable remains.
    }

    // Read phase: every ready connection, before any line is dispatched.
    std::vector<std::shared_ptr<ReactorConn>> backlog;
    backlog.swap(pending_reads_);
    for (const auto& conn : backlog) conn->read_pending_ = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        uint64_t count = 0;
        while (::read(wake_fd_, &count, sizeof(count)) > 0) {
        }
        AdoptQueued();
        continue;
      }
      // Look the connection up by fd: an event for a connection closed
      // earlier in this pass simply misses (its fd is still held open in
      // deferred_close_, so the kernel cannot have recycled it yet).
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      ReactorConn& conn = *it->second;
      if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) ReadConn(conn);
      if ((ev & EPOLLOUT) && !conn.closed_) Flush(conn);
    }
    // The read backlog gets one more budgeted read per pass, interleaved
    // with fresh events so one firehose cannot starve the others.
    for (const auto& conn : backlog) {
      if (!conn->closed_ && !conn->dispatch_pending_) ReadConn(*conn);
    }

    // Dispatch phase: each read connection's lines, in read order.
    for (ReactorConn* conn : ready_) DispatchConn(*conn);
    ready_.clear();

    if (next_tick.expired()) {
      HandleTick();
      next_tick = Deadline::AfterMillis(options_.tick_ms);
    }

    deferred_close_.clear();  // Now the pass is over, released fds may close.
    AddOwned<uint64_t>(passes_, 1);
  }

  // Shutdown: every remaining connection leaves through the same door, and
  // a socket adopted too late to be served is closed unanswered.
  {
    std::lock_guard<std::mutex> lock(adopt_mu_);
    adopt_queue_.clear();
  }
  std::vector<std::shared_ptr<ReactorConn>> remaining;
  remaining.reserve(conns_.size());
  for (auto& entry : conns_) remaining.push_back(entry.second);
  for (auto& conn : remaining) CloseConn(*conn, CloseReason::kServerStop);
  deferred_close_.clear();
}

void Reactor::Stop() {
  stop_.store(true, std::memory_order_release);
  Wake();
}

void Reactor::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::Adopt(Socket socket) {
  {
    std::lock_guard<std::mutex> lock(adopt_mu_);
    adopt_queue_.push_back(std::move(socket));
  }
  Wake();
}

void Reactor::AdoptQueued() {
  std::vector<Socket> adopted;
  {
    std::lock_guard<std::mutex> lock(adopt_mu_);
    adopted.swap(adopt_queue_);
  }
  for (Socket& socket : adopted) AddConn(std::move(socket));
}

void Reactor::AddConn(Socket socket) {
  const int fd = socket.fd();
  auto conn = std::make_shared<ReactorConn>(std::move(socket), options_.max_line_bytes,
                                            &buffer_pool_);
  if (options_.idle_timeout_ms > 0) {
    conn->idle_ = Deadline::AfterMillis(options_.idle_timeout_ms);
  }
  epoll_event ev{};
  ev.events = kReadEvents;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return;  // Dtor closes.
  conns_.emplace(fd, std::move(conn));
  AddOwned<size_t>(active_connections_, 1);
}

void Reactor::ReadConn(ReactorConn& conn) {
  // A connection that will answer no further line is not read: what its
  // peer sends waits in the kernel, bounded by the TCP window, instead of
  // in the read buffer. Dispatch leaves only the partial line behind, so
  // a read buffer holds at most max_line_bytes plus one pass's budget.
  if (conn.closed_ || conn.eof_ || conn.killed_ || conn.close_after_flush_) return;

  // Drain until EAGAIN (the edge will not re-arm), but stop after
  // kMaxReadsPerPass recvs so one firehose connection cannot starve the
  // rest of the set — a budget-exhausted connection is re-queued via
  // pending_reads_. Nothing is dispatched yet: the buffer holds every
  // line read until the dispatch phase.
  bool read_any = false;
  bool maybe_more = false;
  for (int read_count = 0; read_count < kMaxReadsPerPass; ++read_count) {
    char* tail = conn.in_.ReserveTail(kReadChunkBytes);
    const ssize_t n = ::recv(conn.socket_.fd(), tail, kReadChunkBytes, 0);
    if (n == 0) {
      conn.eof_ = true;  // Answer what was read, then close.
      maybe_more = false;
      break;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        maybe_more = errno == EINTR;
        break;
      }
      CloseConn(conn, CloseReason::kError);
      return;
    }
    conn.in_.CommitTail(static_cast<size_t>(n));
    if (conn.in_.overlong()) {
      CloseConn(conn, CloseReason::kOverlongLine);
      return;
    }
    read_any = true;
    // The budget may expire with bytes still buffered in the kernel; only
    // a short read proves the socket drained at this instant.
    maybe_more = static_cast<size_t>(n) == kReadChunkBytes;
    if (!maybe_more) break;
  }
  if (read_any || conn.eof_) {
    conn.read_at_ = std::chrono::steady_clock::now();
    if (!conn.dispatch_pending_) {
      conn.dispatch_pending_ = true;
      ready_.push_back(&conn);
    }
  }
  if (maybe_more && !conn.read_pending_) {
    conn.read_pending_ = true;
    pending_reads_.push_back(conns_.at(conn.socket_.fd()));
  }
}

void Reactor::DispatchConn(ReactorConn& conn) {
  conn.dispatch_pending_ = false;
  if (conn.closed_) return;
  // Every complete line, answered in read order before the next; the
  // handler's responses only append, and the burst leaves in one send.
  const uint64_t writes_before = conn.writes_;
  std::string_view line;
  while (!conn.killed_ && !conn.close_after_flush_ && conn.in_.NextLine(&line)) {
    handler_->OnLine(conn, line);
  }
  if (options_.batch_size != nullptr && conn.writes_ > writes_before) {
    options_.batch_size->Record(static_cast<double>(conn.writes_ - writes_before));
  }
  if (conn.eof_ && !conn.killed_) {
    conn.TryFlush();
    CloseConn(conn, conn.in_.pending_bytes() > 0 ? CloseReason::kError : CloseReason::kEof);
    return;
  }
  Flush(conn);
}

void Reactor::Flush(ReactorConn& conn) {
  if (conn.closed_) return;
  if (conn.killed_) {
    CloseConn(conn, CloseReason::kHandler);
    return;
  }
  if (conn.pending() > 0) conn.TryFlush();
  if (conn.write_error_) {
    CloseConn(conn, CloseReason::kError);
    return;
  }
  const size_t pending = conn.pending();
  if (pending > options_.max_outbox_bytes) {
    // The peer is not reading: buffering its backlog without bound would
    // let one stalled client consume arbitrary memory. The handler maps
    // this onto mb.serve.write_timeout.
    CloseConn(conn, CloseReason::kWriteTimeout);
    return;
  }
  if (pending == 0 && conn.close_after_flush_) {
    CloseConn(conn, CloseReason::kHandler);
    return;
  }
  SetWriteInterest(conn, pending > 0);
}

void Reactor::SetWriteInterest(ReactorConn& conn, bool want) {
  if (conn.want_write_ == want) return;
  epoll_event ev{};
  ev.events = want ? kReadEvents | EPOLLOUT : kReadEvents;
  ev.data.fd = conn.socket_.fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.socket_.fd(), &ev);
  conn.want_write_ = want;
  AddOwned<int64_t>(unflushed_connections_, want ? 1 : -1);
}

void Reactor::HandleTick() {
  handler_->OnTick();
  std::vector<std::shared_ptr<ReactorConn>> snapshot;
  snapshot.reserve(conns_.size());
  for (auto& entry : conns_) snapshot.push_back(entry.second);

  for (const auto& owned : snapshot) {
    ReactorConn& conn = *owned;
    if (conn.closed_) continue;

    const uint64_t bytes = conn.in_.total_bytes();
    const bool quiet = bytes == conn.quiet_bytes_mark_;
    conn.quiet_bytes_mark_ = bytes;
    if (quiet) handler_->OnQuietTick(conn);

    // Write-stall detection: pending output that makes no flush progress
    // across write_timeout_ms means the peer stopped reading. Progress is
    // measured by ever-flushed bytes, so a trickling reader that still
    // absorbs data keeps its connection.
    const size_t pending = conn.pending();
    if (pending == 0) {
      conn.write_stall_ = Deadline::Infinite();
    } else if (options_.write_timeout_ms > 0) {
      if (conn.write_stall_.infinite() || conn.total_flushed_ != conn.write_stall_mark_) {
        conn.write_stall_mark_ = conn.total_flushed_;
        conn.write_stall_ = Deadline::AfterMillis(options_.write_timeout_ms);
      } else if (conn.write_stall_.expired()) {
        CloseConn(conn, CloseReason::kWriteTimeout);
        continue;
      }
    }

    // Idle eviction: byte movement (not complete requests) resets the
    // clock, and a connection still owed unsent output is busy, not idle.
    // No line of this reactor is being scored while its tick runs.
    if (options_.idle_timeout_ms > 0) {
      if (bytes != conn.idle_bytes_mark_) {
        conn.idle_bytes_mark_ = bytes;
        conn.idle_ = Deadline::AfterMillis(options_.idle_timeout_ms);
      } else if (conn.idle_.expired() && pending == 0) {
        CloseConn(conn, CloseReason::kIdle);
        continue;
      }
    }

    Flush(conn);  // A quiet-tick HTTP response may be pending.
  }
}

void Reactor::CloseConn(ReactorConn& conn, CloseReason reason) {
  if (conn.closed_) return;
  conn.closed_ = true;
  if (conn.want_write_) {
    conn.want_write_ = false;
    AddOwned<int64_t>(unflushed_connections_, -1);
  }
  conn.outbox_.clear();
  conn.out_start_ = 0;
  handler_->OnClose(conn, reason);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.socket_.fd(), nullptr);
  conn.socket_.Shutdown();
  // The fd itself closes when the last reference drops — after this pass
  // at the earliest (deferred_close_).
  auto it = conns_.find(conn.socket_.fd());
  deferred_close_.push_back(std::move(it->second));
  conns_.erase(it);
  AddOwned<size_t>(active_connections_, static_cast<size_t>(-1));
}

}  // namespace serve
}  // namespace microbrowse
