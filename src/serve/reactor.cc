// Copyright 2026 The Microbrowse Authors

#include "serve/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
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

/// The starvation bound: recv calls one connection may consume per wakeup
/// before being re-queued behind the other ready connections.
constexpr int kMaxReadsPerEvent = 8;

/// Interest set of an idle connection. Edge-triggered, so a readiness event
/// must be drained until EAGAIN (the kernel will not re-notify), in return
/// for fewer epoll_wait wakeups per request at saturation.
constexpr uint32_t kReadEvents = EPOLLIN | EPOLLET;

/// The connection whose read burst this thread is dispatching: set only on
/// the reactor thread, for the duration of one chunk's handler callbacks.
thread_local const ReactorConn* tls_dispatching = nullptr;

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

// ---------------------------------------------------------------------------
// ReactorConn
// ---------------------------------------------------------------------------

bool ReactorConn::AppendLocked(std::string_view bytes, bool raw) {
  if (!alive.load(std::memory_order_acquire) || overflowed_ || write_error_) return false;
  outbox_.append(bytes.data(), bytes.size());
  if (!raw) outbox_.push_back('\n');
  reactor_->pending_out_bytes_.fetch_add(static_cast<int64_t>(bytes.size() + (raw ? 0 : 1)),
                                         std::memory_order_acq_rel);
  return true;
}

void ReactorConn::SendLocked() {
  TryFlushLocked();
  if (PendingLocked() > max_outbox_bytes_) {
    // The peer is not reading: buffering its backlog without bound would
    // let one stalled client consume arbitrary memory. Mark it for
    // eviction; the reactor maps this onto mb.serve.write_timeout.
    overflowed_ = true;
  }
}

bool ReactorConn::TryFlushLocked() {
  while (out_start_ < outbox_.size()) {
    Result<size_t> sent = SendSome(
        socket_, std::string_view(outbox_.data() + out_start_, outbox_.size() - out_start_));
    if (!sent.ok()) {
      write_error_ = true;
      return false;
    }
    if (*sent == 0) return false;  // Kernel buffer full — wait for EPOLLOUT.
    out_start_ += *sent;
    total_flushed_ += *sent;
    reactor_->pending_out_bytes_.fetch_sub(static_cast<int64_t>(*sent),
                                           std::memory_order_acq_rel);
  }
  outbox_.clear();
  out_start_ = 0;
  return true;
}

void ReactorConn::Kill() {
  // Only mark and wake: the reactor thread alone releases the fd, so a
  // worker's Kill can never race a close into a recycled descriptor.
  if (alive.exchange(false, std::memory_order_acq_rel)) {
    reactor_->RequestFlush(shared_from_this());
  }
}

void ReactorConn::WriteSeq(uint64_t seq, std::string_view payload, bool raw) {
  bool need_wake = false;
  {
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
    std::lock_guard<std::mutex> out_lock(out_mu_);
    // Dead connections still advance the cursor (AppendLocked drops the
    // bytes) so SeqDrained converges and successors release.
    bool appended = AppendLocked(payload, raw);
    ++next_flush_;
    // Append any parked successors that are now in line, so one send
    // carries them all.
    bool progressed = true;
    while (progressed && !held_.empty()) {
      progressed = false;
      for (size_t i = 0; i < held_.size(); ++i) {
        if (held_[i].seq != next_flush_) continue;
        appended = AppendLocked(held_[i].payload, held_[i].raw) || appended;
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
    // The reactor thread dispatching this connection's read burst only
    // appends: it sends the whole burst's responses once the burst ends.
    if (!appended || tls_dispatching == this) return;
    SendLocked();
    if ((PendingLocked() > 0 || write_error_ || overflowed_) && !flush_requested_) {
      flush_requested_ = true;
      need_wake = true;
    }
  }
  if (need_wake) reactor_->RequestFlush(shared_from_this());
}

bool ReactorConn::SeqDrained() {
  std::lock_guard<std::mutex> lock(seq_mu_);
  return next_flush_ == next_seq_assign_.load(std::memory_order_acquire);
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

Status Reactor::Init(int listener_fd) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");

  listener_fd_ = listener_fd;
  const int flags = ::fcntl(listener_fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(listener_fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(listener O_NONBLOCK)");
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(ADD wakeup)");
  }
  ev.data.fd = listener_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_fd_, &ev) != 0) {
    return Errno("epoll_ctl(ADD listener)");
  }
  listener_registered_ = true;
  return Status::OK();
}

void Reactor::Run() {
  constexpr int kMaxEvents = 256;
  std::vector<epoll_event> events(kMaxEvents);
  Deadline next_tick = Deadline::AfterMillis(options_.tick_ms);

  while (!stop_.load(std::memory_order_acquire)) {
    if (stop_accepting_.load(std::memory_order_acquire) && listener_registered_) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_fd_, nullptr);
      listener_registered_ = false;
    }

    // Connections still owed a read pass must not wait for the next
    // kernel event (none may come — the edge already fired): poll
    // without blocking until the backlog clears.
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

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        uint64_t count = 0;
        while (::read(wake_fd_, &count, sizeof(count)) > 0) {
        }
        continue;
      }
      if (fd == listener_fd_) {
        HandleAccept();
        continue;
      }
      // Look the connection up by fd: an event for a connection closed
      // earlier in this same batch simply misses (its fd is still held
      // open in deferred_close_, so the kernel cannot have recycled it
      // into a new connection yet).
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<ReactorConn> conn = it->second;
      if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) HandleReadable(conn);
      if ((ev & EPOLLOUT) && !conn->closed_) HandleWritable(conn);
    }

    DrainWakeups();

    // Service the read backlog: one more budgeted pass per connection per
    // loop iteration, interleaved with fresh events so a drain-until-EAGAIN
    // on one firehose cannot starve the others.
    if (!pending_reads_.empty()) {
      std::vector<std::shared_ptr<ReactorConn>> again;
      again.swap(pending_reads_);
      for (const auto& conn : again) {
        conn->read_pending_ = false;
        if (!conn->closed_) HandleReadable(conn);
      }
    }

    if (next_tick.expired()) {
      HandleTick();
      next_tick = Deadline::AfterMillis(options_.tick_ms);
    }

    deferred_close_.clear();  // Now the batch is over, released fds may close.
  }

  // Shutdown: every remaining connection leaves through the same door.
  std::vector<std::shared_ptr<ReactorConn>> remaining;
  remaining.reserve(conns_.size());
  for (auto& entry : conns_) remaining.push_back(entry.second);
  for (auto& conn : remaining) CloseConn(conn, CloseReason::kServerStop);
  deferred_close_.clear();
}

void Reactor::Stop() {
  stop_.store(true, std::memory_order_release);
  Wake();
}

void Reactor::StopAccepting() {
  stop_accepting_.store(true, std::memory_order_release);
  Wake();
}

void Reactor::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::RequestFlush(std::shared_ptr<ReactorConn> conn) {
  {
    std::lock_guard<std::mutex> lock(wakeup_mu_);
    flush_queue_.push_back(std::move(conn));
  }
  Wake();
}

void Reactor::DrainWakeups() {
  std::vector<std::shared_ptr<ReactorConn>> pending;
  {
    std::lock_guard<std::mutex> lock(wakeup_mu_);
    pending.swap(flush_queue_);
  }
  for (const auto& conn : pending) {
    {
      std::lock_guard<std::mutex> lock(conn->out_mu_);
      conn->flush_requested_ = false;
      if (!conn->closed_) conn->TryFlushLocked();
    }
    if (!conn->closed_) UpdateWriteInterest(conn);
  }
}

void Reactor::HandleAccept() {
  for (;;) {
    const int fd = ::accept4(listener_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN: backlog dry. Other errors: wait for the next event.
    }
    Socket socket(fd);
    if (stop_accepting_.load(std::memory_order_acquire)) continue;  // Drop it.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      (void)SetSendBufferBytes(socket, options_.sndbuf_bytes);
    }

    auto conn =
        std::make_shared<ReactorConn>(std::move(socket), this, options_, &buffer_pool_);
    if (options_.idle_timeout_ms > 0) {
      conn->idle_ = Deadline::AfterMillis(options_.idle_timeout_ms);
    }

    epoll_event ev{};
    ev.events = kReadEvents;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) continue;  // Dtor closes.
    conns_.emplace(fd, std::move(conn));
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void Reactor::HandleReadable(const std::shared_ptr<ReactorConn>& conn) {
  if (conn->closed_) return;

  // Drain until EAGAIN (the edge will not re-arm), but stop after
  // kMaxReadsPerEvent recvs so one firehose connection cannot starve the
  // rest of the set — a budget-exhausted connection is re-queued via
  // pending_reads_.
  bool maybe_more = false;
  for (int read_count = 0; read_count < kMaxReadsPerEvent; ++read_count) {
    char* tail = conn->in_.ReserveTail(kReadChunkBytes);
    const ssize_t n = ::recv(conn->socket_.fd(), tail, kReadChunkBytes, 0);
    if (n == 0) {
      CloseConn(conn, conn->in_.pending_bytes() > 0 ? CloseReason::kError
                                                    : CloseReason::kEof);
      return;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        maybe_more = false;
        break;
      }
      CloseConn(conn, CloseReason::kError);
      return;
    }
    conn->in_.CommitTail(static_cast<size_t>(n));
    if (conn->in_.overlong()) {
      CloseConn(conn, CloseReason::kOverlongLine);
      return;
    }
    // The budget may expire with bytes still buffered in the kernel; only
    // a short read proves the socket drained at this instant.
    maybe_more = static_cast<size_t>(n) == kReadChunkBytes;

    // Dispatch every complete line this chunk finished: pipelined requests
    // already buffered dispatch without further syscalls. Responses the
    // handler writes meanwhile only append to the outbox; the chunk's
    // burst then leaves in one send.
    std::string_view line;
    tls_dispatching = conn.get();
    while (!conn->closed_ && !conn->close_after_flush_ &&
           conn->alive.load(std::memory_order_acquire) && conn->in_.NextLine(&line)) {
      handler_->OnLine(conn, line);
    }
    tls_dispatching = nullptr;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu_);
      if (conn->PendingLocked() > 0) conn->SendLocked();
    }
    if (conn->closed_) return;
    if (conn->close_after_flush_ ||
        !conn->alive.load(std::memory_order_acquire)) {
      maybe_more = false;
      break;
    }
    if (!maybe_more) break;
  }
  if (maybe_more && !conn->closed_ && !conn->read_pending_) {
    conn->read_pending_ = true;
    pending_reads_.push_back(conn);
  }
  if (!conn->closed_) UpdateWriteInterest(conn);
}

void Reactor::HandleWritable(const std::shared_ptr<ReactorConn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu_);
    conn->TryFlushLocked();
  }
  UpdateWriteInterest(conn);
}

void Reactor::UpdateWriteInterest(const std::shared_ptr<ReactorConn>& conn) {
  if (conn->closed_) return;
  bool error = false;
  bool overflowed = false;
  size_t pending = 0;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu_);
    error = conn->write_error_;
    overflowed = conn->overflowed_;
    pending = conn->PendingLocked();
  }
  if (error) {
    CloseConn(conn, CloseReason::kError);
    return;
  }
  if (overflowed) {
    CloseConn(conn, CloseReason::kWriteTimeout);
    return;
  }
  if (!conn->alive.load(std::memory_order_acquire)) {
    CloseConn(conn, CloseReason::kHandler);
    return;
  }
  if (pending == 0) {
    // close_after_flush waits for SeqDrained too: an empty outbox with a
    // response still parked in the sequencer (an HTTP close racing owed
    // pipelined responses) is not yet flushed. SeqDrained is checked
    // outside out_mu_ — seq_mu_ orders before the transport lock.
    if (conn->close_after_flush_ && conn->SeqDrained()) {
      CloseConn(conn, CloseReason::kHandler);
      return;
    }
    if (conn->want_write_) {
      epoll_event ev{};
      ev.events = kReadEvents;
      ev.data.fd = conn->socket_.fd();
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->socket_.fd(), &ev);
      conn->want_write_ = false;
    }
  } else if (!conn->want_write_) {
    epoll_event ev{};
    ev.events = kReadEvents | EPOLLOUT;
    ev.data.fd = conn->socket_.fd();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->socket_.fd(), &ev);
    conn->want_write_ = true;
  }
}

void Reactor::HandleTick() {
  std::vector<std::shared_ptr<ReactorConn>> snapshot;
  snapshot.reserve(conns_.size());
  for (auto& entry : conns_) snapshot.push_back(entry.second);

  for (const auto& conn : snapshot) {
    if (conn->closed_) continue;

    const uint64_t bytes = conn->in_.total_bytes();
    const bool quiet = bytes == conn->quiet_bytes_mark_;
    conn->quiet_bytes_mark_ = bytes;
    if (quiet) {
      handler_->OnQuietTick(conn);
      if (conn->closed_) continue;
    }

    size_t pending = 0;
    uint64_t flushed = 0;
    bool overflowed = false;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu_);
      pending = conn->PendingLocked();
      flushed = conn->total_flushed_;
      overflowed = conn->overflowed_;
    }
    if (overflowed) {
      CloseConn(conn, CloseReason::kWriteTimeout);
      continue;
    }

    // Write-stall detection: pending output that makes no flush progress
    // across write_timeout_ms means the peer stopped reading. Progress is
    // measured by ever-flushed bytes, so a trickling reader that still
    // absorbs data keeps its connection.
    if (pending == 0) {
      conn->write_stall_ = Deadline::Infinite();
    } else if (options_.write_timeout_ms > 0) {
      if (conn->write_stall_.infinite() || flushed != conn->write_stall_mark_) {
        conn->write_stall_mark_ = flushed;
        conn->write_stall_ = Deadline::AfterMillis(options_.write_timeout_ms);
      } else if (conn->write_stall_.expired()) {
        CloseConn(conn, CloseReason::kWriteTimeout);
        continue;
      }
    }

    // Idle eviction: byte movement (not complete requests) resets the
    // clock, and a connection still owed a response (inflight > 0 or
    // unflushed output) is busy, not idle.
    if (options_.idle_timeout_ms > 0) {
      if (bytes != conn->idle_bytes_mark_) {
        conn->idle_bytes_mark_ = bytes;
        conn->idle_ = Deadline::AfterMillis(options_.idle_timeout_ms);
      } else if (conn->idle_.expired() &&
                 conn->inflight.load(std::memory_order_acquire) == 0 &&
                 pending == 0) {
        CloseConn(conn, CloseReason::kIdle);
        continue;
      }
    }

    UpdateWriteInterest(conn);  // A quiet-tick HTTP response may be pending.
  }
}

void Reactor::CloseConn(const std::shared_ptr<ReactorConn>& conn, CloseReason reason) {
  if (conn->closed_) return;
  conn->closed_ = true;
  {
    // Flip alive under out_mu_ so no WriteSeq can add bytes after the
    // pending-out accounting settles below.
    std::lock_guard<std::mutex> lock(conn->out_mu_);
    conn->alive.store(false, std::memory_order_release);
    pending_out_bytes_.fetch_sub(static_cast<int64_t>(conn->PendingLocked()),
                                 std::memory_order_acq_rel);
    conn->outbox_.clear();
    conn->out_start_ = 0;
  }
  handler_->OnClose(conn, reason);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->socket_.fd(), nullptr);
  conn->socket_.Shutdown();
  conns_.erase(conn->socket_.fd());
  active_connections_.fetch_sub(1, std::memory_order_acq_rel);
  // The fd itself closes when the last reference drops — after this batch
  // at the earliest (deferred_close_), later if a worker still owes the
  // connection a (now dropped) response.
  deferred_close_.push_back(conn);
}

}  // namespace serve
}  // namespace microbrowse
