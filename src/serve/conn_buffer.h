// Copyright 2026 The Microbrowse Authors
//
// Per-connection input buffering for the epoll reactor: the kernel writes
// straight into the buffer's tail (ReserveTail/CommitTail — no intermediate
// chunk copy), and complete lines come back as string_views into the same
// storage (NextLine — no per-line allocation). Every line is parsed in
// place: nothing on the request path copies it.
//
// Consumed bytes are reclaimed by offset, not erase: when every buffered
// byte has been consumed the buffer resets to empty for free (the common
// case — most reads end on a line boundary), and only a large consumed
// prefix under a still-pending partial line triggers a memmove compaction.
//
// A BufferPool recycles the underlying storage across connections so 10k
// clients churning through short-lived connections reuse a bounded set of
// allocations instead of hammering the allocator. Buffers that grew past
// the retention cap are dropped rather than pooled — one 4 MB request must
// not permanently inflate the pool.

#ifndef MICROBROWSE_SERVE_CONN_BUFFER_H_
#define MICROBROWSE_SERVE_CONN_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

namespace microbrowse {
namespace serve {

/// Bounded free list of reusable byte buffers, shared by every connection
/// of one reactor. Thread-compatible with the reactor's single-threaded
/// connection lifecycle, but locked anyway — acquisition/release is rare
/// (connection open/close), never per request.
class BufferPool {
 public:
  /// At most this many buffers are retained; beyond it releases free.
  static constexpr size_t kMaxPooled = 256;
  /// A buffer whose capacity grew past this is freed instead of pooled.
  static constexpr size_t kMaxPooledCapacity = 256 * 1024;

  std::vector<char> Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return {};
    std::vector<char> buffer = std::move(free_.back());
    free_.pop_back();
    return buffer;
  }

  void Release(std::vector<char>&& buffer) {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < kMaxPooled && buffer.capacity() <= kMaxPooledCapacity) {
      buffer.clear();
      free_.push_back(std::move(buffer));
    }
  }

  size_t pooled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<char>> free_;
};

/// Line-framing input buffer for one connection. Not thread-safe: owned by
/// the reactor thread.
class ConnBuffer {
 public:
  /// `pool` may be null (tests); storage is then plain-allocated. A partial
  /// line longer than `max_line_bytes` flips overlong() permanently — the
  /// caller evicts the connection. Complete lines not yet consumed do not
  /// count: a reader may buffer several reads before framing them.
  explicit ConnBuffer(size_t max_line_bytes, BufferPool* pool = nullptr)
      : max_line_bytes_(max_line_bytes), pool_(pool) {
    if (pool_ != nullptr) data_ = pool_->Acquire();
  }

  ~ConnBuffer() {
    if (pool_ != nullptr) pool_->Release(std::move(data_));
  }

  ConnBuffer(const ConnBuffer&) = delete;
  ConnBuffer& operator=(const ConnBuffer&) = delete;

  /// A writable tail of at least `n` bytes for the kernel to fill.
  /// Invalidates views returned by NextLine.
  char* ReserveTail(size_t n) {
    if (data_.size() < size_ + n) data_.resize(size_ + n);
    return data_.data() + size_;
  }

  /// Publishes `n` bytes the kernel wrote into ReserveTail's span.
  void CommitTail(size_t n) {
    const char* fresh = data_.data() + size_;
    if (const void* newline = ::memrchr(fresh, '\n', n)) {
      partial_start_ = size_ + static_cast<size_t>(static_cast<const char*>(newline) - fresh) + 1;
    }
    size_ += n;
    total_bytes_ += n;
    if (size_ - partial_start_ > max_line_bytes_) overlong_ = true;
  }

  /// Next complete line as a view into the buffer ('\n' stripped, a '\r'
  /// before it too). The view stays valid until the next ReserveTail.
  /// Returns false when no complete line is buffered; check overlong()
  /// then — a partial line past the bound never completes.
  bool NextLine(std::string_view* line) {
    const char* base = data_.data();
    const void* found = std::memchr(base + start_, '\n', size_ - start_);
    if (found == nullptr) {
      MaybeCompact();
      return false;
    }
    const size_t newline = static_cast<size_t>(static_cast<const char*>(found) - base);
    size_t end = newline;
    if (end > start_ && base[end - 1] == '\r') --end;
    *line = std::string_view(base + start_, end - start_);
    start_ = newline + 1;
    return true;
  }

  /// True once a partial line exceeded max_line_bytes.
  bool overlong() const { return overlong_; }

  /// Unconsumed bytes (the pending partial line after NextLine ran dry).
  size_t pending_bytes() const { return size_ - start_; }

  /// Total bytes ever committed — the idle reaper's byte-movement mark.
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  void MaybeCompact() {
    if (start_ == size_) {
      // Everything consumed: reset for free. This is the steady state for
      // well-formed traffic, so the buffer almost never memmoves.
      start_ = 0;
      size_ = 0;
      partial_start_ = 0;
    } else if (start_ > 64 * 1024 && start_ * 2 > size_) {
      std::memmove(data_.data(), data_.data() + start_, size_ - start_);
      size_ -= start_;
      partial_start_ -= start_;
      start_ = 0;
    }
  }

  size_t max_line_bytes_;
  BufferPool* pool_;
  std::vector<char> data_;
  size_t start_ = 0;  ///< First unconsumed byte.
  size_t size_ = 0;   ///< One past the last committed byte.
  size_t partial_start_ = 0;  ///< First byte after the last committed '\n'.
  uint64_t total_bytes_ = 0;
  bool overlong_ = false;
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_CONN_BUFFER_H_
