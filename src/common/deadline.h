// Copyright 2026 The Microbrowse Authors
//
// A monotonic request deadline. Serving threads a Deadline through the
// request path so a queued request whose budget is already spent can be
// refused *before* scoring, and drain/idle loops can wait "until T or the
// work is done" without re-deriving absolute times at every call site.
// Built on steady_clock: wall-clock jumps (NTP slews, suspend/resume)
// never extend or shorten a budget.

#ifndef MICROBROWSE_COMMON_DEADLINE_H_
#define MICROBROWSE_COMMON_DEADLINE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

namespace microbrowse {

/// A point on the monotonic clock by which some work must finish. Default
/// constructed (or Infinite()) it never expires — "no deadline" is the
/// same type as "a deadline", so call sites need no optional wrapper.
class Deadline {
 public:
  /// Never expires.
  Deadline() = default;

  /// The deadline that never expires (explicit-named form of the default).
  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now. Non-positive budgets are already
  /// expired (a request that arrives with a spent budget must be refused,
  /// not given a free pass through an "infinite" sentinel). A budget past
  /// the end of the clock's range cannot expire, so it saturates to
  /// Infinite() instead of overflowing into the past.
  static Deadline AfterMillis(int64_t ms) {
    using std::chrono::milliseconds;
    const Clock::time_point now = Clock::now();
    if (ms >= std::chrono::duration_cast<milliseconds>(Clock::time_point::max() - now)
                  .count()) {
      return Infinite();
    }
    Deadline deadline;
    deadline.infinite_ = false;
    deadline.at_ = now + milliseconds(std::max<int64_t>(ms, 0));
    return deadline;
  }

  /// True when this deadline can never expire.
  bool infinite() const { return infinite_; }

  /// True when the deadline has passed. Infinite deadlines never expire.
  bool expired() const { return !infinite_ && Clock::now() >= at_; }

  /// Milliseconds left before expiry, clamped to >= 0. Infinite deadlines
  /// report INT64_MAX — large enough that any sleep derived from it should
  /// be clamped by the caller's own tick.
  int64_t remaining_millis() const {
    if (infinite_) return std::numeric_limits<int64_t>::max();
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(at_ - Clock::now()).count();
    return left > 0 ? left : 0;
  }

  /// The earlier (stricter) of two deadlines.
  static Deadline Earlier(const Deadline& a, const Deadline& b) {
    if (a.infinite_) return b;
    if (b.infinite_) return a;
    return a.at_ <= b.at_ ? a : b;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool infinite_ = true;
  Clock::time_point at_{};
};

}  // namespace microbrowse

#endif  // MICROBROWSE_COMMON_DEADLINE_H_
