// Copyright 2026 The Microbrowse Authors
//
// Retry with exponential backoff for transient failures. The serve client
// (serve/client.h) goes through this wrapper so that a refused connect or
// an overloaded server degrades a batch job into a short stall instead of
// a failed run.

#ifndef MICROBROWSE_COMMON_RETRY_H_
#define MICROBROWSE_COMMON_RETRY_H_

#include <functional>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace microbrowse {

/// Backoff schedule: attempt k (1-based, after the first failure) sleeps
/// `initial_backoff_ms * multiplier^(k-1)`, capped at `max_backoff_ms`.
/// With `jitter > 0` a fraction of each delay is drawn uniformly at random
/// ("full jitter" at 1.0), so a fleet of clients that failed together does
/// not thunder back in lockstep.
struct RetryOptions {
  int max_attempts = 3;           ///< Total attempts, including the first.
  int initial_backoff_ms = 5;     ///< Sleep before the first retry.
  double backoff_multiplier = 2.0;
  int max_backoff_ms = 2000;
  /// Fraction of each delay that is randomized, in [0,1]. 0 keeps the
  /// fully deterministic schedule (the default — artifact-write call sites
  /// rely on bitwise-reproducible behavior); 1 draws the whole delay from
  /// uniform(0, schedule), AWS-style full jitter. Serve-path retries
  /// default this on (see serve/client.h).
  double jitter = 0.0;
  /// RNG the jittered fraction draws from; tests inject a seeded Rng for
  /// deterministic schedules. nullptr uses a process-local thread-local
  /// generator.
  Rng* rng = nullptr;
};

/// Default transience policy: IOError is retryable (disks flake; the
/// failpoint framework injects it for exactly that reason), and Unavailable
/// is an explicit "try again later" from a server (draining, overloaded).
/// Everything else is a deterministic failure that retrying cannot fix.
bool IsTransient(const Status& status);

/// Deterministic delay before retry number `retry` (1-based) under
/// `options` — the schedule prior to jitter.
int BackoffDelayMs(const RetryOptions& options, int retry);

/// BackoffDelayMs with the options' jitter applied: the deterministic
/// schedule scaled so that `jitter` of it is drawn from uniform(0, x).
/// Equals BackoffDelayMs exactly when jitter == 0.
int JitteredBackoffDelayMs(const RetryOptions& options, int retry);

namespace internal {
/// Sleeps for `ms` milliseconds (no-op for ms <= 0); hoisted out of the
/// header so tests can keep backoff at zero without timing dependencies.
void SleepForMs(int ms);
/// Logs one retry decision at warning level.
void LogRetry(const Status& status, int retry, int delay_ms);
}  // namespace internal

/// Runs `fn` up to `options.max_attempts` times, sleeping with exponential
/// backoff between attempts, while it returns a transient error (per
/// IsTransient). Returns the first success or the last failure.
Status RetryWithBackoff(const std::function<Status()>& fn, const RetryOptions& options = {});

/// Result<T> variant of RetryWithBackoff.
template <typename T>
Result<T> RetryWithBackoff(const std::function<Result<T>()>& fn,
                           const RetryOptions& options = {}) {
  Result<T> result = fn();
  for (int retry = 1; retry < options.max_attempts && !result.ok() &&
                      IsTransient(result.status());
       ++retry) {
    const int delay_ms = JitteredBackoffDelayMs(options, retry);
    internal::LogRetry(result.status(), retry, delay_ms);
    internal::SleepForMs(delay_ms);
    result = fn();
  }
  return result;
}

}  // namespace microbrowse

#endif  // MICROBROWSE_COMMON_RETRY_H_
