// Copyright 2026 The Microbrowse Authors
//
// Resilient client for the mbserved line protocol, shared by mbctl's
// --server mode, the resilience tests and the chaos soak harness. One
// request is in flight at a time (responses therefore arrive in order; no
// id matching needed), and every transient failure — connect refusal, a
// dropped connection or a "draining" refusal — is retried with
// exponential backoff and full jitter, reconnecting as needed. A "draining" refusal's retry_after_ms is honoured as the floor
// of the next delay: the server names the earliest useful retry time, and
// hammering a draining server any sooner is wasted work on both sides.
//
// Deterministic failures (a malformed request, a scoring error, a
// deadline_exceeded refusal — the budget is spent; retrying cannot
// unspend it) are returned immediately. Tests inject a seeded Rng via
// ClientOptions::retry.rng to make backoff schedules reproducible.

#ifndef MICROBROWSE_SERVE_CLIENT_H_
#define MICROBROWSE_SERVE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/retry.h"
#include "common/socket.h"
#include "serve/protocol.h"

namespace microbrowse {
namespace serve {

/// The serve-path retry schedule: more attempts and longer initial waits
/// than the artifact-write default, and full jitter ON — a fleet of
/// clients bounced by one draining server must not thunder back in
/// lockstep.
RetryOptions DefaultServeRetry();

/// Client configuration.
struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 7077;
  /// Backoff schedule for transient failures. max_attempts bounds total
  /// tries per Call (including the first).
  RetryOptions retry = DefaultServeRetry();
  /// Attached as "deadline_ms" to every request that does not already
  /// carry the field; 0 sends no deadline. Each retry gets a fresh budget
  /// (the deadline bounds one attempt's queue wait, not the whole Call).
  int64_t deadline_ms = 0;
  /// Client-side bound on waiting for a response; a quiet server surfaces
  /// as kDeadlineExceeded and the connection is re-established on the
  /// next attempt. 0 waits forever.
  int64_t recv_timeout_ms = 10'000;
};

/// Counters a Call loop accumulates; the chaos harness reads these to
/// account for every request it sent.
struct ClientStats {
  int64_t attempts = 0;    ///< Round trips tried (includes retries).
  int64_t retries = 0;     ///< Backoff sleeps taken.
  int64_t reconnects = 0;  ///< Connections re-established after a failure.
};

class ResilientClient {
 public:
  explicit ResilientClient(ClientOptions options);

  /// Parses "host:port" (or bare "port", defaulting the host to
  /// 127.0.0.1) into options with everything else defaulted.
  static Result<ClientOptions> ParseTarget(const std::string& spec);

  /// Sends one request line (no trailing newline) and returns the parsed
  /// {"ok":true,...} response, retrying transient failures per
  /// options.retry. The request is augmented with options.deadline_ms
  /// unless it already carries a "deadline_ms" field.
  Result<Request> Call(const std::string& request_line);

  /// score_pair round trip; returns the margin of a over b.
  Result<double> ScorePair(const std::string& a, const std::string& b);

  /// {"type":"ping"} round trip; cheap liveness probe.
  Status Ping();

  const ClientStats& stats() const { return stats_; }
  bool connected() const { return socket_ != nullptr; }
  /// Drops the connection; the next Call reconnects. (Test hook.)
  void Disconnect();

 private:
  Status EnsureConnected();
  /// One attempt: send, read one response, classify. Transient statuses
  /// (kIOError, kUnavailable) are what Call retries.
  Result<Request> RoundTripOnce(const std::string& line);

  ClientOptions options_;
  std::unique_ptr<Socket> socket_;
  std::unique_ptr<LineReader> reader_;
  ClientStats stats_;
  bool ever_connected_ = false;
  /// retry_after_ms from the most recent refusal, 0 when none; floors the
  /// next backoff delay.
  int64_t last_retry_after_ms_ = 0;
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_CLIENT_H_
