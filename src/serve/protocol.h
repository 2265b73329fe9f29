// Copyright 2026 The Microbrowse Authors
//
// The mbserved wire protocol: newline-delimited flat JSON objects, one
// request and one response per line. Flat means every value is a string,
// number or boolean — no nesting on the *input* side, which keeps the
// parser small and the protocol driveable with netcat:
//
//   {"type":"score_pair","a":"brand|cheap flights|book now","b":"..."}
//   {"type":"predict_ctr","snippet":"brand|cheap flights|book now"}
//   {"type":"examine","snippet":"brand|cheap flights|book now"}
//   {"type":"reload"}          {"type":"statsz"}          {"type":"ping"}
//   {"type":"healthz"}         {"type":"readyz"}          {"type":"metricsz"}
//
// Responses always carry "ok":true|false; an optional request "id" is
// echoed verbatim. Responses for one connection flush in request order:
// every line read from a connection is stamped with a per-connection
// sequence number at intake, and the transport holds any response that
// completes early until its predecessors have been written (DESIGN.md
// section 17) — so pipelined clients may match responses positionally,
// with "id" kept as a debugging aid and a guard against lossy proxies.
// Response values may be nested JSON (examine's per-token breakdown,
// statsz's per-endpoint maps) — emitted via JsonWriter::Raw, never parsed
// back by this codec.
//
// Deadlines: any request may carry "deadline_ms":N, the client's queue-wait
// budget measured from the moment the server reads the line (monotonic
// clock; never wall time). A request still queued when its budget runs out
// is answered {"ok":false,"error":"deadline_exceeded"} without being
// scored. A cached result is answered as its line is read, so only a
// budget already spent then (deadline_ms <= 0) refuses it. Servers may also impose a default via --default-deadline-ms for
// requests that carry no deadline of their own.
//
// Refusal vocabulary — the closed set of "error" values a client must be
// prepared to handle on any request:
//
//   "deadline_exceeded" — queue wait exhausted the deadline budget.
//   "overloaded"        — shed at admission (queue full, or the connection
//                         is over its pipelined in-flight cap). Retry with
//                         backoff.
//   "draining"          — the server is shutting down gracefully and admits
//                         no new work; carries "retry_after_ms":N as the
//                         suggested floor before retrying elsewhere/again.
//
// Health surface: "healthz" is liveness — always "ok":true while the
// process can answer at all, with "state":"serving"|"draining"|"degraded".
// "readyz" is readiness — "ok":false while draining or before a bundle is
// staged, so load balancers stop routing before shutdown completes. Both
// are also served as HTTP GET /healthz and /readyz (readyz maps not-ready
// to 503), and both stay answerable during a drain.

#ifndef MICROBROWSE_SERVE_PROTOCOL_H_
#define MICROBROWSE_SERVE_PROTOCOL_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/result.h"

namespace microbrowse {
namespace serve {

struct Request;

/// Parses one request line into `out`, reusing its arena and field vector —
/// after warmup a scratch Request parses with zero heap allocations. On
/// failure `out` is left empty. Accepts exactly one flat JSON object with
/// string / number / boolean / null values; anything else (nesting,
/// trailing garbage, bad escapes) is InvalidArgument with a position hint.
Status ParseRequestInto(std::string_view line, Request* out);

/// A parsed flat JSON object. Field order is insertion order; duplicate
/// keys keep one entry (last value wins). Numeric and boolean values are
/// stored as their literal text ("3.5", "true"); string values are stored
/// unescaped. All views point into the Request's own arena, so a Request
/// is self-contained: moving it keeps the views valid, copying re-copies
/// the bytes.
struct Request {
  std::vector<std::pair<std::string_view, std::string_view>> fields;

  Request() = default;
  Request(Request&&) = default;
  Request& operator=(Request&&) = default;
  Request(const Request& other) { *this = other; }
  Request& operator=(const Request& other) {
    if (this == &other) return *this;
    fields.clear();
    arena_.Reset();
    fields.reserve(other.fields.size());
    for (const auto& [key, value] : other.fields) {
      fields.emplace_back(arena_.Dup(key), arena_.Dup(value));
    }
    return *this;
  }

  /// Value of `key`, or `fallback` when absent. The view is valid for the
  /// lifetime of this Request (or until it is re-parsed into).
  std::string_view Get(std::string_view key, std::string_view fallback = {}) const {
    for (const auto& field : fields) {
      if (field.first == key) return field.second;
    }
    return fallback;
  }
  bool Has(std::string_view key) const {
    for (const auto& field : fields) {
      if (field.first == key) return true;
    }
    return false;
  }

 private:
  friend Status ParseRequestInto(std::string_view line, Request* out);
  Arena arena_{1024};
};

/// Parses one request line into a fresh Request. Convenience wrapper over
/// ParseRequestInto for cold paths; the hot path reuses a scratch Request.
Result<Request> ParseRequest(std::string_view line);

/// Escapes `text` as a JSON string literal body (no surrounding quotes).
std::string JsonEscape(std::string_view text);

/// Appending variant: escapes `text` onto `*out` without intermediate
/// allocations.
void JsonEscapeTo(std::string_view text, std::string* out);

/// Builds one response line. Fields appear in insertion order; Raw splices
/// pre-serialized JSON (arrays / objects) under a key. Reset() clears the
/// writer while keeping its buffer capacity, so a per-worker writer builds
/// responses with zero steady-state allocations.
class JsonWriter {
 public:
  JsonWriter& String(std::string_view key, std::string_view value);
  JsonWriter& Number(std::string_view key, double value);
  JsonWriter& Int(std::string_view key, int64_t value);
  JsonWriter& Bool(std::string_view key, bool value);
  JsonWriter& Raw(std::string_view key, std::string_view json);

  /// Clears the fields while retaining buffer capacity for reuse.
  void Reset() { body_.clear(); }

  /// The finished object, e.g. {"ok":true,"margin":0.25}. No newline.
  std::string Finish() const { return "{" + body_ + "}"; }

  /// Appends the finished object to `*out` (which is cleared first).
  void FinishTo(std::string* out) const {
    out->clear();
    out->reserve(body_.size() + 2);
    out->push_back('{');
    out->append(body_);
    out->push_back('}');
  }

 private:
  void Key(std::string_view key);
  std::string body_;
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_PROTOCOL_H_
