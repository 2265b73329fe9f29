// Copyright 2026 The Microbrowse Authors

#include "serve/client.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

namespace microbrowse {
namespace serve {

namespace {

/// Splices "deadline_ms":N into a finished JSON object line. The protocol
/// is flat JSON, so the last '}' always closes the object itself.
std::string WithDeadline(const std::string& line, int64_t deadline_ms) {
  if (deadline_ms <= 0 || line.find("\"deadline_ms\"") != std::string::npos) {
    return line;
  }
  const size_t close = line.rfind('}');
  if (close == std::string::npos) return line;
  const bool empty_object = line.find_first_not_of(" \t", line.find('{') + 1) == close;
  std::string out = line.substr(0, close);
  if (!empty_object) out += ',';
  out += "\"deadline_ms\":" + std::to_string(deadline_ms) + "}";
  out += line.substr(close + 1);
  return out;
}

int64_t ParseInt64(std::string_view text, int64_t fallback) {
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return fallback;
  return value;
}

}  // namespace

RetryOptions DefaultServeRetry() {
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_ms = 50;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_ms = 2000;
  retry.jitter = 1.0;
  return retry;
}

ResilientClient::ResilientClient(ClientOptions options) : options_(std::move(options)) {
  if (options_.retry.max_attempts < 1) options_.retry.max_attempts = 1;
}

Result<ClientOptions> ResilientClient::ParseTarget(const std::string& spec) {
  ClientOptions options;
  std::string port_text = spec;
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) options.host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  const int64_t port = ParseInt64(port_text, -1);
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("expected host:port, got '" + spec + "'");
  }
  options.port = static_cast<uint16_t>(port);
  return options;
}

Status ResilientClient::EnsureConnected() {
  if (socket_ != nullptr) return Status::OK();
  auto socket = TcpConnect(options_.host, options_.port);
  if (!socket.ok()) return socket.status();
  socket_ = std::make_unique<Socket>(std::move(*socket));
  if (options_.recv_timeout_ms > 0) {
    if (const Status status = SetRecvTimeoutMs(*socket_, options_.recv_timeout_ms);
        !status.ok()) {
      socket_.reset();
      return status;
    }
  }
  reader_ = std::make_unique<LineReader>(*socket_);
  if (ever_connected_) stats_.reconnects++;
  ever_connected_ = true;
  return Status::OK();
}

void ResilientClient::Disconnect() {
  reader_.reset();
  socket_.reset();
}

Result<Request> ResilientClient::RoundTripOnce(const std::string& line) {
  if (const Status status = EnsureConnected(); !status.ok()) return status;
  if (const Status status = SendAll(*socket_, line + "\n"); !status.ok()) {
    Disconnect();
    return status;
  }
  std::string response_line;
  auto got = reader_->ReadLine(&response_line);
  if (!got.ok()) {
    // Either the connection broke (kIOError — retryable) or the receive
    // timeout fired (kDeadlineExceeded). A timed-out response may still be
    // in flight, so the connection cannot be reused either way.
    Disconnect();
    return got.status();
  }
  if (!*got) {
    Disconnect();
    return Status::IOError("server closed the connection");
  }
  auto response = ParseRequest(response_line);
  if (!response.ok()) return response.status();
  if (response->Get("ok") == "true") return response;
  // The connection survives a refusal; only the request was rejected.
  const std::string error(response->Get("error", "(no detail)"));
  if (error == "draining") {
    last_retry_after_ms_ = ParseInt64(response->Get("retry_after_ms"), 0);
    return Status::Unavailable("server refused: " + error);
  }
  if (error == "deadline_exceeded") {
    return Status::DeadlineExceeded("server refused: deadline_exceeded");
  }
  return Status::Internal("server error: " + error);
}

Result<Request> ResilientClient::Call(const std::string& request_line) {
  const std::string line = WithDeadline(request_line, options_.deadline_ms);
  Result<Request> result = Status::Internal("unreachable");
  for (int attempt = 1;; ++attempt) {
    stats_.attempts++;
    last_retry_after_ms_ = 0;
    result = RoundTripOnce(line);
    if (result.ok() || !IsTransient(result.status()) ||
        attempt >= options_.retry.max_attempts) {
      break;
    }
    // Back off before the retry; a server-provided retry_after_ms floors
    // the jittered delay (retrying sooner than the server asked is wasted
    // work on both sides).
    int64_t delay_ms = JitteredBackoffDelayMs(options_.retry, attempt);
    if (last_retry_after_ms_ > delay_ms) delay_ms = last_retry_after_ms_;
    stats_.retries++;
    if (delay_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return result;
}

Result<double> ResilientClient::ScorePair(const std::string& a, const std::string& b) {
  JsonWriter request;
  request.String("type", "score_pair").String("a", a).String("b", b);
  auto response = Call(request.Finish());
  if (!response.ok()) return response.status();
  const std::string margin_text(response->Get("margin"));
  char* end = nullptr;
  const double margin = std::strtod(margin_text.c_str(), &end);
  if (margin_text.empty() || end != margin_text.c_str() + margin_text.size()) {
    return Status::Internal("server response has no parsable margin");
  }
  return margin;
}

Status ResilientClient::Ping() {
  auto response = Call(R"({"type":"ping"})");
  return response.ok() ? Status::OK() : response.status();
}

}  // namespace serve
}  // namespace microbrowse
