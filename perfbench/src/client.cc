// perfbench_client — closed-loop load client for mbserved.
//
//   perfbench_client --port P --requests FILE --seconds T
//                    [--connections C] [--depth D] [--warmup-seconds W]
//                    [--warmup-requests N] [--server-pid PID] [--nonce-base N]
//                    [--sample-out FILE] [--sample-every K]
//
// One thread and one epoll loop drive C loopback connections with D
// requests in flight on each. Every response is answered by the next
// request on the same connection (closed loop: the offered load is what
// the server can take, so a late client never bursts to catch up).
// Request lines are taken from FILE in order, cycling. A line holding the
// placeholder @NONCE@ gets a nonce unique to this request there, spelled
// in punctuation the tokenizer drops (NonceText), so the server's caches
// never see the same request twice while the scoring work is exactly that
// of the creative text around it.
//
// Once W warm-up seconds have passed and at least N responses have come
// back, a T-second window opens. Requests sent inside it have their round
// trip recorded per endpoint. When it closes nothing
// new is sent and every outstanding request is drained, so each request
// sent ends as ok or failed and none is left unanswered by the client's
// own stop. With --server-pid the server's CPU time (utime + stime) is
// sampled at both window edges and its RSS at the closing edge.
//
// Reading coalesces: when the window opens, each connection with more than
// one request in flight sets SO_RCVLOWAT to half its pipeline's worth of
// the shortest response seen, so a read returns several responses and the
// refills go out in one send. That halves the client's syscalls per
// request; without it the one client thread saturates (>= 90% busy) on
// cache hits before the server does. The drain resets it to 1 byte.
//
// Prints one JSON object: attempted/ok/failed counts, failures by error
// string, per-endpoint latency quantiles of the window, window
// throughput, the client's own CPU share of the window and the server
// samples.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nonce.h"

namespace {

using perfbench::kNoncePlaceholder;
using perfbench::NonceText;
using Clock = std::chrono::steady_clock;

constexpr int kNumEndpoints = 3;  // score_pair, predict_ctr, other
constexpr const char* kEndpointNames[kNumEndpoints] = {"score_pair", "predict_ctr", "other"};
/// How long the client waits for outstanding responses after the window.
constexpr double kDrainSeconds = 10.0;

struct Options {
  int port = 0;
  std::string requests_path;
  int connections = 1;
  int depth = 1;
  double warmup_seconds = 0.0;
  int64_t warmup_requests = 0;
  double seconds = 1.0;
  int server_pid = 0;
  uint64_t nonce_base = 0;
  std::string sample_out;
  int64_t sample_every = 0;
};

/// One request template: the text before and after @NONCE@ (no nonce
/// when `has_nonce` is false) and its endpoint index.
struct RequestTemplate {
  std::string prefix;
  std::string suffix;
  bool has_nonce = false;
  int endpoint = 2;
};

struct Pending {
  Clock::time_point sent;
  int endpoint = 2;
  bool in_window = false;
  int64_t sample = -1;  ///< Index into samples, or -1.
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  std::string in;
  std::deque<Pending> pending;
  bool open = false;
  bool want_write = false;  ///< EPOLLOUT currently registered.
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_client --port P --requests FILE --seconds T\n"
               "       [--connections C] [--depth D] [--warmup-seconds W]\n"
               "       [--warmup-requests N] [--server-pid PID] [--nonce-base N]\n"
               "       [--sample-out FILE] [--sample-every K]\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[i + 1];
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    const bool numeric = end != value.c_str() && *end == '\0' && number >= 0;
    if (key == "--requests") {
      options->requests_path = value;
    } else if (key == "--sample-out") {
      options->sample_out = value;
    } else if (!numeric) {
      return false;
    } else if (key == "--port") {
      options->port = static_cast<int>(number);
    } else if (key == "--connections") {
      options->connections = static_cast<int>(number);
    } else if (key == "--depth") {
      options->depth = static_cast<int>(number);
    } else if (key == "--warmup-seconds") {
      options->warmup_seconds = number;
    } else if (key == "--warmup-requests") {
      options->warmup_requests = static_cast<int64_t>(number);
    } else if (key == "--seconds") {
      options->seconds = number;
    } else if (key == "--server-pid") {
      options->server_pid = static_cast<int>(number);
    } else if (key == "--nonce-base") {
      options->nonce_base = static_cast<uint64_t>(number);
    } else if (key == "--sample-every") {
      options->sample_every = static_cast<int64_t>(number);
    } else {
      return false;
    }
  }
  return options->port > 0 && !options->requests_path.empty() && options->connections >= 1 &&
         options->connections <= 4 && options->depth >= 1 && options->seconds > 0;
}

int EndpointOf(std::string_view line) {
  if (line.find("\"type\":\"score_pair\"") != std::string_view::npos) return 0;
  if (line.find("\"type\":\"predict_ctr\"") != std::string_view::npos) return 1;
  return 2;
}

bool LoadTemplates(const std::string& path, std::vector<RequestTemplate>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    RequestTemplate request;
    request.endpoint = EndpointOf(line);
    const size_t at = line.find(kNoncePlaceholder);
    if (at == std::string::npos) {
      request.prefix = line;
    } else {
      request.has_nonce = true;
      request.prefix = line.substr(0, at);
      request.suffix = line.substr(at + kNoncePlaceholder.size());
    }
    out->push_back(std::move(request));
  }
  return !out->empty();
}

/// Linear interpolation between closest ranks (numpy's default); `sorted`
/// must be ascending and non-empty.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

/// Server CPU seconds (utime + stime) from /proc/<pid>/stat; -1 on error.
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::vector<std::string> fields;
  size_t pos = close + 2;
  while (pos < text.size()) {
    const size_t space = text.find(' ', pos);
    fields.push_back(text.substr(pos, space - pos));
    if (space == std::string::npos) break;
    pos = space + 1;
  }
  // fields[0] is the state (stat field 3); utime and stime are fields 14, 15.
  if (fields.size() < 13) return -1.0;
  const double ticks = std::strtod(fields[11].c_str(), nullptr) +
                       std::strtod(fields[12].c_str(), nullptr);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Resident set of `pid` in MB from /proc/<pid>/status; -1 on error.
double ProcessRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return -1.0;
}

double ThisProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The "error" string of a failed response, or a fixed label when the
/// response carries none.
std::string ErrorOf(std::string_view response) {
  const std::string_view key = "\"error\":\"";
  const size_t at = response.find(key);
  if (at == std::string_view::npos) return "bad_response";
  std::string error;
  for (size_t i = at + key.size(); i < response.size() && response[i] != '"'; ++i) {
    if (response[i] == '\\' && i + 1 < response.size()) ++i;
    error.push_back(response[i]);
  }
  return error;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

class LoadClient {
 public:
  LoadClient(Options options, std::vector<RequestTemplate> requests)
      : options_(std::move(options)), requests_(std::move(requests)) {}

  int Run();

 private:
  bool Connect(Conn* conn);
  void SendNext(Conn* conn, Clock::time_point now);
  bool Flush(Conn* conn);
  void OnReadable(Conn* conn, Clock::time_point now);
  void OnResponse(Conn* conn, std::string_view line, Clock::time_point now);
  void FailConn(Conn* conn, const std::string& error);
  void Fail(const std::string& error) {
    ++failed_;
    ++errors_[error];
  }
  void PrintReport(double window_wall) const;
  void SetReadLowWater(int bytes) {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) setsockopt(conn.fd, SOL_SOCKET, SO_RCVLOWAT, &bytes, sizeof(bytes));
    }
  }

  Options options_;
  std::vector<RequestTemplate> requests_;
  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  size_t next_request_ = 0;
  uint64_t nonce_ = 0;

  bool window_open_ = false;
  bool stopping_ = false;
  int64_t attempted_ = 0;
  int64_t ok_ = 0;
  int64_t failed_ = 0;
  int64_t completed_ = 0;
  size_t shortest_response_ = SIZE_MAX;
  int64_t window_sent_ = 0;
  int64_t window_completed_ = 0;
  std::map<std::string, int64_t> errors_;
  std::vector<double> latency_ms_[kNumEndpoints];
  std::vector<double> all_latency_ms_;

  std::vector<std::string> sample_requests_;
  std::vector<std::string> sample_responses_;

  double server_cpu_start_ = -1.0;
  double server_cpu_end_ = -1.0;
  double server_rss_mb_ = -1.0;
  double client_cpu_start_ = 0.0;
  double client_cpu_end_ = 0.0;
};

bool LoadClient::Connect(Conn* conn) {
  conn->fd = socket(AF_INET, SOCK_STREAM, 0);
  if (conn->fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(conn->fd);
    conn->fd = -1;
    return false;
  }
  const int one = 1;
  setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(conn->fd, F_SETFL, fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.ptr = conn;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &event);
  conn->open = true;
  return true;
}

void LoadClient::SendNext(Conn* conn, Clock::time_point now) {
  const RequestTemplate& request = requests_[next_request_];
  next_request_ = (next_request_ + 1) % requests_.size();
  const size_t begin = conn->out.size();
  conn->out += request.prefix;
  if (request.has_nonce) {
    conn->out += NonceText(options_.nonce_base + nonce_++);
    conn->out += request.suffix;
  }
  Pending pending;
  pending.sent = now;
  pending.endpoint = request.endpoint;
  pending.in_window = window_open_;
  if (window_open_) {
    if (options_.sample_every > 0 && window_sent_ % options_.sample_every == 0) {
      pending.sample = static_cast<int64_t>(sample_requests_.size());
      sample_requests_.push_back(conn->out.substr(begin));
      sample_responses_.emplace_back();
    }
    ++window_sent_;
  }
  conn->out += '\n';
  conn->pending.push_back(pending);
  ++attempted_;
}

bool LoadClient::Flush(Conn* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n = send(conn->fd, conn->out.data() + conn->out_offset,
                           conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (conn->out_offset == conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
  }
  // Touch the interest set only when it changes: one syscall fewer per
  // batch on the common path, where every write completes at once.
  if (conn->want_write != !conn->out.empty()) {
    conn->want_write = !conn->out.empty();
    epoll_event event{};
    event.events = EPOLLIN | (conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    event.data.ptr = conn;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
  }
  return true;
}

void LoadClient::FailConn(Conn* conn, const std::string& error) {
  for (size_t i = 0; i < conn->pending.size(); ++i) Fail(error);
  conn->pending.clear();
  if (conn->fd >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    close(conn->fd);
  }
  conn->fd = -1;
  conn->open = false;
}

void LoadClient::OnResponse(Conn* conn, std::string_view line, Clock::time_point now) {
  if (conn->pending.empty()) {
    Fail("unsolicited_response");
    return;
  }
  const Pending pending = conn->pending.front();
  conn->pending.pop_front();
  ++completed_;
  shortest_response_ = std::min(shortest_response_, line.size() + 1);
  if (line.find("\"ok\":true") != std::string_view::npos) {
    ++ok_;
  } else {
    Fail(ErrorOf(line));
  }
  if (pending.in_window) {
    const double ms = std::chrono::duration<double, std::milli>(now - pending.sent).count();
    latency_ms_[pending.endpoint].push_back(ms);
    all_latency_ms_.push_back(ms);
  }
  if (pending.sample >= 0) sample_responses_[static_cast<size_t>(pending.sample)] = line;
  if (window_open_ && !stopping_) ++window_completed_;
  if (!stopping_) SendNext(conn, now);
}

void LoadClient::OnReadable(Conn* conn, Clock::time_point now) {
  // One read per readiness event: epoll is level-triggered, so anything
  // left in the socket wakes the loop again.
  char buffer[64 * 1024];
  const ssize_t n = recv(conn->fd, buffer, sizeof(buffer), 0);
  if (n > 0) {
    conn->in.append(buffer, static_cast<size_t>(n));
  } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
    FailConn(conn, "connection_closed");
    return;
  }
  size_t start = 0;
  while (true) {
    const size_t newline = conn->in.find('\n', start);
    if (newline == std::string::npos) break;
    OnResponse(conn, std::string_view(conn->in).substr(start, newline - start), now);
    start = newline + 1;
  }
  conn->in.erase(0, start);
  if (!Flush(conn)) FailConn(conn, "send_failed");
}

int LoadClient::Run() {
  epoll_fd_ = epoll_create1(0);
  conns_.resize(static_cast<size_t>(options_.connections));
  const Clock::time_point start = Clock::now();
  for (Conn& conn : conns_) {
    if (!Connect(&conn)) {
      ++attempted_;
      Fail("connect_failed");
      continue;
    }
    for (int i = 0; i < options_.depth; ++i) SendNext(&conn, Clock::now());
    if (!Flush(&conn)) FailConn(&conn, "send_failed");
  }
  const auto after = [](Clock::time_point t, double seconds) {
    return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  };
  const Clock::time_point warmup_end = after(start, options_.warmup_seconds);
  // Both set when the window opens.
  Clock::time_point window_end = Clock::time_point::max();
  Clock::time_point drain_end = Clock::time_point::max();
  // A server that never answers enough warm-up requests fails the run
  // instead of hanging it.
  const Clock::time_point give_up = after(warmup_end, 60.0);
  Clock::time_point window_opened = warmup_end;
  Clock::time_point window_closed = warmup_end;
  epoll_event events[16];
  while (true) {
    Clock::time_point now = Clock::now();
    if (!window_open_ && now >= warmup_end && completed_ >= options_.warmup_requests) {
      window_open_ = true;
      window_opened = now;
      if (options_.depth > 1 && shortest_response_ != SIZE_MAX) {
        SetReadLowWater(static_cast<int>(shortest_response_) * (options_.depth / 2));
      }
      window_end = after(now, options_.seconds);
      drain_end = after(window_end, kDrainSeconds);
      client_cpu_start_ = ThisProcessCpuSeconds();
      if (options_.server_pid > 0) server_cpu_start_ = ProcessCpuSeconds(options_.server_pid);
    }
    if (!stopping_ && now >= window_end) {
      stopping_ = true;
      SetReadLowWater(1);
      window_closed = now;
      client_cpu_end_ = ThisProcessCpuSeconds();
      if (options_.server_pid > 0) {
        server_cpu_end_ = ProcessCpuSeconds(options_.server_pid);
        server_rss_mb_ = ProcessRssMb(options_.server_pid);
      }
    }
    size_t outstanding = 0;
    for (const Conn& conn : conns_) outstanding += conn.pending.size();
    if (stopping_ && outstanding == 0) break;
    if (now >= drain_end || (!window_open_ && now >= give_up)) {
      for (Conn& conn : conns_) FailConn(&conn, "unanswered");
      break;
    }
    if (outstanding == 0) break;  // every connection failed
    const Clock::time_point next = window_open_ ? (stopping_ ? drain_end : window_end)
                                   : (now < warmup_end ? warmup_end : give_up);
    const auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(next - now).count();
    const int timeout = static_cast<int>(std::clamp<int64_t>(wait_ms, 0, 50));
    const int n = epoll_wait(epoll_fd_, events, 16, timeout);
    now = Clock::now();
    for (int i = 0; i < n; ++i) {
      Conn* conn = static_cast<Conn*>(events[i].data.ptr);
      if (!conn->open) continue;
      if (events[i].events & EPOLLOUT) {
        if (!Flush(conn)) {
          FailConn(conn, "send_failed");
          continue;
        }
      }
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) OnReadable(conn, now);
    }
  }
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  close(epoll_fd_);

  if (!options_.sample_out.empty()) {
    std::ofstream out(options_.sample_out);
    for (size_t i = 0; i < sample_requests_.size(); ++i) {
      out << sample_requests_[i] << '\t' << sample_responses_[i] << '\n';
    }
  }
  PrintReport(std::chrono::duration<double>(window_closed - window_opened).count());
  return 0;
}

void LoadClient::PrintReport(double window_wall) const {
  std::string json = "{";
  json += "\"attempted\":" + std::to_string(attempted_);
  json += ",\"ok\":" + std::to_string(ok_);
  json += ",\"failed\":" + std::to_string(failed_);
  json += ",\"errors\":{";
  bool first = true;
  for (const auto& [error, count] : errors_) {
    if (!first) json += ',';
    first = false;
    json += JsonString(error) + ":" + std::to_string(count);
  }
  json += "}";
  char buffer[256];
  const auto latency_json = [&](const std::vector<double>& values) {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.empty()) return std::string("{\"count\":0}");
    std::snprintf(buffer, sizeof(buffer),
                  "{\"count\":%zu,\"p50_ms\":%.17g,\"p90_ms\":%.17g,\"p99_ms\":%.17g}",
                  sorted.size(), Quantile(sorted, 0.5), Quantile(sorted, 0.9),
                  Quantile(sorted, 0.99));
    return std::string(buffer);
  };
  json += ",\"endpoints\":{";
  for (int e = 0; e < kNumEndpoints; ++e) {
    if (e > 0) json += ',';
    json += JsonString(kEndpointNames[e]) + ":" + latency_json(latency_ms_[e]);
  }
  json += "},\"all\":" + latency_json(all_latency_ms_);
  std::snprintf(buffer, sizeof(buffer),
                ",\"window_s\":%.17g,\"window_sent\":%lld,\"window_completed\":%lld,"
                "\"rps\":%.17g,\"client_busy_frac\":%.17g",
                window_wall, static_cast<long long>(window_sent_),
                static_cast<long long>(window_completed_),
                window_wall > 0 ? static_cast<double>(window_completed_) / window_wall : 0.0,
                window_wall > 0 ? (client_cpu_end_ - client_cpu_start_) / window_wall : 0.0);
  json += buffer;
  if (options_.server_pid > 0) {
    std::snprintf(buffer, sizeof(buffer), ",\"server_cpu_s\":%.17g,\"server_rss_mb\":%.17g",
                  server_cpu_end_ - server_cpu_start_, server_rss_mb_);
    json += buffer;
  }
  json += ",\"nonces_used\":" + std::to_string(nonce_);
  json += "}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) return Usage();
  std::vector<RequestTemplate> requests;
  if (!LoadTemplates(options.requests_path, &requests)) {
    std::fprintf(stderr, "perfbench_client: no requests in %s\n", options.requests_path.c_str());
    return 2;
  }
  return LoadClient(std::move(options), std::move(requests)).Run();
}
