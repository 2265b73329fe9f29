// Copyright 2026 The Microbrowse Authors
//
// Concurrency stress for the epoll reactor core, built to run under
// ThreadSanitizer (ctest -L concurrency): pipelining clients, an HTTP
// scraper, a slow consumer that triggers write-timeout eviction, and a
// mid-traffic drain all hammer the reactor at once. The assertions are
// deliberately loose — the payload here is the interleaving coverage, and
// TSan turning any data race into a hard failure.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "serve/server.h"

namespace microbrowse {
namespace serve {
namespace {

/// Connects with a tiny receive window (set before connect so the TCP
/// handshake advertises it) — the reproducible "peer stopped reading".
Socket ConnectTinyRcvBuf(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Socket();
  Socket socket(fd);
  const int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Socket();
  }
  return socket;
}

TEST(ReactorStressTest, ConcurrentPipelinesScrapesEvictionsAndDrain) {
  // No bundle staged: ping / healthz / HTTP scrapes exercise the whole
  // transport without the scoring model, which keeps the test fast enough
  // to run under TSan's ~10x slowdown.
  BundleRegistry registry;
  ScoringService service(&registry);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 4;
  options.idle_timeout_ms = 2000;      // Fast tick (tick = idle/4).
  options.write_timeout_ms = 200;      // Slow consumers die quickly.
  options.max_outbox_bytes = 16 * 1024;
  options.sndbuf_bytes = 4096;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  std::atomic<bool> running{true};
  std::atomic<int64_t> responses_seen{0};

  // Pipelining protocol clients: connect, burst, read everything back,
  // reconnect — connection churn and in-order intake race the tick, the
  // flush wakeups and each other.
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&, t] {
      while (running.load(std::memory_order_acquire)) {
        auto socket = TcpConnect("127.0.0.1", *port);
        if (!socket.ok()) break;  // Listener closed (drain started).
        LineReader reader(*socket);
        std::string burst;
        for (int i = 0; i < 20; ++i) {
          burst += R"({"type":"ping","id":"t)" + std::to_string(t) + "." +
                   std::to_string(i) + "\"}\n";
        }
        if (!SendAll(*socket, burst).ok()) continue;
        std::string line;
        for (int i = 0; i < 20; ++i) {
          auto got = reader.ReadLine(&line);
          if (!got.ok() || !*got) break;  // Refused/killed mid-drain is fine.
          responses_seen.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // An HTTP scraper racing the protocol traffic (shared metric registry,
  // reactor-side HTTP state machine, close-after-flush path).
  std::thread scraper([&] {
    while (running.load(std::memory_order_acquire)) {
      auto socket = TcpConnect("127.0.0.1", *port);
      if (!socket.ok()) break;
      if (!SendAll(*socket, "GET /metricsz HTTP/1.0\r\n\r\n").ok()) continue;
      char chunk[4096];
      while (::recv(socket->fd(), chunk, sizeof(chunk), 0) > 0) {
      }
    }
  });

  // Slow consumers: send pings, never read the responses, let the reactor
  // evict them on the write-timeout path while everything else runs.
  std::thread staller([&] {
    while (running.load(std::memory_order_acquire)) {
      Socket stalled = ConnectTinyRcvBuf(*port);
      if (!stalled.valid()) break;
      std::string burst;
      for (int i = 0; i < 400; ++i) {
        burst += R"({"type":"ping","id":"stall)" + std::to_string(i) + "\"}\n";
      }
      (void)SendAllTimed(stalled, burst, 500);
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(1200));

  // Drain mid-traffic: refusals, outbox flushing and the listener close all
  // race the client threads above.
  const Status drained = server.Drain();
  running.store(false, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  scraper.join();
  staller.join();

  EXPECT_TRUE(drained.ok() ||
              drained.code() == StatusCode::kDeadlineExceeded ||
              drained.code() == StatusCode::kFailedPrecondition)
      << drained.ToString();
  EXPECT_GT(responses_seen.load(), 0) << "no traffic was actually served";
  // The request-accounting invariant must survive the storm: nothing is
  // left marked in flight once the drain (or hard stop) completed.
  EXPECT_EQ(server.inflight_requests(), 0);
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace microbrowse
