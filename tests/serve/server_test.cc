// Copyright 2026 The Microbrowse Authors
//
// End-to-end TCP tests for the mbserved front end: real sockets against an
// ephemeral port, pipelined out-of-order responses matched by id echo, and
// intake-side admission control shedding load with "overloaded".

#include "serve/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"
#include "serve/protocol.h"

namespace microbrowse {
namespace serve {
namespace {

/// One client connection speaking the line protocol synchronously.
class TestClient {
 public:
  static std::unique_ptr<TestClient> ConnectTo(uint16_t port) {
    auto socket = TcpConnect("127.0.0.1", port);
    EXPECT_TRUE(socket.ok()) << socket.status().ToString();
    if (!socket.ok()) return nullptr;
    auto client = std::make_unique<TestClient>();
    client->socket_ = std::make_unique<Socket>(std::move(*socket));
    client->reader_ = std::make_unique<LineReader>(*client->socket_);
    return client;
  }

  Status Send(const std::string& line) { return SendAll(*socket_, line + "\n"); }
  Status SendRaw(const std::string& bytes) { return SendAll(*socket_, bytes); }

  /// Closes the client side of the connection (as a one-shot client does).
  void Close() {
    reader_.reset();
    socket_.reset();
  }

  /// Reads one line without failing the test — for asserting that the
  /// server closed the connection (EOF / reset).
  Result<bool> TryReadLine(std::string* line) { return reader_->ReadLine(line); }

  /// Reads one response line; fails the test on EOF or parse error.
  Request ReadResponse() {
    std::string line;
    auto got = reader_->ReadLine(&line);
    EXPECT_TRUE(got.ok() && *got) << "connection closed early";
    auto response = ParseRequest(line);
    EXPECT_TRUE(response.ok()) << line;
    return response.ok() ? *response : Request{};
  }

 private:
  std::unique_ptr<Socket> socket_;
  std::unique_ptr<LineReader> reader_;
};

/// Connects with a tiny receive buffer negotiated at the handshake (set
/// before connect, so the advertised TCP window honours it). A client that
/// then stops reading fills every buffer between server and itself within a
/// few kilobytes — the reproducible form of "peer stopped reading".
Socket ConnectTinyRcvBuf(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  Socket socket(fd);
  const int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return socket;
}

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Unique per process: parallel ctest runs each TEST in its own process,
    // each re-running this setup — a shared path would tear the artifacts.
    const std::string dir =
        ::testing::TempDir() + "/serve_server_test_" + std::to_string(::getpid());
    ASSERT_TRUE(CreateDirectories(dir).ok());
    AdCorpusOptions corpus_options;
    corpus_options.num_adgroups = 60;
    corpus_options.seed = 23;
    auto generated = GenerateAdCorpus(corpus_options);
    ASSERT_TRUE(generated.ok());
    const PairCorpus pairs = ExtractSignificantPairs(generated->corpus, {});
    const FeatureStatsDb db = BuildFeatureStats(pairs, {});
    const ClassifierConfig config = ClassifierConfig::M6();
    const CoupledDataset dataset = BuildClassifierDataset(pairs, db, config, 23);
    auto model = TrainSnippetClassifier(dataset, config);
    ASSERT_TRUE(model.ok());
    paths_ = new BundlePaths;
    paths_->model_path = dir + "/model.txt";
    paths_->stats_path = dir + "/stats.tsv";
    ASSERT_TRUE(SaveClassifier(*model, dataset.t_registry, dataset.p_registry,
                               paths_->model_path)
                    .ok());
    ASSERT_TRUE(SaveFeatureStats(db, paths_->stats_path).ok());
  }

  static void TearDownTestSuite() { delete paths_; }

  void SetUp() override { ASSERT_TRUE(registry_.LoadInitial(*paths_).ok()); }

  /// Default options on an ephemeral port.
  static ServerOptions BaseOptions() {
    ServerOptions options;
    options.port = 0;
    return options;
  }

  static BundlePaths* paths_;
  BundleRegistry registry_;
};

BundlePaths* ServerTest::paths_ = nullptr;

TEST_F(ServerTest, StartsOnEphemeralPortAndAnswersPing) {
  ScoringService service(&registry_);
  ServerOptions options = BaseOptions();
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  ASSERT_GT(*port, 0);
  EXPECT_EQ(server.port(), *port);

  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(R"({"type":"ping","id":"p"})").ok());
  const Request response = client->ReadResponse();
  EXPECT_EQ(response.Get("ok"), "true");
  EXPECT_EQ(response.Get("id"), "p");
  server.Stop();
}

TEST_F(ServerTest, ScoresPairsOverTheWire) {
  ScoringService service(&registry_);
  ServerOptions options = BaseOptions();
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  JsonWriter request;
  request.String("type", "score_pair")
      .String("a", "cheap flights|book now|save big")
      .String("b", "flights|deals today|limited");
  ASSERT_TRUE(client->Send(request.Finish()).ok());
  const Request response = client->ReadResponse();
  EXPECT_EQ(response.Get("ok"), "true");
  EXPECT_FALSE(response.Get("margin").empty());
  EXPECT_TRUE(response.Get("winner") == "a" || response.Get("winner") == "b");
  server.Stop();
}

TEST_F(ServerTest, PipelinedRequestsMatchedByIdEcho) {
  ScoringService service(&registry_);
  ServerOptions options = BaseOptions();
  options.num_threads = 4;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  constexpr int kRequests = 12;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    JsonWriter request;
    request.String("type", "score_pair")
        .String("id", "r" + std::to_string(i))
        .String("a", "alpha line|beta " + std::to_string(i))
        .String("b", "gamma line|delta");
    burst += request.Finish() + "\n";
  }
  // One write, many requests: the batching workers may *complete* them out
  // of order, but the per-connection sequencer delivers responses in
  // request order; the id echo remains the client-visible contract.
  ASSERT_TRUE(client->SendRaw(burst).ok());
  std::map<std::string, std::string> margin_by_id;
  for (int i = 0; i < kRequests; ++i) {
    const Request response = client->ReadResponse();
    EXPECT_EQ(response.Get("ok"), "true");
    margin_by_id[std::string(response.Get("id"))] = std::string(response.Get("margin"));
  }
  ASSERT_EQ(margin_by_id.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(margin_by_id.count("r" + std::to_string(i))) << i;
  }
  server.Stop();
}

TEST_F(ServerTest, SchedulerMetricsRenderInPrometheusScrape) {
  // The scheduler's observability surface: after traffic has flowed through
  // the scoring pool, a /metricsz scrape must expose the batch-size summary
  // under its Prometheus names.
  ScoringService service(&registry_);
  Server server(&service, BaseOptions());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client->Send(R"({"type":"ping","id":"m)" + std::to_string(i) + "\"}").ok());
    EXPECT_EQ(client->ReadResponse().Get("ok"), "true");
  }
  ASSERT_TRUE(client->Send(R"({"type":"metricsz","id":"scrape"})").ok());
  const Request response = client->ReadResponse();
  EXPECT_EQ(response.Get("ok"), "true");
  const std::string text(response.Get("metrics"));
  EXPECT_NE(text.find("mb_serve_batch_size{quantile="), std::string::npos) << text;
  EXPECT_NE(text.find("mb_serve_batch_size_count"), std::string::npos) << text;
  server.Stop();
}

TEST_F(ServerTest, OverloadShedsWithErrorNotQueueing) {
  ServiceOptions service_options;
  service_options.allow_debug_sleep = true;
  ScoringService service(&registry_, service_options);
  ServerOptions options = BaseOptions();
  options.num_threads = 1;  // One worker, so a sleep stalls the pipeline...
  options.max_queue = 1;    // ...and the queue saturates immediately.
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(R"({"type":"debug_sleep","ms":400,"id":"sleep"})").ok());
  // Give the lone worker time to start the sleep before the burst.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  constexpr int kPings = 20;
  std::string burst;
  for (int i = 0; i < kPings; ++i) {
    burst += R"({"type":"ping","id":"q)" + std::to_string(i) + "\"}\n";
  }
  ASSERT_TRUE(client->SendRaw(burst).ok());

  int ok_count = 0;
  int overloaded = 0;
  for (int i = 0; i < kPings + 1; ++i) {
    const Request response = client->ReadResponse();
    if (response.Get("ok") == "true") {
      ++ok_count;
    } else {
      EXPECT_EQ(response.Get("error"), "overloaded");
      EXPECT_FALSE(response.Get("id").empty());  // Shed requests echo ids too.
      ++overloaded;
    }
  }
  // The sleep and the one queued ping succeed; the rest of the burst is
  // shed at constant latency instead of queueing behind the stalled worker.
  EXPECT_GE(ok_count, 2);
  EXPECT_GE(overloaded, 1);
  EXPECT_GE(service.metrics().rejected_overload->Value(), static_cast<int64_t>(overloaded));
  server.Stop();
}

TEST_F(ServerTest, DisconnectedClientsAreReapedWhileRunning) {
  ScoringService service(&registry_);
  ServerOptions options = BaseOptions();
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(R"({"type":"ping"})").ok());
  EXPECT_EQ(client->ReadResponse().Get("ok"), "true");
  EXPECT_EQ(server.active_connections(), 1u);

  // A one-shot client disconnecting must release its connection while the
  // server keeps running — not only at Stop() — or fds and reader threads
  // accumulate until the process hits the fd limit.
  client->Close();
  for (int i = 0; i < 500 && server.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.active_connections(), 0u);

  // The server still accepts and serves new connections afterwards.
  auto next = TestClient::ConnectTo(*port);
  ASSERT_NE(next, nullptr);
  ASSERT_TRUE(next->Send(R"({"type":"ping","id":"n"})").ok());
  EXPECT_EQ(next->ReadResponse().Get("id"), "n");
  server.Stop();
}

TEST_F(ServerTest, OverlongLineFailsTheConnection) {
  ScoringService service(&registry_);
  ServerOptions options = BaseOptions();
  options.max_line_bytes = 1024;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  // 8 KB with no newline: the server must fail the connection instead of
  // buffering the never-ending line. The send may itself fail with EPIPE
  // once the server shuts the socket down — both outcomes are fine.
  (void)client->SendRaw(std::string(8 * 1024, 'a'));
  std::string line;
  const auto got = client->TryReadLine(&line);
  EXPECT_TRUE(!got.ok() || !*got) << "server kept an unbounded line open";

  for (int i = 0; i < 500 && server.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.active_connections(), 0u);

  // The flood did not take the server down for other clients.
  auto next = TestClient::ConnectTo(*port);
  ASSERT_NE(next, nullptr);
  ASSERT_TRUE(next->Send(R"({"type":"ping"})").ok());
  EXPECT_EQ(next->ReadResponse().Get("ok"), "true");
  server.Stop();
}

TEST_F(ServerTest, StopReturnsPromptlyWithSilentConnectedClient) {
  ScoringService service(&registry_);
  ServerOptions options = BaseOptions();
  // Eviction is an hour away: Stop's promptness must come from waking the
  // reader (socket shutdown + the receive-timeout tick), not from waiting
  // out the idle timer. Regression test for Stop() hanging on a reader
  // parked in read(2) under a silent client.
  options.idle_timeout_ms = 3'600'000;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = TestClient::ConnectTo(*port);  // Connects, never sends a byte.
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 500 && server.active_connections() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.active_connections(), 1u);

  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
  // Generous bound (the tick is <= 1 s); the failure mode is an indefinite
  // hang, not a slow stop.
  EXPECT_LT(elapsed.count(), 5000) << "Stop() blocked on a silent client";
}

TEST_F(ServerTest, StopWhileClientsConnectedIsClean) {
  ScoringService service(&registry_);
  ServerOptions options = BaseOptions();
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(R"({"type":"ping"})").ok());
  EXPECT_EQ(client->ReadResponse().Get("ok"), "true");
  server.Stop();   // With the connection still open.
  server.Stop();   // Idempotent.
}

TEST_F(ServerTest, SlowConsumerIsEvictedNotPinned) {
  // Regression test: a client that sends requests and then stops *reading*
  // used to pin a worker (and the reader writing refusals) inside an
  // unbounded send forever. Both cores must instead evict the connection
  // within the write timeout and count mb.serve.write_timeout.
  ScoringService service(&registry_);
  ServerOptions options = BaseOptions();
  options.sndbuf_bytes = 4096;       // Tiny kernel buffer: stalls in KBs.
  options.write_timeout_ms = 300;
  options.max_outbox_bytes = 32 * 1024;
  options.idle_timeout_ms = 2000;    // Keeps the eviction tick fast.
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  Socket stalled = ConnectTinyRcvBuf(*port);
  ASSERT_TRUE(stalled.valid());
  // Enough pings that their responses (and the "overloaded" refusals past
  // the in-flight cap) overrun the ~12 KB of combined socket buffering
  // many times over. The client never reads a byte of them.
  std::string burst;
  for (int i = 0; i < 3000; ++i) {
    burst += R"({"type":"ping","id":"s)" + std::to_string(i) + "\"}\n";
  }
  // Bounded send: once the server evicts us mid-burst this fails with
  // EPIPE/reset, which is exactly the success condition.
  (void)SendAllTimed(stalled, burst, 5000);

  bool evicted = false;
  for (int i = 0; i < 1500; ++i) {
    if (service.metrics().write_timeout->Value() >= 1 &&
        server.active_connections() == 0) {
      evicted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(evicted) << "stalled consumer still connected; write_timeout="
                       << service.metrics().write_timeout->Value()
                       << " active=" << server.active_connections();

  // No worker is pinned: the server still answers a well-behaved client.
  auto next = TestClient::ConnectTo(*port);
  ASSERT_NE(next, nullptr);
  ASSERT_TRUE(next->Send(R"({"type":"ping","id":"after"})").ok());
  EXPECT_EQ(next->ReadResponse().Get("id"), "after");
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace microbrowse
