// Copyright 2026 The Microbrowse Authors
//
// Serving-resilience tests: request deadlines, counted from the read,
// refusing work that waited behind earlier lines before it is scored, the
// graceful-drain state machine with its healthz/readyz surface, idle
// (slow-loris) eviction with fd reclaim, and the retrying client. Scoring
// latency is injected with the serve.score delay failpoint where a slow
// reactor is needed, so the suite runs under `ctest -L faultinject`.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/socket.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace microbrowse {
namespace serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// One raw client connection speaking the line protocol synchronously.
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
  void Close() {
    reader_.reset();
    socket_.reset();
  }

  Result<bool> TryReadLine(std::string* line) { return reader_->ReadLine(line); }

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

class ResilienceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string dir =
        ::testing::TempDir() + "/serve_resilience_test_" + std::to_string(::getpid());
    ASSERT_TRUE(CreateDirectories(dir).ok());
    AdCorpusOptions corpus_options;
    corpus_options.num_adgroups = 40;
    corpus_options.seed = 31;
    auto generated = GenerateAdCorpus(corpus_options);
    ASSERT_TRUE(generated.ok());
    const PairCorpus pairs = ExtractSignificantPairs(generated->corpus, {});
    const FeatureStatsDb db = BuildFeatureStats(pairs, {});
    const ClassifierConfig config = ClassifierConfig::M6();
    const CoupledDataset dataset = BuildClassifierDataset(pairs, db, config, 31);
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

  void SetUp() override {
    failpoint::DeactivateAll();
    ASSERT_TRUE(registry_.LoadInitial(*paths_).ok());
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  /// Arms the serve.score failpoint to inject `ms` of latency into every
  /// cache-missing scoring request.
  static void SlowScoringBy(int64_t ms) {
    failpoint::Spec spec;
    spec.mode = failpoint::Spec::Mode::kDelay;
    spec.delay_ms = ms;
    failpoint::Activate("serve.score", spec);
  }

  static std::string ScoreLine(const std::string& id, const std::string& salt,
                               int64_t deadline_ms = 0) {
    JsonWriter request;
    request.String("type", "score_pair")
        .String("id", id)
        .String("a", "cheap flights now|" + salt)
        .String("b", "late deals|" + salt);
    if (deadline_ms > 0) request.Int("deadline_ms", deadline_ms);
    return request.Finish();
  }

  static BundlePaths* paths_;
  BundleRegistry registry_;
};

BundlePaths* ResilienceTest::paths_ = nullptr;

// --- Request deadlines

TEST_F(ResilienceTest, ExpiredDeadlineIsRefusedBeforeScoring) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  SlowScoringBy(250);
  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  // "slow" scores for ~250 ms; "doomed" carries a 50 ms budget and dies
  // waiting behind it; "patient" has no deadline and must still score.
  ASSERT_TRUE(client->SendRaw(ScoreLine("slow", "s1") + "\n" +
                              ScoreLine("doomed", "s2", /*deadline_ms=*/50) + "\n" +
                              ScoreLine("patient", "s3") + "\n")
                  .ok());
  std::map<std::string, Request> by_id;
  for (int i = 0; i < 3; ++i) {
    const Request response = client->ReadResponse();
    by_id[std::string(response.Get("id"))] = response;
  }
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_EQ(by_id["slow"].Get("ok"), "true");
  EXPECT_EQ(by_id["patient"].Get("ok"), "true");
  EXPECT_EQ(by_id["doomed"].Get("ok"), "false");
  EXPECT_EQ(by_id["doomed"].Get("error"), "deadline_exceeded");
  EXPECT_TRUE(by_id["doomed"].Get("margin").empty()) << "refused request was scored";
  EXPECT_EQ(service.metrics().deadline_exceeded->Value(), 1);
  server.Stop();
}

TEST_F(ResilienceTest, DefaultDeadlineAppliesToRequestsWithoutOne) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.default_deadline_ms = 150;  // Every bare request gets this budget.
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  SlowScoringBy(400);
  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  // Both inherit the 150 ms default; the first starts scoring in time (the
  // deadline bounds the wait, not execution), the second expires behind
  // it. A generous per-request deadline overrides the tight default.
  ASSERT_TRUE(client->SendRaw(ScoreLine("first", "d1") + "\n" +
                              ScoreLine("behind", "d2") + "\n" +
                              ScoreLine("roomy", "d3", /*deadline_ms=*/10'000) + "\n")
                  .ok());
  std::map<std::string, Request> by_id;
  for (int i = 0; i < 3; ++i) {
    const Request response = client->ReadResponse();
    by_id[std::string(response.Get("id"))] = response;
  }
  EXPECT_EQ(by_id["first"].Get("ok"), "true");
  EXPECT_EQ(by_id["behind"].Get("error"), "deadline_exceeded");
  EXPECT_EQ(by_id["roomy"].Get("ok"), "true");
  server.Stop();
}

TEST_F(ResilienceTest, DeadlineCountsTheWaitBehindEarlierLinesOfTheSameRead) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  SlowScoringBy(200);
  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  // One send: both lines are read together, and the second's 50 ms budget
  // runs while the reactor scores the first for ~200 ms.
  ASSERT_TRUE(client->SendRaw(ScoreLine("slow", "r1") + "\n" +
                              ScoreLine("late", "r2", /*deadline_ms=*/50) + "\n")
                  .ok());
  const Request slow = client->ReadResponse();
  const Request late = client->ReadResponse();
  EXPECT_EQ(slow.Get("id"), "slow");
  EXPECT_EQ(slow.Get("ok"), "true");
  EXPECT_EQ(late.Get("id"), "late");
  EXPECT_EQ(late.Get("error"), "deadline_exceeded");
  EXPECT_TRUE(late.Get("margin").empty()) << "refused request was scored";
  EXPECT_EQ(service.metrics().deadline_exceeded->Value(), 1);
  server.Stop();
}

TEST_F(ResilienceTest, BudgetPastTheClockRangeIsScored) {
  // A generous budget must not overflow the monotonic clock into an
  // already-expired deadline: INT64_MAX ms means "no practical deadline".
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client
                  ->SendRaw(R"({"type":"score_pair","id":"huge",)"
                            R"("deadline_ms":"9223372036854775807",)"
                            R"("a":"cheap flights now|h1","b":"late deals|h1"})"
                            "\n")
                  .ok());
  const Request response = client->ReadResponse();
  EXPECT_EQ(response.Get("id"), "huge");
  EXPECT_EQ(response.Get("ok"), "true") << response.Get("error");
  EXPECT_FALSE(response.Get("margin").empty());
  EXPECT_EQ(service.metrics().deadline_exceeded->Value(), 0);
  server.Stop();
}

// --- Health surface

TEST_F(ResilienceTest, HealthzAndReadyzReportServingWithABundle) {
  ScoringService service(&registry_);
  auto healthz = ParseRequest(service.HandleLine(R"({"type":"healthz"})"));
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->Get("ok"), "true");
  EXPECT_EQ(healthz->Get("state"), "serving");
  EXPECT_EQ(healthz->Get("gen"), "1");

  auto readyz = ParseRequest(service.HandleLine(R"({"type":"readyz"})"));
  ASSERT_TRUE(readyz.ok());
  EXPECT_EQ(readyz->Get("ok"), "true");
  EXPECT_EQ(readyz->Get("state"), "serving");
}

TEST_F(ResilienceTest, ReadyzIsDegradedWithoutABundle) {
  BundleRegistry empty;  // Never loaded: generation 0.
  ScoringService service(&empty);
  auto healthz = ParseRequest(service.HandleLine(R"({"type":"healthz"})"));
  ASSERT_TRUE(healthz.ok());
  // healthz is liveness: the process is up even with nothing loaded.
  EXPECT_EQ(healthz->Get("ok"), "true");
  EXPECT_EQ(healthz->Get("state"), "degraded");

  auto readyz = ParseRequest(service.HandleLine(R"({"type":"readyz"})"));
  ASSERT_TRUE(readyz.ok());
  // readyz is readiness: no bundle means no traffic should arrive.
  EXPECT_EQ(readyz->Get("ok"), "false");
  EXPECT_EQ(readyz->Get("state"), "degraded");
}

TEST_F(ResilienceTest, HttpHealthEndpointsAnswer) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  for (const char* path : {"/healthz", "/readyz"}) {
    auto client = TestClient::ConnectTo(*port);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(
        client->SendRaw(std::string("GET ") + path + " HTTP/1.0\r\n\r\n").ok());
    std::string all;
    std::string line;
    for (;;) {
      auto got = client->TryReadLine(&line);
      if (!got.ok() || !*got) break;
      all += line + "\n";
    }
    EXPECT_NE(all.find("200 OK"), std::string::npos) << path << ": " << all;
    EXPECT_NE(all.find("\"state\":\"serving\""), std::string::npos) << all;
  }
  server.Stop();
}

// --- Graceful drain

TEST_F(ResilienceTest, DrainFinishesInflightAndRefusesNewWork) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.drain_deadline_ms = 10'000;
  options.drain_retry_after_ms = 321;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  SlowScoringBy(400);
  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(ScoreLine("inflight", "g1")).ok());
  // Let the reactor start scoring the request before draining starts.
  std::this_thread::sleep_for(milliseconds(100));

  std::thread drainer([&] {
    const Status status = server.Drain();
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  // Wait for the drain to take effect, then probe it from the still-open
  // connection: observability stays up, scoring is refused with the
  // configured retry hint.
  for (int i = 0; i < 100 && !server.draining(); ++i) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  ASSERT_TRUE(server.draining());
  ASSERT_TRUE(client->Send(ScoreLine("late", "g2")).ok());
  ASSERT_TRUE(client->Send(R"({"type":"readyz","id":"rz"})").ok());

  std::map<std::string, Request> by_id;
  for (int i = 0; i < 3; ++i) {
    const Request response = client->ReadResponse();
    by_id[std::string(response.Get("id"))] = response;
  }
  drainer.join();

  // The in-flight request finished and was delivered mid-drain.
  EXPECT_EQ(by_id["inflight"].Get("ok"), "true");
  EXPECT_EQ(by_id["late"].Get("ok"), "false");
  EXPECT_EQ(by_id["late"].Get("error"), "draining");
  EXPECT_EQ(by_id["late"].Get("retry_after_ms"), "321");
  EXPECT_EQ(by_id["rz"].Get("ok"), "false");
  EXPECT_EQ(by_id["rz"].Get("state"), "draining");
  EXPECT_EQ(by_id["rz"].Get("retry_after_ms"), "321");
  EXPECT_GE(service.metrics().drained->Value(), 1);
  // healthz keeps reporting draining after the stop (liveness, not reset).
  auto healthz = ParseRequest(service.HandleLine(R"({"type":"healthz"})"));
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->Get("state"), "draining");
}

TEST_F(ResilienceTest, DrainDeadlineAbandonsStuckWork) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.drain_deadline_ms = 100;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  SlowScoringBy(2000);  // Far beyond the drain deadline.
  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(ScoreLine("stuck", "a1")).ok());
  std::this_thread::sleep_for(milliseconds(100));

  const Status status = server.Drain();
  // The drain wait gave up at its 100 ms deadline and reported the stuck
  // request as abandoned. (The hard stop still joins the reactor thread —
  // cancellation is cooperative — so total elapsed time is bounded by the
  // stuck request, which is exactly what the report says.)
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  EXPECT_NE(status.message().find("abandoned"), std::string::npos) << status.ToString();
  EXPECT_EQ(server.Drain().code(), StatusCode::kFailedPrecondition);  // Once only.
}

// --- Idle eviction (slow loris)

TEST_F(ResilienceTest, SilentConnectionIsEvictedAndFdReclaimed) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.idle_timeout_ms = 200;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = TestClient::ConnectTo(*port);  // Connects, then goes silent.
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 500 && server.active_connections() == 0; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  ASSERT_EQ(server.active_connections(), 1u);

  // The reaper must evict the silent peer and reclaim its connection slot
  // (and fd) while the server keeps running — the idle analogue of the
  // disconnect-reap test in server_test.cc.
  for (int i = 0; i < 500 && server.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(service.metrics().idle_evicted->Value(), 1);
  std::string line;
  const auto got = client->TryReadLine(&line);
  EXPECT_TRUE(!got.ok() || !*got) << "evicted client still readable";

  // The server still serves fresh, non-idle connections.
  auto next = TestClient::ConnectTo(*port);
  ASSERT_NE(next, nullptr);
  ASSERT_TRUE(next->Send(R"({"type":"ping","id":"n"})").ok());
  EXPECT_EQ(next->ReadResponse().Get("id"), "n");
  server.Stop();
}

TEST_F(ResilienceTest, TricklingClientBelowIdleThresholdStaysConnected) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.idle_timeout_ms = 400;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = TestClient::ConnectTo(*port);
  ASSERT_NE(client, nullptr);
  // Dribble a ping one byte at a time for well over the idle timeout in
  // total, with every gap under it. Bytes are moving, so the trickler is
  // slow, not idle — it must not be evicted mid-request.
  const std::string request = "{\"type\":\"ping\",\"id\":\"t\"}\n";
  for (char byte : request) {
    ASSERT_TRUE(client->SendRaw(std::string(1, byte)).ok());
    std::this_thread::sleep_for(milliseconds(50));
  }
  const Request response = client->ReadResponse();
  EXPECT_EQ(response.Get("ok"), "true");
  EXPECT_EQ(response.Get("id"), "t");
  EXPECT_EQ(service.metrics().idle_evicted->Value(), 0);
  EXPECT_EQ(server.active_connections(), 1u);
  server.Stop();
}

// --- Resilient client

TEST_F(ResilienceTest, ClientReconnectsAcrossServerRestart) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  auto server = std::make_unique<Server>(&service, options);
  auto port = server->Start();
  ASSERT_TRUE(port.ok());

  ClientOptions client_options;
  client_options.port = *port;
  client_options.retry.max_attempts = 8;
  client_options.retry.initial_backoff_ms = 20;
  Rng rng(5);
  client_options.retry.rng = &rng;
  ResilientClient client(client_options);
  EXPECT_TRUE(client.Ping().ok());

  // Hard-stop and restart on the same port: the client's next call rides
  // its retry loop across the dead connection instead of surfacing an
  // error.
  server.reset();
  ScoringService service2(&registry_);
  ServerOptions restart = options;
  restart.port = *port;
  Server server2(&service2, restart);
  auto port2 = server2.Start();
  ASSERT_TRUE(port2.ok()) << port2.status().ToString();
  ASSERT_EQ(*port2, *port);

  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(client.stats().reconnects, 1);
  server2.Stop();
}

TEST_F(ResilienceTest, ClientSurfacesDrainingAsUnavailableWithoutRetryBudget) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.drain_deadline_ms = 10'000;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  SlowScoringBy(600);
  ClientOptions client_options;
  client_options.port = *port;
  client_options.retry.max_attempts = 1;  // No retries: observe the refusal.
  ResilientClient client(client_options);
  EXPECT_TRUE(client.Ping().ok());  // Connect before the listener closes.

  auto occupier = TestClient::ConnectTo(*port);
  ASSERT_NE(occupier, nullptr);
  ASSERT_TRUE(occupier->Send(ScoreLine("busy", "z1")).ok());
  std::this_thread::sleep_for(milliseconds(100));
  std::thread drainer([&] { (void)server.Drain(); });
  for (int i = 0; i < 100 && !server.draining(); ++i) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  auto refused = client.Call(ScoreLine("probe", "z2"));
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable)
      << refused.status().ToString();
  drainer.join();
}

TEST_F(ResilienceTest, ClientAttachesDeadlineAndSurfacesExpiry) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  ClientOptions client_options;
  client_options.port = *port;
  client_options.deadline_ms = 50;
  client_options.retry.max_attempts = 1;
  ResilientClient client(client_options);
  EXPECT_TRUE(client.Ping().ok());  // Connected before the reactor is occupied.

  SlowScoringBy(400);
  // Occupy the lone reactor, and queue a second slow request on the other
  // connection ahead of the client's: the reactor's next pass reads both
  // and scores the occupier's first, so the client's request waits past
  // its spliced-in 50 ms deadline.
  auto occupier = TestClient::ConnectTo(*port);
  ASSERT_NE(occupier, nullptr);
  ASSERT_TRUE(occupier->Send(ScoreLine("busy", "w1")).ok());
  std::this_thread::sleep_for(milliseconds(100));
  ASSERT_TRUE(occupier->Send(ScoreLine("busy2", "w3")).ok());
  std::this_thread::sleep_for(milliseconds(20));
  auto result = client.Call(ScoreLine("hopeful", "w2"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace microbrowse
