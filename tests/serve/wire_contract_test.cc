// Copyright 2026 The Microbrowse Authors
//
// The serving wire contract, checked against references that do not depend
// on the server's transport:
//
//   - every deterministic protocol response equals what
//     ScoringService::HandleLine answers for the same line on a separate
//     in-process service over the same bundle registry;
//   - the server's own refusals (overloaded, deadline_exceeded, draining
//     with retry_after_ms), drain-time health answers and the plain-HTTP
//     exchanges equal literal expected bytes.
//
// Pipelined responses must arrive in request order, overlong lines close
// the connection unanswered, and the /metricsz and statsz envelopes are
// checked structurally (their bodies embed latency percentiles). Only
// options every server version has are set, so the same file pins the
// bytes of any serving core.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/socket.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"
#include "serve/server.h"

namespace microbrowse {
namespace serve {
namespace {

class WireContractTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string dir =
        ::testing::TempDir() + "/serve_wire_contract_test_" + std::to_string(::getpid());
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

  static BundlePaths* paths_;
  BundleRegistry registry_;
};

BundlePaths* WireContractTest::paths_ = nullptr;

/// A started server on an ephemeral port, with its own service over the
/// shared bundle registry (so its metrics and caches are its own).
class ServerUnderTest {
 public:
  explicit ServerUnderTest(BundleRegistry* registry, ServerOptions options = {},
                           ServiceOptions service_options = {})
      : service_(registry, service_options) {
    options.port = 0;
    server_ = std::make_unique<Server>(&service_, options);
    auto port = server_->Start();
    EXPECT_TRUE(port.ok()) << port.status().ToString();
    port_ = port.value_or(0);
  }

  uint16_t port() const { return port_; }
  Server& server() { return *server_; }

 private:
  ScoringService service_;
  std::unique_ptr<Server> server_;
  uint16_t port_ = 0;
};

/// One synchronous protocol connection.
class Client {
 public:
  explicit Client(uint16_t port) {
    auto socket = TcpConnect("127.0.0.1", port);
    EXPECT_TRUE(socket.ok()) << socket.status().ToString();
    if (socket.ok()) {
      socket_ = std::make_unique<Socket>(std::move(*socket));
      reader_ = std::make_unique<LineReader>(*socket_);
    }
  }

  bool ok() const { return socket_ != nullptr; }
  Status SendLine(const std::string& line) { return SendAll(*socket_, line + "\n"); }
  Status SendRaw(const std::string& bytes) { return SendAll(*socket_, bytes); }

  /// The next raw response line; empty on EOF/error.
  std::string ReadLine() {
    std::string line;
    auto got = reader_->ReadLine(&line);
    if (!got.ok() || !*got) return "";
    return line;
  }

  /// Everything until EOF (the HTTP exchange shape).
  std::string ReadAll() {
    std::string all;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(socket_->fd(), chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      all.append(chunk, static_cast<size_t>(n));
    }
    return all;
  }

 private:
  std::unique_ptr<Socket> socket_;
  std::unique_ptr<LineReader> reader_;
};

/// Sends `request` on a fresh connection and returns the one-line response.
std::string OneShot(uint16_t port, const std::string& request) {
  Client client(port);
  if (!client.ok()) return "<connect failed>";
  if (!client.SendLine(request).ok()) return "<send failed>";
  return client.ReadLine();
}

std::string PingLine(int i) {
  return R"({"type":"ping","id":"q)" + std::to_string(i) + "\"}";
}

/// Starts a drain on `server` from another thread and returns once the
/// drain state is visible. The caller joins the thread.
std::thread StartDrain(Server& server) {
  std::thread drainer([&server] { (void)server.Drain(); });
  for (int i = 0; i < 200 && !server.draining(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return drainer;
}

TEST_F(WireContractTest, DeterministicResponsesMatchInProcessService) {
  ServerUnderTest served(&registry_);
  ScoringService reference(&registry_);
  const std::vector<std::string> requests = {
      R"({"type":"ping","id":"p1"})",
      R"({"type":"ping"})",
      R"({"type":"healthz","id":"h"})",
      R"({"type":"readyz","id":"r"})",
      R"({"type":"score_pair","id":"s1","a":"cheap flights|book now|save big","b":"flights|deals today|limited"})",
      R"({"type":"predict_ctr","id":"c1","snippet":"cheap flights|book now|save big"})",
      R"({"type":"examine","id":"e1","snippet":"cheap flights|book now"})",
      // Error vocabulary comes from the service too.
      R"({"type":"no_such_endpoint","id":"u"})",
      R"({"not json at all)",
      R"({"type":"score_pair","id":"m"})",  // Missing required fields.
  };
  for (const std::string& request : requests) {
    EXPECT_EQ(OneShot(served.port(), request), reference.HandleLine(request))
        << "request: " << request;
  }
  // A spent budget is refused by the server before the service sees it.
  EXPECT_EQ(OneShot(served.port(),
                    R"({"type":"score_pair","id":"d0","deadline_ms":"0","a":"x|y","b":"z|w"})"),
            R"({"id":"d0","ok":false,"error":"deadline_exceeded"})");
}

TEST_F(WireContractTest, PipelinedBurstKeepsOrderWithOneWorker) {
  ServerOptions options;
  options.num_threads = 1;
  ServerUnderTest served(&registry_, options);
  ScoringService reference(&registry_);
  for (bool blank_lines : {false, true}) {
    // Interleaved blank lines (and CRLF line endings) are skipped by the
    // framer without producing responses.
    std::string wire;
    for (int i = 0; i < 8; ++i) {
      wire += blank_lines ? "\r\n\n" + PingLine(i) + "\r\n" : PingLine(i) + "\n";
    }
    Client client(served.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.SendRaw(wire).ok());
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(client.ReadLine(), reference.HandleLine(PingLine(i)))
          << "position " << i << " blank_lines=" << blank_lines;
    }
  }
}

TEST_F(WireContractTest, OverloadRefusalMatchesExpectedBytes) {
  ServiceOptions service_options;
  service_options.allow_debug_sleep = true;
  ServerOptions options;
  options.num_threads = 1;  // One worker occupied by the sleep...
  options.max_queue = 1;    // ...and room for exactly one queued request.
  ServerUnderTest served(&registry_, options, service_options);

  Client client(served.port());
  ASSERT_TRUE(client.ok());
  const std::string sleep = R"({"type":"debug_sleep","ms":600,"id":"z"})";
  ASSERT_TRUE(client.SendLine(sleep).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // q0 takes the queue slot; q1 must be shed. Same connection, so the
  // intake order is deterministic. The refusal is produced inline by the
  // intake path but *delivered* in request order — the sequencer holds it
  // until the sleeper's response and q0's pong have flushed.
  ASSERT_TRUE(client.SendLine(PingLine(0)).ok());
  ASSERT_TRUE(client.SendLine(PingLine(1)).ok());
  const std::string z = client.ReadLine();
  const std::string q0 = client.ReadLine();
  const std::string q1 = client.ReadLine();
  ScoringService reference(&registry_, service_options);
  EXPECT_EQ(z, reference.HandleLine(sleep));
  EXPECT_EQ(q0, reference.HandleLine(PingLine(0)));
  EXPECT_EQ(q1, R"({"id":"q1","ok":false,"error":"overloaded"})");
}

TEST_F(WireContractTest, PipelinedBurstKeepsOrderWithManyWorkers) {
  // Many workers finish pipelined requests out of order — the first
  // request sleeps while the pings behind it complete instantly — but the
  // per-connection sequencer must still deliver responses in request
  // order.
  ServiceOptions service_options;
  service_options.allow_debug_sleep = true;
  ServerOptions options;
  options.num_threads = 4;
  ServerUnderTest served(&registry_, options, service_options);
  std::vector<std::string> requests = {R"({"type":"debug_sleep","ms":300,"id":"q0"})"};
  for (int i = 1; i < 8; ++i) requests.push_back(PingLine(i));
  std::string burst;
  for (const std::string& request : requests) burst += request + "\n";
  Client client(served.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendRaw(burst).ok());
  std::vector<std::string> lines;
  for (size_t i = 0; i < requests.size(); ++i) lines.push_back(client.ReadLine());
  ScoringService reference(&registry_, service_options);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(lines[i], reference.HandleLine(requests[i])) << "position " << i;
  }
}

TEST_F(WireContractTest, DrainTimeHealthMatchesExpectedBytes) {
  ServiceOptions service_options;
  service_options.allow_debug_sleep = true;
  ServerOptions options;
  options.num_threads = 1;
  options.drain_deadline_ms = 5000;
  ServerUnderTest served(&registry_, options, service_options);

  // Connections established before the drain begins: the listener closes
  // at drain time, but established connections keep being answered.
  Client busy(served.port());
  Client probe(served.port());
  ASSERT_TRUE(busy.ok() && probe.ok());
  ASSERT_TRUE(busy.SendLine(R"({"type":"debug_sleep","ms":700,"id":"hold"})").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread drainer = StartDrain(served.server());
  // ping is served during a drain (like healthz and readyz), so it is
  // still the service's answer...
  EXPECT_TRUE(probe.SendLine(PingLine(9)).ok());
  const std::string pong = probe.ReadLine();
  // ...while the health endpoints report the drain.
  EXPECT_TRUE(probe.SendLine(R"({"type":"healthz","id":"hz"})").ok());
  const std::string healthz = probe.ReadLine();
  EXPECT_TRUE(probe.SendLine(R"({"type":"readyz","id":"rz"})").ok());
  const std::string readyz = probe.ReadLine();
  drainer.join();

  ScoringService reference(&registry_);
  EXPECT_EQ(pong, reference.HandleLine(PingLine(9)));
  EXPECT_EQ(healthz, R"({"id":"hz","state":"draining","gen":1,"ok":true})");
  EXPECT_EQ(readyz,
            R"({"id":"rz","state":"draining","gen":1,"retry_after_ms":500,"ok":false,"error":"draining"})");
}

TEST_F(WireContractTest, ScoringRefusalDuringDrainMatchesExpectedBytes) {
  ServiceOptions service_options;
  service_options.allow_debug_sleep = true;
  ServerOptions options;
  options.num_threads = 1;
  options.drain_deadline_ms = 5000;
  options.drain_retry_after_ms = 250;
  ServerUnderTest served(&registry_, options, service_options);

  Client busy(served.port());
  Client probe(served.port());
  ASSERT_TRUE(busy.ok() && probe.ok());
  ASSERT_TRUE(busy.SendLine(R"({"type":"debug_sleep","ms":700,"id":"hold"})").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread drainer = StartDrain(served.server());
  EXPECT_TRUE(probe.SendLine(R"({"type":"score_pair","id":"sd","a":"x|y","b":"z|w"})").ok());
  const std::string refusal = probe.ReadLine();
  drainer.join();
  EXPECT_EQ(refusal, R"({"id":"sd","ok":false,"error":"draining","retry_after_ms":250})");
}

TEST_F(WireContractTest, HttpExchangesMatchExpectedBytes) {
  ServerUnderTest served(&registry_);
  const std::string json_head =
      "Content-Type: application/json\r\nContent-Length: 38\r\nConnection: close\r\n\r\n";
  const std::string serving_body = R"({"state":"serving","gen":1,"ok":true})" "\n";
  const std::string not_found =
      "HTTP/1.0 404 Not Found\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: 46\r\nConnection: close\r\n\r\n"
      "not found; try /metricsz, /healthz or /readyz\n";
  const std::vector<std::pair<std::string, std::string>> exchanges = {
      {"GET /healthz HTTP/1.0\r\n\r\n", "HTTP/1.0 200 OK\r\n" + json_head + serving_body},
      {"GET /readyz HTTP/1.1\r\nHost: x\r\nUser-Agent: contract\r\n\r\n",
       "HTTP/1.0 200 OK\r\n" + json_head + serving_body},
      {"GET /nope HTTP/1.0\r\n\r\n", not_found},
      // Trailing slash normalisation.
      {"GET /healthz/ HTTP/1.0\r\n\r\n", "HTTP/1.0 200 OK\r\n" + json_head + serving_body},
  };
  for (const auto& [get, expected] : exchanges) {
    Client client(served.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.SendRaw(get).ok());
    // Full raw exchange: status line, headers, body, then close.
    EXPECT_EQ(client.ReadAll(), expected) << "request: " << get;
  }
}

TEST_F(WireContractTest, MetricsScrapeEnvelope) {
  // /metricsz and statsz payloads embed latency percentiles, so only the
  // envelope is fixed.
  ServerUnderTest served(&registry_);
  Client client(served.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendRaw("GET /metricsz HTTP/1.0\r\n\r\n").ok());
  const std::string scrape = client.ReadAll();
  EXPECT_EQ(scrape.substr(0, scrape.find("\r\n")), "HTTP/1.0 200 OK");
  EXPECT_NE(scrape.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(scrape.find("mb_serve"), std::string::npos) << "metrics body missing serve counters";

  const std::string statsz = OneShot(served.port(), R"({"type":"statsz","id":"st"})");
  EXPECT_NE(statsz.find("\"ok\":true"), std::string::npos) << statsz;
  EXPECT_NE(statsz.find("\"id\":\"st\""), std::string::npos) << statsz;
}

/// A snippet line of `tokens` distinct one-word tokens.
std::string LineOfTokens(size_t tokens) {
  std::string line;
  for (size_t i = 0; i < tokens; ++i) line += (i == 0 ? "w" : " w") + std::to_string(i);
  return line;
}

TEST_F(WireContractTest, SnippetLineOverTheTokenCapIsRefused) {
  ServerUnderTest served(&registry_);
  ScoringService reference(&registry_);
  const std::string at_cap = LineOfTokens(kMaxLineTokens);
  const std::string over_cap = LineOfTokens(kMaxLineTokens + 1);
  // At the cap every endpoint scores as usual.
  for (const std::string& request :
       {R"({"type":"score_pair","id":"a","a":"cheap flights|)" + at_cap + R"(","b":"flights"})",
        R"({"type":"predict_ctr","id":"c","snippet":")" + at_cap + R"("})"}) {
    const std::string response = OneShot(served.port(), request);
    EXPECT_EQ(response, reference.HandleLine(request));
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  }
  // One token more is a typed refusal naming the line, on either side of a
  // pair, and on every endpoint that parses a snippet.
  const std::string refusal = "snippet line 2 holds 1025 tokens, over the cap of 1024";
  const std::vector<std::pair<std::string, std::string>> refused = {
      {R"({"type":"score_pair","id":"a","a":"cheap flights|)" + over_cap + R"(","b":"flights"})",
       "a"},
      {R"({"type":"score_pair","id":"b","a":"flights","b":"x|)" + over_cap + R"(|y"})", "b"},
      {R"({"type":"predict_ctr","id":"c","snippet":"x|)" + over_cap + R"("})", "c"},
      {R"({"type":"examine","id":"e","snippet":"x|)" + over_cap + R"("})", "e"},
  };
  for (const auto& [request, id] : refused) {
    const std::string response = OneShot(served.port(), request);
    EXPECT_EQ(response, R"({"id":")" + id + R"(","ok":false,"error":")" + refusal + R"("})");
    EXPECT_EQ(response, reference.HandleLine(request));
  }
}

TEST_F(WireContractTest, OverlongLineClosesTheConnection) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  ServerUnderTest served(&registry_, options);
  Client client(served.port());
  ASSERT_TRUE(client.ok());
  (void)client.SendRaw(std::string(8 * 1024, 'a'));
  // No response, just a close: the oversized line is never served.
  EXPECT_EQ(client.ReadLine(), "");
}

}  // namespace
}  // namespace serve
}  // namespace microbrowse
