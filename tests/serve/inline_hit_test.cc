// Copyright 2026 The Microbrowse Authors
//
// Cache hits answered on the reactor thread: a hit pipelined behind a slow
// miss still arrives in request order and byte-equal to the in-process
// service; a hit is admitted by the same deadline and per-connection
// in-flight rules as a miss; and every request counts exactly once in the
// cache and endpoint counters, whichever thread answered it. The reactor
// and the scoring workers write the same connections here, so the suite
// carries the `concurrency` label (the tsan preset). The serve.score delay
// failpoint slows the misses.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
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
#include "serve/protocol.h"
#include "serve/server.h"

namespace microbrowse {
namespace serve {
namespace {

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
  Status SendRaw(const std::string& bytes) { return SendAll(*socket_, bytes); }

  /// The next raw response line; empty on EOF/error.
  std::string ReadLine() {
    std::string line;
    auto got = reader_->ReadLine(&line);
    if (!got.ok() || !*got) return "";
    return line;
  }

  /// Sends one line and returns its response.
  std::string Call(const std::string& line) {
    EXPECT_TRUE(SendRaw(line + "\n").ok());
    return ReadLine();
  }

 private:
  std::unique_ptr<Socket> socket_;
  std::unique_ptr<LineReader> reader_;
};

std::string PairLine(const std::string& id, const std::string& salt,
                     const std::string& extra = "") {
  return R"({"type":"score_pair","id":")" + id + R"(",)" + extra +
         R"("a":"cheap flights now|)" + salt + R"(","b":"late deals|)" + salt + R"("})";
}

std::string PointLine(const std::string& id, const std::string& salt) {
  return R"({"type":"predict_ctr","id":")" + id + R"(","snippet":"book today|)" + salt +
         R"("})";
}

/// Field `key` of a flat response line ("" when absent or unparsable).
std::string Field(const std::string& line, const std::string& key) {
  auto parsed = ParseRequest(line);
  return parsed.ok() ? std::string(parsed->Get(key)) : "";
}

/// Polls `done` for up to five seconds.
template <typename Predicate>
bool WaitFor(Predicate done) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < until) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

class InlineHitTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string dir =
        ::testing::TempDir() + "/serve_inline_hit_test_" + std::to_string(::getpid());
    ASSERT_TRUE(CreateDirectories(dir).ok());
    AdCorpusOptions corpus_options;
    corpus_options.num_adgroups = 40;
    corpus_options.seed = 37;
    auto generated = GenerateAdCorpus(corpus_options);
    ASSERT_TRUE(generated.ok());
    const PairCorpus pairs = ExtractSignificantPairs(generated->corpus, {});
    const FeatureStatsDb db = BuildFeatureStats(pairs, {});
    const ClassifierConfig config = ClassifierConfig::M6();
    const CoupledDataset dataset = BuildClassifierDataset(pairs, db, config, 37);
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

  /// Every cache-missing scoring request sleeps `ms` on its worker.
  static void SlowScoringBy(int64_t ms) {
    failpoint::Spec spec;
    spec.mode = failpoint::Spec::Mode::kDelay;
    spec.delay_ms = ms;
    failpoint::Activate("serve.score", spec);
  }

  static BundlePaths* paths_;
  BundleRegistry registry_;
};

BundlePaths* InlineHitTest::paths_ = nullptr;

TEST_F(InlineHitTest, HitBehindSlowMissArrivesSecondAndByteEqual) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;  // The slow miss occupies the only worker.
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  Client client(*port);
  ASSERT_TRUE(client.ok());

  // The reference: a separate in-process service over the same bundle,
  // asked twice so its answer is the cache hit too.
  ScoringService reference(&registry_);
  const std::string hit_line = PairLine("hit", "warm");
  const std::string expected_miss = reference.HandleLine(hit_line);
  const std::string expected = reference.HandleLine(hit_line);
  ASSERT_EQ(Field(expected, "cache"), "hit");
  ASSERT_EQ(client.Call(hit_line), expected_miss);
  ASSERT_TRUE(WaitFor([&] { return server.inflight_requests() == 0; }));
  const CacheStats warm = service.pair_cache_stats();
  ASSERT_EQ(warm.hits, 0);
  ASSERT_EQ(warm.misses, 1);

  SlowScoringBy(300);
  ASSERT_TRUE(client.SendRaw(PairLine("miss", "cold") + "\n" + hit_line + "\n").ok());
  // The hit is answered (counted) while the only worker still sleeps on the
  // miss: only the reactor thread can have answered it.
  ASSERT_TRUE(WaitFor([&] { return service.pair_cache_stats().hits == 1; }));
  EXPECT_EQ(server.inflight_requests(), 1);
  const std::string first = client.ReadLine();
  const std::string second = client.ReadLine();
  EXPECT_EQ(Field(first, "id"), "miss");
  EXPECT_EQ(Field(first, "cache"), "miss");
  EXPECT_EQ(second, expected);
  server.Stop();
}

TEST_F(InlineHitTest, InterleavedHitsAndMissesStayInOrderOnEveryConnection) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 2;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  {
    Client warm(*port);
    ASSERT_TRUE(warm.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(Field(warm.Call(PairLine("w", "hot" + std::to_string(i))), "ok"), "true");
    }
  }

  // Each connection pipelines hits (answered by the reactor) between
  // misses (answered by the workers); responses must come back in request
  // order with the hits' "cache":"hit".
  constexpr int kConnections = 3;
  constexpr int kRequests = 24;
  std::vector<std::thread> clients;
  std::vector<int> in_order(kConnections, 0);
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      Client client(*port);
      if (!client.ok()) return;
      std::string burst;
      for (int i = 0; i < kRequests; ++i) {
        const std::string id = std::to_string(i);
        burst += (i % 3 == 0 ? PairLine(id, "cold" + std::to_string(c) + "-" + id)
                             : PairLine(id, "hot" + std::to_string(i % 4))) +
                 "\n";
      }
      if (!client.SendRaw(burst).ok()) return;
      for (int i = 0; i < kRequests; ++i) {
        const std::string response = client.ReadLine();
        const bool hit = i % 3 != 0;
        if (Field(response, "id") == std::to_string(i) && Field(response, "ok") == "true" &&
            Field(response, "cache") == (hit ? "hit" : "miss")) {
          ++in_order[c];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kConnections; ++c) EXPECT_EQ(in_order[c], kRequests) << c;
  server.Stop();
}

TEST_F(InlineHitTest, ExpiredHitIsRefusedDeadlineExceeded) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  Client client(*port);
  ASSERT_TRUE(client.ok());

  ASSERT_EQ(Field(client.Call(PairLine("warm", "d")), "ok"), "true");
  for (const std::string budget : {"0", "-5"}) {
    const std::string response =
        client.Call(PairLine("late", "d", R"("deadline_ms":)" + budget + ","));
    EXPECT_EQ(response, R"({"id":"late","ok":false,"error":"deadline_exceeded"})");
  }
  EXPECT_EQ(service.metrics().deadline_exceeded->Value(), 2);
  // Refused requests are not cache lookups: the warm-up's miss is all.
  EXPECT_EQ(service.pair_cache_stats().hits, 0);
  EXPECT_EQ(service.pair_cache_stats().misses, 1);
  EXPECT_EQ(service.metrics().endpoint(Endpoint::kScorePair).requests(), 1);
  // A budget that is still running is answered from the cache.
  const std::string roomy = client.Call(PairLine("roomy", "d", R"("deadline_ms":10000,)"));
  EXPECT_EQ(Field(roomy, "ok"), "true");
  EXPECT_EQ(Field(roomy, "cache"), "hit");
  server.Stop();
}

TEST_F(InlineHitTest, HitOverTheInflightCapIsRefusedOverloaded) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.max_inflight_per_connection = 1;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  Client client(*port);
  ASSERT_TRUE(client.ok());

  const std::string hit_line = PairLine("hit", "cap");
  ASSERT_EQ(Field(client.Call(hit_line), "ok"), "true");
  // A worker releases its in-flight slot just after delivering.
  ASSERT_TRUE(WaitFor([&] { return server.inflight_requests() == 0; }));
  SlowScoringBy(300);
  // The miss fills the connection's one in-flight slot; the hit behind it
  // is refused although the cache could answer it.
  ASSERT_TRUE(client.SendRaw(PairLine("miss", "cap-cold") + "\n" + hit_line + "\n").ok());
  const std::string first = client.ReadLine();
  const std::string second = client.ReadLine();
  EXPECT_EQ(Field(first, "id"), "miss");
  EXPECT_EQ(Field(first, "ok"), "true");
  EXPECT_EQ(second, R"({"id":"hit","ok":false,"error":"overloaded"})");
  EXPECT_EQ(service.metrics().rejected_overload->Value(), 1);
  EXPECT_EQ(service.pair_cache_stats().hits, 0);
  server.Stop();
}

TEST_F(InlineHitTest, EveryRequestCountsOnceAsHitOrMiss) {
  ScoringService service(&registry_);
  ServerOptions options;
  options.port = 0;
  options.num_threads = 2;
  Server server(&service, options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  Client client(*port);
  ASSERT_TRUE(client.ok());

  // M distinct requests per endpoint miss; they are answered before N
  // repeats of them are sent, so every repeat is a hit.
  constexpr int kMisses = 6;
  constexpr int kHits = 15;
  std::string misses;
  for (int i = 0; i < kMisses; ++i) {
    misses += PairLine("m" + std::to_string(i), "n" + std::to_string(i)) + "\n" +
              PointLine("m" + std::to_string(i), "n" + std::to_string(i)) + "\n";
  }
  ASSERT_TRUE(client.SendRaw(misses).ok());
  for (int i = 0; i < 2 * kMisses; ++i) {
    EXPECT_EQ(Field(client.ReadLine(), "cache"), "miss");
  }
  std::string hits;
  for (int i = 0; i < kHits; ++i) {
    const std::string salt = "n" + std::to_string(i % kMisses);
    hits += PairLine("h" + std::to_string(i), salt) + "\n" +
            PointLine("h" + std::to_string(i), salt) + "\n";
  }
  ASSERT_TRUE(client.SendRaw(hits).ok());
  for (int i = 0; i < 2 * kHits; ++i) {
    EXPECT_EQ(Field(client.ReadLine(), "cache"), "hit");
  }

  for (const Endpoint endpoint : {Endpoint::kScorePair, Endpoint::kPredictCtr}) {
    const EndpointMetrics& metrics = service.metrics().endpoint(endpoint);
    EXPECT_EQ(metrics.requests(), kMisses + kHits);
    EXPECT_EQ(metrics.errors(), 0);
    EXPECT_EQ(metrics.cache_hits(), kHits);
    EXPECT_EQ(metrics.cache_misses(), kMisses);
  }
  // statsz renders the caches' own counters.
  const std::string statsz = client.Call(R"({"type":"statsz"})");
  const std::string counts = "\"size\":" + std::to_string(kMisses) +
                             ",\"hits\":" + std::to_string(kHits) +
                             ",\"misses\":" + std::to_string(kMisses) + ",";
  EXPECT_NE(statsz.find("\"pair_cache\":{" + counts), std::string::npos) << statsz;
  EXPECT_NE(statsz.find("\"point_cache\":{" + counts), std::string::npos) << statsz;
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace microbrowse
