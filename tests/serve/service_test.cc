// Copyright 2026 The Microbrowse Authors
//
// ScoringService tests: endpoint behaviour, serve-vs-batch parity against
// the library scorer, result caching, and the hot-reload guarantees —
// generation swaps never tear or fail in-flight requests, and a corrupt
// replacement bundle (flipped bytes or an injected load fault) leaves the
// previous generation serving.

#include "serve/service.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"
#include "serve/bundle.h"
#include "serve/protocol.h"

namespace microbrowse {
namespace serve {
namespace {

std::string SnippetField(const Snippet& snippet) {
  std::string field;
  for (int i = 0; i < snippet.num_lines(); ++i) {
    if (i > 0) field += '|';
    field += Join(snippet.line(i), " ");
  }
  return field;
}

std::string ScorePairLine(const std::string& a, const std::string& b) {
  JsonWriter request;
  request.String("type", "score_pair").String("a", a).String("b", b);
  return request.Finish();
}

double FieldAsDouble(const Request& response, const std::string& key) {
  return std::stod(std::string(response.Get(key, "nan")));
}

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Trains one small M6 bundle and stages its artifacts under TempDir; all
/// tests in the suite share it (bundles are immutable, tests only read).
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    failpoint::DeactivateAll();
    // Unique per process: parallel ctest runs each TEST in its own process,
    // each re-running this setup — a shared path would tear the artifacts.
    dir_ = new std::string(::testing::TempDir() + "/serve_service_test_" +
                           std::to_string(::getpid()));
    ASSERT_TRUE(CreateDirectories(*dir_).ok());

    AdCorpusOptions corpus_options;
    corpus_options.num_adgroups = 80;
    corpus_options.seed = 11;
    auto generated = GenerateAdCorpus(corpus_options);
    ASSERT_TRUE(generated.ok());
    const PairCorpus pairs = ExtractSignificantPairs(generated->corpus, {});
    const FeatureStatsDb db = BuildFeatureStats(pairs, {});
    const ClassifierConfig config = ClassifierConfig::M6();
    const CoupledDataset dataset = BuildClassifierDataset(pairs, db, config, 11);
    auto model = TrainSnippetClassifier(dataset, config);
    ASSERT_TRUE(model.ok());

    paths_ = new BundlePaths;
    paths_->model_path = *dir_ + "/model.txt";
    paths_->stats_path = *dir_ + "/stats.tsv";
    ASSERT_TRUE(SaveClassifier(*model, dataset.t_registry, dataset.p_registry,
                               paths_->model_path)
                    .ok());
    ASSERT_TRUE(SaveFeatureStats(db, paths_->stats_path).ok());

    fields_ = new std::vector<std::string>;
    for (const auto& adgroup : generated->corpus.adgroups) {
      for (const auto& creative : adgroup.creatives) {
        fields_->push_back(SnippetField(creative.snippet));
      }
    }
    ASSERT_GE(fields_->size(), 8u);
  }

  static void TearDownTestSuite() {
    delete fields_;
    delete paths_;
    delete dir_;
  }

  void SetUp() override {
    failpoint::DeactivateAll();
    ASSERT_TRUE(registry_.LoadInitial(*paths_).ok());
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  /// Handles `line` and requires a parseable {"ok":true,...} response.
  static Request HandleOk(ScoringService& service, const std::string& line) {
    auto response = ParseRequest(service.HandleLine(line));
    EXPECT_TRUE(response.ok()) << line;
    EXPECT_EQ(response->Get("ok"), "true") << "request " << line << " -> error "
                                           << response->Get("error");
    return *response;
  }

  static std::string* dir_;
  static BundlePaths* paths_;
  static std::vector<std::string>* fields_;
  BundleRegistry registry_;
};

std::string* ServiceTest::dir_ = nullptr;
BundlePaths* ServiceTest::paths_ = nullptr;
std::vector<std::string>* ServiceTest::fields_ = nullptr;

TEST_F(ServiceTest, PingAndUnknownType) {
  ScoringService service(&registry_);
  EXPECT_EQ(HandleOk(service, R"({"type":"ping","id":"p1"})").Get("id"), "p1");

  auto bad = ParseRequest(service.HandleLine(R"({"type":"frobnicate"})"));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->Get("ok"), "false");
  EXPECT_NE(bad->Get("error").find("unknown type"), std::string::npos);

  auto garbage = ParseRequest(service.HandleLine("this is not json"));
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->Get("ok"), "false");
}

TEST_F(ServiceTest, ScorePairMatchesLibraryScorer) {
  ScoringService service(&registry_);
  const std::string& a = (*fields_)[0];
  const std::string& b = (*fields_)[1];
  const Request response = HandleOk(service, ScorePairLine(a, b));
  const double served_margin = FieldAsDouble(response, "margin");
  EXPECT_EQ(response.Get("cache"), "miss");
  EXPECT_EQ(response.Get("gen"), "1");
  EXPECT_EQ(response.Get("winner"), served_margin >= 0 ? "a" : "b");

  // The same pair scored through the offline library path (fresh registry
  // copies, same artifacts) must agree exactly: serving is a cache +
  // transport around the identical arithmetic.
  auto saved = LoadClassifier(paths_->model_path);
  auto db = LoadFeatureStats(paths_->stats_path);
  ASSERT_TRUE(saved.ok());
  ASSERT_TRUE(db.ok());
  const double direct_margin = PredictPairMargin(
      Snippet::FromLines(Split(a, '|')), Snippet::FromLines(Split(b, '|')), *db,
      ClassifierConfig::M6(), saved->model, saved->t_registry, saved->p_registry);
  // Equal up to the wire decimal rendering of the double.
  EXPECT_NEAR(served_margin, direct_margin, 1e-4 * (1.0 + std::fabs(direct_margin)));
  EXPECT_EQ(served_margin >= 0, direct_margin >= 0);
}

TEST_F(ServiceTest, ScorePairCacheHitReturnsIdenticalMargin) {
  ScoringService service(&registry_);
  const std::string line = ScorePairLine((*fields_)[2], (*fields_)[3]);
  const Request miss = HandleOk(service, line);
  const Request hit = HandleOk(service, line);
  EXPECT_EQ(miss.Get("cache"), "miss");
  EXPECT_EQ(hit.Get("cache"), "hit");
  EXPECT_EQ(miss.Get("margin"), hit.Get("margin"));
  EXPECT_EQ(service.pair_cache_stats().hits, 1);
}

TEST_F(ServiceTest, ScorePairValidatesFields) {
  ScoringService service(&registry_);
  auto response = ParseRequest(service.HandleLine(R"({"type":"score_pair","a":"only a"})"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("ok"), "false");
}

TEST_F(ServiceTest, PredictCtrIsCachedAndInRange) {
  ScoringService service(&registry_);
  JsonWriter request;
  request.String("type", "predict_ctr").String("snippet", (*fields_)[4]);
  const Request miss = HandleOk(service, request.Finish());
  const Request hit = HandleOk(service, request.Finish());
  EXPECT_EQ(miss.Get("cache"), "miss");
  EXPECT_EQ(hit.Get("cache"), "hit");
  EXPECT_EQ(miss.Get("score"), hit.Get("score"));
  const double ctr = FieldAsDouble(miss, "ctr");
  EXPECT_GT(ctr, 0.0);
  EXPECT_LT(ctr, 1.0);
}

TEST_F(ServiceTest, ExamineBreaksDownEveryToken) {
  ScoringService service(&registry_);
  JsonWriter request;
  request.String("type", "examine").String("snippet", "alpha beta|gamma");
  // Examine responses carry a nested lines array, which the flat request
  // parser rejects by design — assert on the raw response text.
  const std::string response = service.HandleLine(request.Finish());
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"curve_fitted\":"), std::string::npos);
  // Three tokens, each with an examination probability and a relevance.
  EXPECT_EQ(CountOccurrences(response, "\"token\""), 3);
  EXPECT_EQ(CountOccurrences(response, "\"examine\""), 3);
  EXPECT_EQ(CountOccurrences(response, "\"relevance\""), 3);
}

TEST_F(ServiceTest, ReloadBumpsGenerationAndFlushesCaches) {
  ScoringService service(&registry_);
  const std::string line = ScorePairLine((*fields_)[0], (*fields_)[1]);
  const Request before = HandleOk(service, line);
  EXPECT_EQ(before.Get("gen"), "1");
  HandleOk(service, line);  // Warm the cache.

  const Request reload = HandleOk(service, R"({"type":"reload","force":true})");
  EXPECT_EQ(reload.Get("gen"), "2");
  EXPECT_EQ(registry_.generation(), 2u);
  EXPECT_EQ(service.pair_cache_stats().size, 0);  // Flushed.

  // Same artifacts, new generation: identical margin, served as a miss.
  const Request after = HandleOk(service, line);
  EXPECT_EQ(after.Get("gen"), "2");
  EXPECT_EQ(after.Get("cache"), "miss");
  EXPECT_EQ(after.Get("margin"), before.Get("margin"));
}

TEST_F(ServiceTest, StatszReportsEndpointsAndCaches) {
  ScoringService service(&registry_);
  HandleOk(service, ScorePairLine((*fields_)[0], (*fields_)[1]));
  // statsz nests per-endpoint and cache objects, so assert on the raw text.
  const std::string statsz = service.HandleLine(R"({"type":"statsz"})");
  EXPECT_NE(statsz.find("\"ok\":true"), std::string::npos) << statsz;
  EXPECT_NE(statsz.find("\"score_pair\""), std::string::npos);
  EXPECT_NE(statsz.find("\"pair_cache\""), std::string::npos);
  EXPECT_NE(statsz.find("\"misses\":1"), std::string::npos);
  EXPECT_NE(statsz.find("\"gen\":1"), std::string::npos);
  EXPECT_NE(statsz.find("\"failed_reloads\":0"), std::string::npos);
}

// --- Hot-reload robustness (the faultinject suite) ---------------------

TEST_F(ServiceTest, InjectedLoadFaultKeepsPreviousGenerationServing) {
  ScoringService service(&registry_);
  const std::string line = ScorePairLine((*fields_)[0], (*fields_)[1]);
  const Request before = HandleOk(service, line);

  failpoint::Activate("serve.bundle.load", failpoint::Spec{});
  auto reload = ParseRequest(service.HandleLine(R"({"type":"reload","force":true})"));
  failpoint::DeactivateAll();
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->Get("ok"), "false");
  EXPECT_EQ(reload->Get("gen"), "1");  // Still the old generation.
  EXPECT_EQ(registry_.failed_reload_count(), 1);
  EXPECT_EQ(registry_.reload_count(), 0);

  // Scoring continues on generation 1 with identical results.
  const Request after = HandleOk(service, line);
  EXPECT_EQ(after.Get("gen"), "1");
  EXPECT_EQ(after.Get("margin"), before.Get("margin"));
}

TEST_F(ServiceTest, CorruptReplacementArtifactIsRejected) {
  // Stage a private copy of the artifacts so the corruption cannot leak
  // into the other tests' shared bundle.
  const std::string dir = *dir_ + "/corrupt_reload";
  ASSERT_TRUE(CreateDirectories(dir).ok());
  BundlePaths paths = *paths_;
  auto copy = [](const std::string& from, const std::string& to) {
    std::ifstream in(from, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ASSERT_TRUE(WriteFileAtomic(to, buffer.str()).ok());
  };
  copy(paths_->model_path, dir + "/model.txt");
  copy(paths_->stats_path, dir + "/stats.tsv");
  paths.model_path = dir + "/model.txt";
  paths.stats_path = dir + "/stats.tsv";

  BundleRegistry registry;
  ASSERT_TRUE(registry.LoadInitial(paths).ok());
  ScoringService service(&registry);
  const std::string line = ScorePairLine((*fields_)[0], (*fields_)[1]);
  const Request before = HandleOk(service, line);

  // A bad model push: flip bytes mid-file. The checksummed strict load must
  // reject it and the old generation keeps serving.
  {
    std::ifstream in(paths.model_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string damaged = buffer.str();
    damaged[damaged.size() / 2] ^= 0x5a;
    std::ofstream out(paths.model_path, std::ios::binary | std::ios::trunc);
    out << damaged;
  }
  auto reload = ParseRequest(service.HandleLine(R"({"type":"reload"})"));
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->Get("ok"), "false");
  EXPECT_NE(reload->Get("error").find("checksum"), std::string::npos)
      << reload->Get("error");
  EXPECT_EQ(registry.generation(), 1u);
  EXPECT_EQ(registry.failed_reload_count(), 1);

  const Request after = HandleOk(service, line);
  EXPECT_EQ(after.Get("gen"), "1");
  EXPECT_EQ(after.Get("margin"), before.Get("margin"));
}

TEST_F(ServiceTest, ReloadUnderSustainedLoadFailsNoRequests) {
  ScoringService service(&registry_);
  constexpr int kWorkers = 4;
  constexpr int kRequestsPerWorker = 200;
  std::atomic<int> failures{0};
  std::atomic<bool> reloading{true};

  // Reloader: continuous hot reloads, with an intermittent injected load
  // fault so both successful and failed swaps race the traffic.
  std::thread reloader([&] {
    failpoint::Spec flaky;
    flaky.mode = failpoint::Spec::Mode::kProbability;
    flaky.probability = 0.3;
    failpoint::Activate("serve.bundle.load", flaky);
    for (int i = 0; i < 25; ++i) {
      service.HandleLine(R"({"type":"reload","force":true})");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    failpoint::DeactivateAll();
    reloading.store(false);
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kRequestsPerWorker || reloading.load(); ++i) {
        const std::string& a = (*fields_)[static_cast<size_t>(i + w) % fields_->size()];
        const std::string& b = (*fields_)[static_cast<size_t>(i + w + 1) % fields_->size()];
        auto response = ParseRequest(service.HandleLine(ScorePairLine(a, b)));
        if (!response.ok() || response->Get("ok") != "true") {
          failures.fetch_add(1);
        }
        if (i > 100000) break;  // Safety valve; never reached in practice.
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  reloader.join();

  // The hot-reload contract: zero failed scoring requests, no matter how
  // many generation swaps (or rejected swaps) happened mid-flight.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(registry_.reload_count(), 0);
  EXPECT_GE(registry_.generation(), 2u);
}

TEST_F(ServiceTest, ConcurrentScoringAgreesAcrossGenerations) {
  // Margins must be bit-identical across generations of the same artifacts
  // and across worker threads — no torn bundles, no registry divergence.
  ScoringService service(&registry_);
  const std::string line = ScorePairLine((*fields_)[5], (*fields_)[6]);
  const std::string expected(HandleOk(service, line).Get("margin"));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 6; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        auto response = ParseRequest(service.HandleLine(line));
        if (!response.ok() || response->Get("margin") != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread reloader([&] {
    for (int i = 0; i < 5; ++i) service.HandleLine(R"({"type":"reload","force":true})");
  });
  for (std::thread& worker : workers) worker.join();
  reloader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace microbrowse
