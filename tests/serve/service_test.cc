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
#include <bit>
#include <cstdlib>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/pack_artifacts.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/feature_keys.h"
#include "microbrowse/stats_db.h"
#include "serve/bundle.h"
#include "serve/protocol.h"
#include "text/ngram.h"

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

/// CtrPredictor::Score of `bundle` restated over keys that the string
/// builders (TermKey, TermConjunctionKey, TermPositionKey) spell from an
/// independent join of the span's tokens: the exact reference for the
/// predictor's reused key buffer. Terms are summed in the same order, so
/// the result must agree bit for bit.
double ReferenceCtrScore(const ModelBundle& bundle, const Snippet& snippet) {
  const SnippetClassifierModel& model = bundle.classifier.model;
  const FeatureRegistry& t_registry = bundle.classifier.t_registry;
  const FeatureRegistry& p_registry = bundle.classifier.p_registry;
  double score = 0.0;
  for (const TermSpan& span : ExtractNGrams(snippet)) {
    const std::vector<std::string>& tokens = snippet.line(span.line);
    const std::string text = Join(std::vector<std::string>(tokens.begin() + span.pos,
                                                           tokens.begin() + span.pos + span.len),
                                  " ");
    const PositionKey position = MakePositionKey(span);
    const FeatureId conj = t_registry.Find(TermConjunctionKey(text, position));
    if (conj != kInvalidFeatureId && conj < model.t_weights.size() &&
        model.t_weights[conj] != 0.0) {
      score += model.t_weights[conj];
      continue;
    }
    double term_weight = 0.0;
    const FeatureId plain = t_registry.Find(TermKey(text));
    if (plain != kInvalidFeatureId && plain < model.t_weights.size()) {
      term_weight = model.t_weights[plain];
    } else {
      term_weight = bundle.stats.LogOdds(TermKey(text));
    }
    const FeatureId visibility = p_registry.Find(TermPositionKey(position));
    score += term_weight * (visibility != kInvalidFeatureId && visibility < model.p_weights.size()
                                ? model.p_weights[visibility]
                                : bundle.curve.Probability(position.line, position.bucket));
  }
  return score;
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
    pack_paths_ = new BundlePaths;
    pack_paths_->model_path = *dir_ + "/model.mbp";
    pack_paths_->stats_path = *dir_ + "/stats.mbp";
    ASSERT_TRUE(SaveClassifierPack(*model, dataset.t_registry, dataset.p_registry,
                                   pack_paths_->model_path)
                    .ok());
    ASSERT_TRUE(SaveStatsPack(db, pack_paths_->stats_path).ok());

    fields_ = new std::vector<std::string>;
    sibling_pairs_ = new std::vector<std::pair<size_t, size_t>>;
    for (const auto& adgroup : generated->corpus.adgroups) {
      const size_t first = fields_->size();
      for (const auto& creative : adgroup.creatives) {
        fields_->push_back(SnippetField(creative.snippet));
      }
      for (size_t i = first; i < fields_->size(); ++i) {
        for (size_t j = first; j < fields_->size(); ++j) {
          if (i != j) sibling_pairs_->emplace_back(i, j);
        }
      }
    }
    ASSERT_GE(fields_->size(), 8u);
  }

  static void TearDownTestSuite() {
    delete sibling_pairs_;
    delete fields_;
    delete pack_paths_;
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
  static BundlePaths* paths_;       ///< TSV artifacts.
  static BundlePaths* pack_paths_;  ///< The same model and stats as mbpacks.
  static std::vector<std::string>* fields_;
  /// Every ordered pair of distinct creatives of one adgroup, as indices
  /// into fields_.
  static std::vector<std::pair<size_t, size_t>>* sibling_pairs_;
  BundleRegistry registry_;
};

std::string* ServiceTest::dir_ = nullptr;
BundlePaths* ServiceTest::paths_ = nullptr;
BundlePaths* ServiceTest::pack_paths_ = nullptr;
std::vector<std::string>* ServiceTest::fields_ = nullptr;
std::vector<std::pair<size_t, size_t>>* ServiceTest::sibling_pairs_ = nullptr;

/// The bits of the double the response spells under `key` (shortest
/// round-trip text, so parsing it recovers the served value exactly).
uint64_t ResponseBits(const Request& response, const std::string& key) {
  return std::bit_cast<uint64_t>(std::strtod(std::string(response.Get(key)).c_str(), nullptr));
}

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
  // copies, same artifacts) must agree bit for bit: serving is a cache +
  // transport around the identical arithmetic.
  auto saved = LoadClassifier(paths_->model_path);
  auto db = LoadFeatureStats(paths_->stats_path);
  ASSERT_TRUE(saved.ok());
  ASSERT_TRUE(db.ok());
  const double direct_margin = PredictPairMargin(
      Snippet::FromLines(Split(a, '|')), Snippet::FromLines(Split(b, '|')), *db,
      ClassifierConfig::M6(), saved->model, saved->t_registry, saved->p_registry);
  EXPECT_EQ(ResponseBits(response, "margin"), std::bit_cast<uint64_t>(direct_margin));
}

// Serve equals batch, exactly, on every endpoint that scores: each ordered
// sibling pair through score_pair and each creative through predict_ctr,
// against the library scorers run on artifacts loaded separately, for the
// TSV bundle and the mbpack bundle alike. Both sides of the score_pair half
// run PredictPairMargin, so it checks the wire and the cache, not key
// spelling (FeatureKeysTest.KeyBufferSpellsWhatTheStringBuildersSpell and
// OccurrenceDifferential guard that); predict_ctr is also checked against
// ReferenceCtrScore, whose keys come from the string builders.
TEST_F(ServiceTest, ServeEqualsBatchBitForBitOnTsvAndPackBundles) {
  for (const BundlePaths* paths : {paths_, pack_paths_}) {
    SCOPED_TRACE(paths->model_path);
    BundleRegistry registry;
    ASSERT_TRUE(registry.LoadInitial(*paths).ok());
    ScoringService service(&registry);
    const bool pack = paths == pack_paths_;
    auto saved = pack ? LoadClassifierPack(paths->model_path) : LoadClassifier(paths->model_path);
    auto db = pack ? LoadStatsPack(paths->stats_path) : LoadFeatureStats(paths->stats_path);
    auto batch = LoadBundle(*paths, 1);  // predict_ctr's batch scorer.
    ASSERT_TRUE(saved.ok() && db.ok() && batch.ok());

    size_t mismatches = 0;
    for (const auto& [i, j] : *sibling_pairs_) {
      const Request response = HandleOk(service, ScorePairLine((*fields_)[i], (*fields_)[j]));
      const double batch_margin = PredictPairMargin(
          Snippet::FromLines(Split((*fields_)[i], '|')),
          Snippet::FromLines(Split((*fields_)[j], '|')), *db, ClassifierConfig::M6(),
          saved->model, saved->t_registry, saved->p_registry);
      if (ResponseBits(response, "margin") != std::bit_cast<uint64_t>(batch_margin) &&
          ++mismatches <= 3) {
        ADD_FAILURE() << "score_pair " << i << "," << j << ": served "
                      << response.Get("margin") << ", batch " << batch_margin;
      }
    }
    for (size_t i = 0; i < fields_->size(); ++i) {
      JsonWriter request;
      request.String("type", "predict_ctr").String("snippet", (*fields_)[i]);
      const Request response = HandleOk(service, request.Finish());
      const Snippet snippet = Snippet::FromLines(Split((*fields_)[i], '|'));
      const double batch_score = (*batch)->predictor->Score(snippet);
      const double reference_score = ReferenceCtrScore(**batch, snippet);
      if ((ResponseBits(response, "score") != std::bit_cast<uint64_t>(batch_score) ||
           std::bit_cast<uint64_t>(reference_score) != std::bit_cast<uint64_t>(batch_score)) &&
          ++mismatches <= 3) {
        ADD_FAILURE() << "predict_ctr " << i << ": served " << response.Get("score")
                      << ", batch " << batch_score << ", reference " << reference_score;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << sibling_pairs_->size() << " pairs and "
                              << fields_->size() << " snippets";
    EXPECT_GT(sibling_pairs_->size(), 200u);
  }
}

// Serve equals batch for examine, on the TSV bundle and the mbpack bundle
// alike: every token's "relevance" equals, bit for bit, the sigmoid of the
// unigram log-odds in an independently loaded stats DB, and its "examine"
// the curve of an independently loaded bundle (LoadBundle is the one place
// a curve is fitted).
TEST_F(ServiceTest, ExamineServeEqualsBatchBitForBitOnTsvAndPackBundles) {
  for (const BundlePaths* paths : {paths_, pack_paths_}) {
    SCOPED_TRACE(paths->model_path);
    BundleRegistry registry;
    ASSERT_TRUE(registry.LoadInitial(*paths).ok());
    ScoringService service(&registry);
    const bool pack = paths == pack_paths_;
    auto db = pack ? LoadStatsPack(paths->stats_path) : LoadFeatureStats(paths->stats_path);
    auto batch = LoadBundle(*paths, 1);
    ASSERT_TRUE(db.ok() && batch.ok());
    const std::string curve_fitted =
        std::string("\"curve_fitted\":") + ((*batch)->curve_fitted ? "true" : "false");

    size_t mismatches = 0;
    size_t tokens = 0;
    for (const std::string& field : *fields_) {
      JsonWriter request;
      request.String("type", "examine").String("snippet", field);
      // The nested lines array defeats the flat parser: read the numbers
      // straight off the response text, token by token in order.
      const std::string response = service.HandleLine(request.Finish());
      ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
      EXPECT_NE(response.find(curve_fitted), std::string::npos) << response;
      const Snippet snippet = Snippet::FromLines(Split(field, '|'));
      size_t cursor = 0;
      for (int line = 0; line < snippet.num_lines(); ++line) {
        for (int pos = 0; pos < static_cast<int>(snippet.line(line).size()); ++pos) {
          const std::string& token = snippet.line(line)[pos];
          const std::string head = "{\"token\":\"" + JsonEscape(token) + "\",\"examine\":";
          cursor = response.find(head, cursor);
          ASSERT_NE(cursor, std::string::npos) << token << " in " << response;
          char* end = nullptr;
          const double examine = std::strtod(response.c_str() + cursor + head.size(), &end);
          const std::string_view relevance_key = ",\"relevance\":";
          ASSERT_TRUE(std::string_view(end).starts_with(relevance_key)) << response;
          const double relevance = std::strtod(end + relevance_key.size(), &end);
          cursor = static_cast<size_t>(end - response.c_str());
          const double batch_examine = (*batch)->curve.Probability(line, pos);
          const double batch_relevance = Sigmoid(db->LogOdds(TermKey(token)));
          if ((std::bit_cast<uint64_t>(examine) != std::bit_cast<uint64_t>(batch_examine) ||
               std::bit_cast<uint64_t>(relevance) != std::bit_cast<uint64_t>(batch_relevance)) &&
              ++mismatches <= 3) {
            ADD_FAILURE() << "examine " << token << " at " << line << "," << pos
                          << ": served " << examine << "/" << relevance << ", batch "
                          << batch_examine << "/" << batch_relevance;
          }
          ++tokens;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << tokens << " tokens";
    EXPECT_GT(tokens, 1000u);
  }
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
