// Copyright 2026 The Microbrowse Authors
//
// Bounded-memory training benchmark over a sharded corpus: generate a
// sharded ad corpus shard by shard, stream feature statistics and the
// coupled CSR over it, train M1, and assert the process peak RSS stayed
// under MB_TRAIN_RSS_CAP_MB. The corpus is never materialised, so peak
// memory is one shard plus the CSR and model. Timings and the peak RSS go
// to stdout and BENCH_train.json.
//
// Environment: MB_TRAIN_STREAM_PAIRS (30000), MB_TRAIN_STREAM_SHARDS (16),
// MB_TRAIN_STREAM_PASSES (1), MB_TRAIN_STREAM_THREADS (8, the stats
// build's threads), MB_TRAIN_STREAM_EPOCHS (3), MB_TRAIN_RSS_CAP_MB (4096,
// 0 = report only), MB_SEED, MB_BENCH_OUT (default BENCH_train.json).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/string_util.h"
#include "common/timer.h"
#include "corpus/generator.h"
#include "eval/experiments.h"
#include "io/corpus_shards.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"

using namespace microbrowse;

namespace {

/// Process peak resident set, in MiB (ru_maxrss is KiB on Linux).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Result of the sharded-streaming run.
struct StreamStage {
  bool ok = false;
  std::string error;
  size_t requested_pairs = 0;
  size_t shards = 0;
  size_t adgroups = 0;
  int64_t pairs = 0;
  size_t t_features = 0;
  double generate_seconds = 0.0;
  double stats_seconds = 0.0;
  double train_seconds = 0.0;  ///< CSR streaming + solver.
  double peak_rss_mb = 0.0;
  double rss_cap_mb = 0.0;  ///< 0 = report only.
};

/// Generates a sharded ad corpus shard by shard (one shard resident at a
/// time), streams stats + the coupled CSR over it and trains M1.
StreamStage RunStreamingStage(uint64_t seed) {
  StreamStage stage;
  stage.requested_pairs =
      static_cast<size_t>(std::max<int64_t>(1, EnvInt("MB_TRAIN_STREAM_PAIRS", 30000)));
  stage.shards = static_cast<size_t>(std::max<int64_t>(1, EnvInt("MB_TRAIN_STREAM_SHARDS", 16)));
  stage.rss_cap_mb = static_cast<double>(EnvInt("MB_TRAIN_RSS_CAP_MB", 4096, /*min_value=*/0));
  // The synthetic generator yields ~3 significant pairs per adgroup at the
  // default creative counts.
  stage.adgroups = std::max<size_t>(stage.shards, stage.requested_pairs / 3);

  const std::string dir = "train_bench_stream_shards";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/corpus.tsv";

  WallTimer gen_timer;
  for (size_t s = 0; s < stage.shards; ++s) {
    AdCorpusOptions options;
    options.num_adgroups = static_cast<int>((stage.adgroups + s) / stage.shards);
    options.seed = seed + 0x9e3779b97f4a7c15ULL * (s + 1);
    auto generated = GenerateAdCorpus(options);
    if (!generated.ok()) {
      stage.error = generated.status().ToString();
      return stage;
    }
    const Status saved = SaveAdCorpus(generated->corpus, ShardPath(base, s, stage.shards));
    if (!saved.ok()) {
      stage.error = saved.ToString();
      return stage;
    }
  }
  stage.generate_seconds = gen_timer.ElapsedSeconds();

  auto resolved = ResolveCorpusShards(base);
  if (!resolved.ok()) {
    stage.error = resolved.status().ToString();
    return stage;
  }

  BuildStatsOptions stats_options;
  stats_options.matching_passes = static_cast<int>(EnvInt("MB_TRAIN_STREAM_PASSES", 1));
  stats_options.num_threads = static_cast<int>(EnvInt("MB_TRAIN_STREAM_THREADS", 8));
  WallTimer stats_timer;
  ShardLoadReport report;
  auto db = BuildFeatureStatsSharded(*resolved, {}, stats_options, {}, &report);
  stage.stats_seconds = stats_timer.ElapsedSeconds();
  if (!db.ok()) {
    stage.error = db.status().ToString();
    return stage;
  }
  stage.pairs = report.pairs;

  ClassifierConfig config = ClassifierConfig::M1();
  config.lr.epochs = static_cast<int>(EnvInt("MB_TRAIN_STREAM_EPOCHS", 3));
  WallTimer train_timer;
  auto data = BuildCoupledCsrSharded(*resolved, *db, config, seed, {}, {});
  if (!data.ok()) {
    stage.error = data.status().ToString();
    return stage;
  }
  auto model = TrainSnippetClassifier(data->csr, config);
  stage.train_seconds = train_timer.ElapsedSeconds();
  if (!model.ok()) {
    stage.error = model.status().ToString();
    return stage;
  }
  stage.t_features = data->csr.num_t_features();

  std::filesystem::remove_all(dir);
  stage.peak_rss_mb = PeakRssMb();
  stage.ok = stage.rss_cap_mb <= 0.0 || stage.peak_rss_mb <= stage.rss_cap_mb;
  if (!stage.ok) {
    stage.error = StrFormat("peak RSS %.1f MiB exceeds cap %.0f MiB", stage.peak_rss_mb,
                            stage.rss_cap_mb);
  }
  return stage;
}

void WriteBenchJson(const std::string& path, const StreamStage& stream) {
  // Plain ofstream on purpose: WriteArtifactAtomic appends a checksum
  // footer that would corrupt the JSON.
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"train\",\n";
  out << "  \"stream\": {\n"
      << StrFormat("    \"requested_pairs\": %zu,\n", stream.requested_pairs)
      << StrFormat("    \"pairs\": %lld,\n", static_cast<long long>(stream.pairs))
      << StrFormat("    \"shards\": %zu,\n", stream.shards)
      << StrFormat("    \"adgroups\": %zu,\n", stream.adgroups)
      << StrFormat("    \"t_features\": %zu,\n", stream.t_features)
      << StrFormat("    \"generate_seconds\": %.3f,\n", stream.generate_seconds)
      << StrFormat("    \"stats_seconds\": %.3f,\n", stream.stats_seconds)
      << StrFormat("    \"train_seconds\": %.3f,\n", stream.train_seconds)
      << StrFormat("    \"peak_rss_mb\": %.1f,\n", stream.peak_rss_mb)
      << StrFormat("    \"rss_cap_mb\": %.0f,\n", stream.rss_cap_mb)
      << "    \"ok\": " << (stream.ok ? "true" : "false") << "\n  }\n}\n";
}

}  // namespace

int main() {
  const uint64_t seed = static_cast<uint64_t>(EnvInt("MB_SEED", 2026, /*min_value=*/0));
  const std::string out_path = [] {
    const char* env = std::getenv("MB_BENCH_OUT");
    return env != nullptr && *env != '\0' ? std::string(env) : std::string("BENCH_train.json");
  }();

  const StreamStage stream = RunStreamingStage(seed);
  std::printf("STREAMING: %lld pairs from %zu shards (%zu adgroups) — gen %.1fs, "
              "stats %.1fs, train %.1fs, peak RSS %.1f MiB (cap %s)\n",
              static_cast<long long>(stream.pairs), stream.shards, stream.adgroups,
              stream.generate_seconds, stream.stats_seconds, stream.train_seconds,
              stream.peak_rss_mb,
              stream.rss_cap_mb > 0.0 ? StrFormat("%.0f MiB", stream.rss_cap_mb).c_str()
                                      : "off");
  WriteBenchJson(out_path, stream);
  std::printf("wrote %s\n", out_path.c_str());
  if (!stream.ok) {
    std::fprintf(stderr, "train_bench: streaming stage FAILED: %s\n", stream.error.c_str());
    return 1;
  }
  return 0;
}
