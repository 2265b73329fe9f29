// Copyright 2026 The Microbrowse Authors

#include "microbrowse/stats_db.h"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "microbrowse/feature_keys.h"
#include "microbrowse/rewrite.h"
#include "text/ngram.h"

namespace microbrowse {

namespace {

/// Set of n-gram texts in a snippet.
std::unordered_set<std::string> NGramTexts(const Snippet& snippet, int max_ngram) {
  std::unordered_set<std::string> texts;
  for (const TermSpan& span : ExtractNGrams(snippet, max_ngram)) {
    texts.insert(span.text);
  }
  return texts;
}

/// Records term and term-position-conjunction observations for every
/// n-gram of `snippet` whose text is absent from `other_texts`.
void ObserveUniqueTerms(const Snippet& snippet,
                        const std::unordered_set<std::string>& other_texts, int max_ngram,
                        int delta, FeatureStatsDb* out) {
  std::unordered_set<std::string> seen;
  for (const TermSpan& span : ExtractNGrams(snippet, max_ngram)) {
    if (other_texts.count(span.text) != 0) continue;
    // One observation per distinct text for the plain term key (mirroring
    // the set semantics of the original implementation); conjunctions are
    // observed per occurrence since the position is part of the key.
    if (seen.insert(span.text).second) {
      out->AddObservation(TermKey(span.text), delta);
    }
    out->AddObservation(TermConjunctionKey(span.text, MakePositionKey(span)), delta);
  }
}

/// One accumulation pass over pairs [begin, end) of the corpus.
/// `matching_db` (nullable) guides rewrite matching; results go into
/// `out`. Under StatsScope::kRewritesOnly only the rewrite keys are
/// recorded.
void AccumulateRange(const PairCorpus& corpus, const BuildStatsOptions& options,
                     const FeatureStatsDb* matching_db, StatsScope scope, size_t begin,
                     size_t end, FeatureStatsDb* out) {
  RewriteMatchOptions match_options;
  match_options.max_ngram = options.max_ngram;
  const bool all_keys = scope == StatsScope::kAllKeys;

  for (size_t pair_index = begin; pair_index < end; ++pair_index) {
    const SnippetPair& pair = corpus.pairs[pair_index];
    const int delta = pair.delta_sw();

    if (all_keys) {
      // --- Term statistics: n-grams unique to one side (plain and
      // position-conjoined variants).
      const auto r_texts = NGramTexts(pair.r.snippet, options.max_ngram);
      const auto s_texts = NGramTexts(pair.s.snippet, options.max_ngram);
      ObserveUniqueTerms(pair.r.snippet, s_texts, options.max_ngram, delta, out);
      ObserveUniqueTerms(pair.s.snippet, r_texts, options.max_ngram, -delta, out);
    }

    // --- Rewrite and position statistics from the diff decomposition.
    const PairDiff diff =
        MatchRewrites(pair.r.snippet, pair.s.snippet, matching_db, match_options);
    for (const RewriteMatch& rewrite : diff.rewrites) {
      // Raw direction: S's phrase was rewritten into R's phrase.
      const SignedKey key = RewriteKey(rewrite.s_span.text, rewrite.r_span.text);
      out->AddObservation(key.key, static_cast<int>(key.sign) * delta);
      if (!all_keys) continue;

      const PositionKey r_pos = MakePositionKey(rewrite.r_span);
      const PositionKey s_pos = MakePositionKey(rewrite.s_span);
      if (!(r_pos == s_pos)) {
        // Ordered position-pair statistic (source = S side, target = R
        // side): empirical probability that a rewrite landing at r_pos
        // coincides with R being the better creative.
        out->AddObservation(RewritePositionKey(r_pos, s_pos), delta);
      }
    }
    if (!all_keys) continue;
    // Term-position statistics from the unmatched residue.
    for (const TermSpan& span : diff.r_only) {
      out->AddObservation(TermPositionKey(MakePositionKey(span)), delta);
    }
    for (const TermSpan& span : diff.s_only) {
      out->AddObservation(TermPositionKey(MakePositionKey(span)), -delta);
    }
  }
}

/// Below this corpus size one thread wins: the per-chunk databases and the
/// merge cost more than the accumulation they split.
constexpr size_t kParallelStatsThreshold = 256;

/// One accumulation pass over the whole corpus, parallelised over a fixed
/// chunk grid when num_threads > 1. Each chunk accumulates into a private
/// database; the chunk databases are then merged by key, sharded on the
/// key hash so shards can merge in parallel without locking. The merged
/// counts are integer sums, identical for any thread and shard count.
/// A chunk or shard whose pool task fails is redone on the caller's
/// thread (ThreadPool::ParallelForAll), so a failed task costs time, never
/// counts.
void AccumulatePass(const PairCorpus& corpus, const BuildStatsOptions& options,
                    const FeatureStatsDb* matching_db, StatsScope scope, FeatureStatsDb* out) {
  const size_t n = corpus.pairs.size();
  if (options.num_threads <= 1 || n < kParallelStatsThreshold) {
    AccumulateRange(corpus, options, matching_db, scope, 0, n, out);
    return;
  }
  const size_t n_chunks = std::min<size_t>(64, std::max<size_t>(1, n / 32));
  std::vector<FeatureStatsDb> chunks(n_chunks);
  ThreadPool pool(static_cast<size_t>(options.num_threads));
  pool.ParallelForAll(n_chunks, [&](size_t c) {
    chunks[c] = FeatureStatsDb();  // A rerun starts afresh.
    AccumulateRange(corpus, options, matching_db, scope, c * n / n_chunks,
                    (c + 1) * n / n_chunks, &chunks[c]);
  });
  const size_t n_shards = std::min<size_t>(static_cast<size_t>(options.num_threads), 16);
  std::vector<FeatureStatMap> shards(n_shards);
  pool.ParallelForAll(n_shards, [&](size_t s) {
    shards[s].clear();  // A rerun starts afresh.
    for (const FeatureStatsDb& chunk : chunks) {
      for (const auto& [key, stat] : chunk.stats()) {
        if (StatsKeyHash{}(key) % n_shards != s) continue;
        FeatureStat& merged = shards[s][key];
        merged.positive += stat.positive;
        merged.total += stat.total;
      }
    }
  });
  for (auto& shard : shards) out->mutable_stats().merge(shard);
}

}  // namespace

void FeatureStatsDb::BuildRewriteFilter() {
  std::vector<uint64_t> fingerprints;
  const auto add = [&fingerprints](uint64_t fingerprint) { fingerprints.push_back(fingerprint); };
  for (const auto& entry : stats_) ForEachRewriteFingerprint(entry.first, add);
  // Every rewrite key shares its prefix's class; only that class's sorted
  // rewrite range is read from the pack.
  ForEachRewriteFingerprintInSorted(
      base_[static_cast<size_t>(StatsKeyClass(kRewriteKeyPrefix))].keys, add);
  rewrite_filter_.emplace(fingerprints.size());
  for (uint64_t fingerprint : fingerprints) rewrite_filter_->Insert(fingerprint);
}

void AccumulateFeatureStats(const PairCorpus& corpus, const BuildStatsOptions& options,
                            const FeatureStatsDb* matching_db, FeatureStatsDb* out,
                            StatsScope scope) {
  if (out->stats().empty()) {
    // Fresh target: AccumulatePass's splice-merge fast path applies.
    AccumulatePass(corpus, options, matching_db, scope, out);
    return;
  }
  // Non-empty target (a later shard): accumulate locally, then add counts.
  // AccumulatePass's unordered_map::merge would silently drop counts for
  // keys the target already holds.
  FeatureStatsDb local;
  AccumulatePass(corpus, options, matching_db, scope, &local);
  for (const auto& [key, stat] : local.stats()) {
    out->AddCounts(key, stat.positive, stat.total);
  }
}

FeatureStatsDb BuildFeatureStats(const PairCorpus& corpus, const BuildStatsOptions& options) {
  TraceSpan span("mb.stats.build");
  FeatureStatsDb db;
  db.set_smoothing(options.smoothing);
  db.set_min_count(options.min_count);
  const int passes = options.matching_passes < 1 ? 1 : options.matching_passes;
  for (int pass = 0; pass < passes; ++pass) {
    TraceSpan pass_span("mb.stats.pass");
    FeatureStatsDb next;
    next.set_smoothing(options.smoothing);
    next.set_min_count(options.min_count);
    AccumulatePass(corpus, options, pass == 0 ? nullptr : &db, StatsScopeOfPass(pass, passes),
                   &next);
    db = std::move(next);
    db.BuildRewriteFilter();
  }
  // Aggregate updates from the (single-threaded) driver, so values are
  // identical for any BuildStatsOptions::num_threads.
  static Counter* passes_counter = MetricRegistry::Global().GetCounter("mb.stats.build_passes");
  static Counter* pairs_counter =
      MetricRegistry::Global().GetCounter("mb.stats.pairs_observed");
  static Gauge* features_gauge = MetricRegistry::Global().GetGauge("mb.stats.features");
  passes_counter->Increment(passes);
  pairs_counter->Increment(static_cast<int64_t>(corpus.pairs.size()) * passes);
  features_gauge->Set(static_cast<double>(db.size()));
  return db;
}

}  // namespace microbrowse
