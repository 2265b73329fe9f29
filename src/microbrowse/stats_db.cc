// Copyright 2026 The Microbrowse Authors

#include "microbrowse/stats_db.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "microbrowse/feature_keys.h"
#include "microbrowse/rewrite.h"
#include "text/ngram.h"
#include "text/pair_tokens.h"

namespace microbrowse {

namespace {

/// The n-grams of one side of a pair, in extraction order, with the order
/// that sorts them by their per-pair token ids: the side's unique-term set
/// as sorted gram codes. Buffers are reused from pair to pair.
class SideGrams {
 public:
  void Collect(const Snippet& snippet, const PairTokens& tokens, PairSide side) {
    spans_.clear();
    spans_.reserve(NumNGrams(snippet, kMaxNgram));
    for (int line = 0; line < snippet.num_lines(); ++line) {
      const int line_size = static_cast<int>(snippet.line(line).size());
      AppendNGramsInWindow(snippet, line, 0, line_size, kMaxNgram, &spans_);
    }
    ids_.clear();
    ids_.reserve(spans_.size());
    for (const TermSpan& span : spans_) ids_.push_back(tokens.SpanIds(side, span));
    sorted_.resize(spans_.size());
    std::iota(sorted_.begin(), sorted_.end(), 0u);
    // Equal grams keep extraction order, so each run starts at its first
    // occurrence.
    std::sort(sorted_.begin(), sorted_.end(), [this](uint32_t a, uint32_t b) {
      const int order = Compare(a, ids_[b], spans_[b].len);
      return order != 0 ? order < 0 : a < b;
    });
  }

  /// Whether some gram of this side has the token ids [ids, ids + len).
  bool Contains(const TokenId* ids, int len) const {
    const auto it = std::lower_bound(
        sorted_.begin(), sorted_.end(), 0,
        [&](uint32_t gram, int) { return Compare(gram, ids, len) < 0; });
    return it != sorted_.end() && Compare(*it, ids, len) == 0;
  }

  /// Records the term and term-position-conjunction observations for
  /// every gram whose text `other` lacks. One observation per distinct
  /// text for the plain term key (set semantics); conjunctions are
  /// observed per occurrence since the position is part of the key. The
  /// observations come in extraction order.
  void ObserveUnique(const Snippet& snippet, const SideGrams& other, int delta,
                     FeatureKeyBuffer* key, FeatureStatsDb* out) {
    enum : char { kShared, kFirst, kRepeat };
    kind_.resize(spans_.size());
    for (size_t run = 0; run < sorted_.size();) {
      const uint32_t head = sorted_[run];
      const bool shared = other.Contains(ids_[head], spans_[head].len);
      size_t end = run + 1;
      while (end < sorted_.size() && Compare(sorted_[end], ids_[head], spans_[head].len) == 0) {
        kind_[sorted_[end++]] = shared ? kShared : kRepeat;
      }
      kind_[head] = shared ? kShared : kFirst;
      run = end;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (kind_[i] == kShared) continue;
      if (kind_[i] == kFirst) out->AddObservation(key->Term(snippet, spans_[i]), delta);
      out->AddObservation(key->TermConjunction(snippet, spans_[i]), delta);
    }
  }

 private:
  /// Three-way comparison of gram `gram`'s ids with [ids, ids + len).
  int Compare(uint32_t gram, const TokenId* ids, int len) const {
    const TokenId* own = ids_[gram];
    const int own_len = spans_[gram].len;
    for (int i = 0; i < std::min(own_len, len); ++i) {
      if (own[i] != ids[i]) return own[i] < ids[i] ? -1 : 1;
    }
    return own_len - len;
  }

  std::vector<TermSpan> spans_;
  std::vector<const TokenId*> ids_;
  std::vector<uint32_t> sorted_;
  std::vector<char> kind_;
};

/// One accumulation pass over pairs [begin, end) of the corpus.
/// `matching_db` (nullable) guides rewrite matching; results go into
/// `out`. Under StatsScope::kRewritesOnly only the rewrite keys are
/// recorded. Each pair's token dictionary serves both its term statistics
/// and its matching; it and every key are built in reused buffers.
void AccumulateRange(const PairCorpus& corpus, const FeatureStatsDb* matching_db,
                     StatsScope scope, size_t begin, size_t end, FeatureStatsDb* out) {
  const bool all_keys = scope == StatsScope::kAllKeys;
  SideGrams r_grams;
  SideGrams s_grams;
  FeatureKeyBuffer key;
  PairTokens tokens;

  for (size_t pair_index = begin; pair_index < end; ++pair_index) {
    const SnippetPair& pair = corpus.pairs[pair_index];
    const Snippet& r = pair.r.snippet;
    const Snippet& s = pair.s.snippet;
    const int delta = pair.delta_sw();
    tokens.Reset(r, s);

    if (all_keys) {
      // --- Term statistics: n-grams unique to one side (plain and
      // position-conjoined variants).
      r_grams.Collect(r, tokens, PairSide::kR);
      s_grams.Collect(s, tokens, PairSide::kS);
      r_grams.ObserveUnique(r, s_grams, delta, &key, out);
      s_grams.ObserveUnique(s, r_grams, -delta, &key, out);
    }

    // --- Rewrite and position statistics from the diff decomposition.
    const PairDiff diff = MatchRewrites(r, s, tokens, matching_db);
    for (const RewriteMatch& rewrite : diff.rewrites) {
      // Raw direction: S's phrase was rewritten into R's phrase.
      double sign = 0.0;
      const std::string_view rewrite_key = key.Rewrite(s, rewrite.s_span, r, rewrite.r_span, &sign);
      out->AddObservation(rewrite_key, static_cast<int>(sign) * delta);
      if (!all_keys) continue;

      const PositionKey r_pos = MakePositionKey(rewrite.r_span);
      const PositionKey s_pos = MakePositionKey(rewrite.s_span);
      if (!(r_pos == s_pos)) {
        // Ordered position-pair statistic (source = S side, target = R
        // side): empirical probability that a rewrite landing at r_pos
        // coincides with R being the better creative.
        out->AddObservation(key.RewritePosition(r_pos, s_pos), delta);
      }
    }
    if (!all_keys) continue;
    // Term-position statistics from the unmatched residue.
    for (const TermSpan& span : diff.r_only) {
      out->AddObservation(key.TermPosition(MakePositionKey(span)), delta);
    }
    for (const TermSpan& span : diff.s_only) {
      out->AddObservation(key.TermPosition(MakePositionKey(span)), -delta);
    }
  }
}

/// Below this corpus size one thread wins: the per-chunk databases and the
/// merge cost more than the accumulation they split.
constexpr size_t kParallelStatsThreshold = 256;

}  // namespace

RewritePartnerIndex::RewritePartnerIndex(
    std::span<const std::pair<uint64_t, uint64_t>> pairs)
    : slots_(2, 0), begin_(1, 0) {
  // Number the sides and count each one's partners in begin_[side + 1]
  // (a pair of one side with itself enters it once), then turn the counts
  // into offsets and place each partner.
  std::vector<uint32_t> pair_sides(2 * pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint32_t a = Intern(pairs[i].first);
    const uint32_t b = Intern(pairs[i].second);
    pair_sides[2 * i] = a;
    pair_sides[2 * i + 1] = b;
    ++begin_[a + 1];
    if (a != b) ++begin_[b + 1];
  }
  side_hashes_.shrink_to_fit();
  begin_.shrink_to_fit();
  std::partial_sum(begin_.begin(), begin_.end(), begin_.begin());
  partners_.resize(begin_.back());
  std::vector<uint32_t> next(begin_.begin(), begin_.end() - 1);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint32_t a = pair_sides[2 * i];
    const uint32_t b = pair_sides[2 * i + 1];
    partners_[next[a]++] = b;
    if (a != b) partners_[next[b]++] = a;
  }
}

uint32_t RewritePartnerIndex::Intern(uint64_t hash) {
  if (const uint32_t known = slots_[Slot(hash)]; known != 0) return known - 1;
  side_hashes_.push_back(hash);
  begin_.push_back(0);
  const auto side = static_cast<uint32_t>(side_hashes_.size() - 1);
  if (2 * side_hashes_.size() > slots_.size()) {
    // Keep at most half the slots full, so every probe meets an empty one.
    slots_.assign(2 * slots_.size(), 0);
    for (uint32_t other = 0; other < side; ++other) slots_[Slot(side_hashes_[other])] = other + 1;
  }
  slots_[Slot(hash)] = side + 1;
  return side;
}

void FeatureStatsDb::BuildRewriteIndex() {
  // Every rewrite key shares its prefix's class; only that class's sorted
  // rewrite range is read from the pack.
  const pack::StringTable& base_keys =
      base_[static_cast<size_t>(StatsKeyClass(kRewriteKeyPrefix))].keys;
  const auto [base_begin, base_end] = RewriteKeyRange(base_keys);
  // One reading per key unless a key holds two arrows.
  size_t readings = base_end - base_begin;
  for (const auto& [key, stat] : stats_) readings += key.starts_with(kRewriteKeyPrefix);
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  pairs.reserve(readings);
  const auto add = [&pairs](uint64_t lo, uint64_t hi) { pairs.emplace_back(lo, hi); };
  for (const auto& [key, stat] : stats_) ForEachRewriteSides(key, add);
  for (size_t i = base_begin; i < base_end; ++i) ForEachRewriteSides(base_keys.at(i), add);
  rewrite_index_.emplace(pairs);
}

// One accumulation pass over the whole corpus, parallelised over a fixed
// chunk grid when num_threads > 1. Each chunk accumulates into a private
// database; the chunk databases are then merged by key, sharded on the
// keys' stored index hash so shards can merge in parallel without
// locking, and the disjoint shards are appended into one table. The
// merged counts are integer sums, identical for any thread and shard
// count; only the heap's insertion order depends on them. A chunk or
// shard whose pool task fails is redone on the caller's thread
// (ThreadPool::ParallelForAll), so a failed task costs time, never
// counts.
FeatureStatsDb AccumulateFeatureStats(const PairCorpus& corpus, const BuildStatsOptions& options,
                                      const FeatureStatsDb* matching_db, StatsScope scope) {
  const size_t n = corpus.pairs.size();
  if (options.num_threads <= 1 || n < kParallelStatsThreshold) {
    FeatureStatsDb out;
    AccumulateRange(corpus, matching_db, scope, 0, n, &out);
    return out;
  }
  const size_t n_chunks = std::min<size_t>(64, std::max<size_t>(1, n / 32));
  std::vector<FeatureStatsDb> chunks(n_chunks);
  ThreadPool pool(static_cast<size_t>(options.num_threads));
  pool.ParallelForAll(n_chunks, [&](size_t c) {
    chunks[c] = FeatureStatsDb();  // A rerun starts afresh.
    AccumulateRange(corpus, matching_db, scope, c * n / n_chunks, (c + 1) * n / n_chunks,
                    &chunks[c]);
  });
  // Shards take the hash's high bits: a shard's keys then still spread
  // over every home slot of its table, which probes the low bits.
  const size_t n_shards = std::min<size_t>(static_cast<size_t>(options.num_threads), 16);
  std::vector<KeyTable<FeatureStat>> shards(n_shards);
  pool.ParallelForAll(n_shards, [&](size_t s) {
    shards[s].Clear();  // A rerun starts afresh.
    for (const FeatureStatsDb& chunk : chunks) {
      const KeyTable<FeatureStat>& stats = chunk.stats();
      for (size_t i = 0; i < stats.size(); ++i) {
        if ((stats.hash(i) >> 32) % n_shards != s) continue;
        FeatureStat& merged = shards[s].value(shards[s].Insert(stats.key(i), stats.hash(i)).first);
        merged.positive += stats.value(i).positive;
        merged.total += stats.value(i).total;
      }
    }
  });
  size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  KeyTable<FeatureStat> merged = std::move(shards[0]);
  merged.Reserve(total);
  for (size_t s = 1; s < n_shards; ++s) {
    for (size_t i = 0; i < shards[s].size(); ++i) {
      merged.InsertNew(shards[s].key(i), shards[s].hash(i), shards[s].value(i));
    }
  }
  return FeatureStatsDb(std::move(merged));
}

FeatureStatsDb BuildFeatureStats(const PairCorpus& corpus, const BuildStatsOptions& options) {
  TraceSpan span("mb.stats.build");
  // Each pass's database gets the options' min-count and its rewrite
  // index; its smoothing is the new-database default, kStatsSmoothing.
  auto pass = [&](const FeatureStatsDb* matching_db, StatsScope scope) {
    TraceSpan pass_span("mb.stats.pass");
    FeatureStatsDb db = AccumulateFeatureStats(corpus, options, matching_db, scope);
    db.set_min_count(options.min_count);
    db.BuildRewriteIndex();
    return db;
  };
  const FeatureStatsDb first = pass(nullptr, StatsScope::kRewritesOnly);
  FeatureStatsDb db = pass(&first, StatsScope::kAllKeys);
  // Aggregate updates from the (single-threaded) driver, so values are
  // identical for any BuildStatsOptions::num_threads.
  constexpr int passes = 2;
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
