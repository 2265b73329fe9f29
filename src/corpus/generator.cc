// Copyright 2026 The Microbrowse Authors

#include "corpus/generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <string>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "corpus/phrase_pool.h"

namespace microbrowse {

namespace {

/// Log-normal spread of the impressions around base_impressions.
constexpr double kImpressionSigma = 0.5;
/// Query-intent CTR scale for TOP placement; RHS is scaled down (weaker
/// examination and lower base).
constexpr double kBaseCtr = 0.16;
/// Log-normal spread of the per-adgroup CTR level.
constexpr double kAdgroupCtrSigma = 0.25;
/// Compression of within-slot appeal differences toward the slot-pool
/// mean: effective_appeal = mean + c * (appeal - mean). Real creative
/// rewrites move CTR by small amounts; *where* text sits (examination)
/// dominates *which* near-synonymous phrase is used — the regime in which
/// the paper's position features pay off.
constexpr double kAppealCompression = 0.45;
/// Most mutations one sibling creative carries.
constexpr int kMaxMutations = 4;
/// Probability a sibling creative re-samples its glue tokens (connector
/// words between slots) instead of inheriting the base creative's.
constexpr double kProbGlueResample = 0.5;
/// Mutations follow a Zipf-weighted per-phrase rewrite graph (advertisers
/// reuse popular substitutions) with this probability; otherwise the
/// replacement phrase is uniform. Concentrated rewrite traffic is what
/// makes the rewrite statistics database informative.
constexpr double kRewriteGraphBias = 0.9;

/// Content blocks a creative is assembled from. The ACTION_OBJECT block
/// carries the keyword; QUALITY / OFFER / CTA are decorations. Blocks are
/// distributed over the three lines by a per-creative layout, so the same
/// phrase can appear anywhere in the creative — position is decoupled from
/// phrase identity, as in free-form ad text.
enum class Block : uint8_t { kActionObject = 0, kQuality = 1, kOffer = 2, kCta = 3 };

/// Per-creative layout. The brand always sits alone on line 0. The content
/// blocks keep a fixed order and are cut into two groups at `split`; the
/// `swapped` bit says which group renders on line 1 (strongly examined)
/// versus line 2 (weakly examined). Because n-grams never span lines,
/// toggling `swapped` leaves the creative's n-gram multiset IDENTICAL
/// while moving text between visibility tiers — pure micro-position
/// variation, invisible to bag-of-terms features. (Think: the same ad
/// copy arranged offer-first versus description-first.)
struct Layout {
  std::array<uint8_t, 4> order = {0, 1, 2, 3};  ///< Block values, first `num_blocks` used.
  uint8_t num_blocks = 3;
  /// Blocks promoted to line 0 after the brand (0 or 1). Fixed per adgroup
  /// (never mutated), so siblings always share it — no within-adgroup
  /// n-gram difference can reveal it.
  uint8_t blocks_in_line0 = 0;
  uint8_t split = 1;      ///< Of the remaining blocks, [line0..split) = group 1.
  bool swapped = false;   ///< Group 2 on line 1, group 1 on line 2.

  friend bool operator==(const Layout& a, const Layout& b) {
    return a.order == b.order && a.num_blocks == b.num_blocks &&
           a.blocks_in_line0 == b.blocks_in_line0 && a.split == b.split &&
           a.swapped == b.swapped;
  }
};

/// Slot choices and layout fully describing one creative.
struct Blueprint {
  int vertical = 0;
  size_t brand = 0;
  size_t action = 0;
  size_t object = 0;
  size_t quality = 0;
  size_t offer = 0;
  size_t cta = 0;
  bool has_cta = false;
  Layout layout;
  int glue2 = 0;  ///< Connector after the object phrase (0 = none).
  int glue3 = 0;  ///< Connector between blocks sharing a line (0 = none).

  friend bool operator==(const Blueprint& a, const Blueprint& b) {
    return a.vertical == b.vertical && a.brand == b.brand && a.action == b.action &&
           a.object == b.object && a.quality == b.quality && a.offer == b.offer &&
           a.cta == b.cta && a.has_cta == b.has_cta && a.layout == b.layout &&
           a.glue2 == b.glue2 && a.glue3 == b.glue3;
  }
};

/// Mutations a sibling creative can apply to the adgroup's base blueprint.
enum class Mutation {
  kRewriteAction,
  kRewriteQuality,
  kRewriteOffer,
  kRewriteCta,
  kMoveLayout,  ///< Re-deal the block layout: a pure position change.
};

/// CTR-neutral connector words (index 0 = no connector).
const char* const kGlue2Choices[] = {"", "today", "online", "now"};
// Always present between blocks that share a line (and after the brand),
// so block adjacency is never directly observable as a phrase-phrase
// bigram — only as a much sparser phrase-glue-phrase trigram.
const char* const kGlue3Choices[] = {"and", "plus", "with", "for"};

/// One emitted phrase with its location, the unit of the phrase-level
/// ground-truth model.
struct Segment {
  int line = 0;
  int pos = 0;  ///< Token index of the phrase's first token.
  std::string text;
};

struct MaterializedCreative {
  Snippet snippet;
  std::vector<Segment> segments;
};

const std::string& PhraseText(const PhrasePool& pool, SlotType slot, size_t index) {
  return pool.PhrasesFor(slot)[index].text;
}

Layout SampleLayout(bool has_cta, Rng* rng) {
  Layout layout;
  layout.num_blocks = has_cta ? 4 : 3;
  for (uint8_t i = 0; i < layout.num_blocks; ++i) layout.order[i] = i;
  // Fisher-Yates over the active prefix. Order and split are sampled once
  // per adgroup (with the base blueprint) and inherited by every sibling,
  // so adjacency n-grams cannot distinguish siblings; only `swapped`
  // varies within an adgroup.
  for (uint8_t i = layout.num_blocks; i > 1; --i) {
    const uint8_t j = static_cast<uint8_t>(rng->NextIndex(i));
    std::swap(layout.order[i - 1], layout.order[j]);
  }
  layout.blocks_in_line0 = rng->Bernoulli(0.35) ? 1 : 0;
  const uint8_t remaining = static_cast<uint8_t>(layout.num_blocks - layout.blocks_in_line0);
  layout.split = static_cast<uint8_t>(
      layout.blocks_in_line0 +
      (remaining >= 2 ? 1 + rng->NextIndex(remaining - 1) : remaining));
  layout.swapped = rng->Bernoulli(0.5);
  return layout;
}

MaterializedCreative Materialize(const PhrasePool& pool, const Blueprint& bp) {
  MaterializedCreative out;
  std::vector<std::vector<std::string>> lines(3);
  std::vector<Segment>& segments = out.segments;

  auto emit_phrase = [&lines, &segments](int line, const std::string& phrase) {
    const int pos = static_cast<int>(lines[line].size());
    for (const auto& token : SplitWhitespace(phrase)) lines[line].push_back(token);
    segments.push_back(Segment{line, pos, phrase});
  };

  emit_phrase(0, PhraseText(pool, SlotType::kBrand, bp.brand));

  auto emit_block = [&](int line, Block block, bool first_in_line) {
    if (!first_in_line) emit_phrase(line, kGlue3Choices[bp.glue3]);
    switch (block) {
      case Block::kActionObject:
        emit_phrase(line, PhraseText(pool, SlotType::kAction, bp.action));
        emit_phrase(line, PhraseText(pool, SlotType::kObject, bp.object));
        if (bp.glue2 != 0) emit_phrase(line, kGlue2Choices[bp.glue2]);
        break;
      case Block::kQuality:
        emit_phrase(line, PhraseText(pool, SlotType::kQuality, bp.quality));
        break;
      case Block::kOffer:
        emit_phrase(line, PhraseText(pool, SlotType::kOffer, bp.offer));
        break;
      case Block::kCta:
        emit_phrase(line, PhraseText(pool, SlotType::kCallToAction, bp.cta));
        break;
    }
  };

  auto emit_group = [&](int line, uint8_t begin, uint8_t end) {
    for (uint8_t i = begin; i < end; ++i) {
      emit_block(line, static_cast<Block>(bp.layout.order[i]), /*first_in_line=*/i == begin);
    }
  };
  // Line-0 blocks render right after the brand (glue separated).
  for (uint8_t i = 0; i < bp.layout.blocks_in_line0; ++i) {
    emit_block(0, static_cast<Block>(bp.layout.order[i]), /*first_in_line=*/false);
  }
  const uint8_t line0 = bp.layout.blocks_in_line0;
  const uint8_t split = bp.layout.split;
  if (bp.layout.swapped) {
    emit_group(1, split, bp.layout.num_blocks);
    emit_group(2, line0, split);
  } else {
    emit_group(1, line0, split);
    emit_group(2, split, bp.layout.num_blocks);
  }

  out.snippet = Snippet::FromTokens(std::move(lines));
  return out;
}

void SampleGlue(Blueprint* bp, Rng* rng) {
  bp->glue2 = static_cast<int>(rng->NextIndex(std::size(kGlue2Choices)));
  bp->glue3 = static_cast<int>(rng->NextIndex(std::size(kGlue3Choices)));
}

Result<Blueprint> SampleBaseBlueprint(const PhrasePool& pool, int vertical, Rng* rng) {
  Blueprint bp;
  bp.vertical = vertical;
  MB_ASSIGN_OR_RETURN(bp.brand, pool.SampleIndex(SlotType::kBrand, rng));
  MB_ASSIGN_OR_RETURN(bp.action, pool.SampleIndex(SlotType::kAction, rng));
  MB_ASSIGN_OR_RETURN(bp.object, pool.SampleIndex(SlotType::kObject, rng));
  MB_ASSIGN_OR_RETURN(bp.quality, pool.SampleIndex(SlotType::kQuality, rng));
  MB_ASSIGN_OR_RETURN(bp.offer, pool.SampleIndex(SlotType::kOffer, rng));
  MB_ASSIGN_OR_RETURN(bp.cta, pool.SampleIndex(SlotType::kCallToAction, rng));
  bp.has_cta = rng->Bernoulli(0.35);
  bp.layout = SampleLayout(bp.has_cta, rng);
  SampleGlue(&bp, rng);
  return bp;
}

/// Per-slot rewrite-preference graph: advertisers reuse popular
/// substitutions, so each phrase has a few Zipf-weighted preferred
/// replacement targets. Built once per corpus from the seed.
class RewriteGraph {
 public:
  static Result<RewriteGraph> Build(const PhrasePool& pool, Rng* rng) {
    RewriteGraph graph;
    for (int s = 0; s < kNumSlotTypes; ++s) {
      const SlotType slot = static_cast<SlotType>(s);
      const size_t n = pool.PhrasesFor(slot).size();
      graph.prefs_[s].resize(n);
      for (size_t from = 0; from < n; ++from) {
        const size_t num_targets = std::min<size_t>(3, n > 0 ? n - 1 : 0);
        double weight = 9.0;
        for (size_t k = 0; k < num_targets; ++k, weight /= 3.0) {
          size_t target = from;
          for (int attempt = 0;
               attempt < 16 && (target == from || graph.Contains(s, from, target));
               ++attempt) {
            MB_ASSIGN_OR_RETURN(target, pool.SampleIndex(slot, rng));
          }
          if (target != from && !graph.Contains(s, from, target)) {
            graph.prefs_[s][from].emplace_back(target, weight);
          }
        }
      }
    }
    return graph;
  }

  /// Samples a replacement for `from`: a preferred target with probability
  /// kRewriteGraphBias, otherwise uniform (always != from).
  Result<size_t> SampleTarget(const PhrasePool& pool, SlotType slot, size_t from,
                              Rng* rng) const {
    const auto& edges = prefs_[static_cast<int>(slot)][from];
    if (!edges.empty() && rng->Bernoulli(kRewriteGraphBias)) {
      std::vector<double> weights;
      weights.reserve(edges.size());
      for (const auto& [target, weight] : edges) weights.push_back(weight);
      return edges[rng->Categorical(weights)].first;
    }
    return pool.SampleIndexExcluding(slot, from, rng);
  }

 private:
  RewriteGraph() = default;

  bool Contains(int slot, size_t from, size_t target) const {
    for (const auto& [existing, weight] : prefs_[slot][from]) {
      if (existing == target) return true;
    }
    return false;
  }

  std::array<std::vector<std::vector<std::pair<size_t, double>>>, kNumSlotTypes> prefs_;
};

/// Applies one random mutation; move mutations are drawn with weight
/// `move_weight` against rewrites.
Status ApplyMutation(const PhrasePool& pool, const RewriteGraph& graph, double move_weight,
                     Blueprint* bp, Rng* rng) {
  std::vector<Mutation> candidates;
  std::vector<double> weights;
  const double rewrite_weight = 1.0 - move_weight;
  auto add = [&](Mutation m, double w) {
    candidates.push_back(m);
    weights.push_back(w);
  };
  add(Mutation::kRewriteAction, rewrite_weight);
  add(Mutation::kRewriteQuality, rewrite_weight);
  add(Mutation::kRewriteOffer, rewrite_weight);
  if (bp->has_cta) add(Mutation::kRewriteCta, rewrite_weight * 0.5);
  add(Mutation::kMoveLayout, move_weight * 3.0);

  switch (candidates[rng->Categorical(weights)]) {
    case Mutation::kRewriteAction: {
      MB_ASSIGN_OR_RETURN(bp->action,
                          graph.SampleTarget(pool, SlotType::kAction, bp->action, rng));
      break;
    }
    case Mutation::kRewriteQuality: {
      MB_ASSIGN_OR_RETURN(bp->quality,
                          graph.SampleTarget(pool, SlotType::kQuality, bp->quality, rng));
      break;
    }
    case Mutation::kRewriteOffer: {
      MB_ASSIGN_OR_RETURN(bp->offer,
                          graph.SampleTarget(pool, SlotType::kOffer, bp->offer, rng));
      break;
    }
    case Mutation::kRewriteCta: {
      MB_ASSIGN_OR_RETURN(bp->cta,
                          graph.SampleTarget(pool, SlotType::kCallToAction, bp->cta, rng));
      break;
    }
    case Mutation::kMoveLayout:
      bp->layout.swapped = !bp->layout.swapped;
      break;
  }
  return Status::OK();
}

/// Compresses within-slot appeal spread toward each slot's mean by factor
/// `c` (see kAppealCompression).
PhrasePool CompressAppeals(const PhrasePool& pool, double c) {
  PhrasePool out;
  for (int s = 0; s < kNumSlotTypes; ++s) {
    const SlotType slot = static_cast<SlotType>(s);
    const auto& phrases = pool.PhrasesFor(slot);
    if (phrases.empty()) continue;
    double mean = 0.0;
    for (const Phrase& phrase : phrases) mean += phrase.appeal;
    mean /= static_cast<double>(phrases.size());
    for (const Phrase& phrase : phrases) {
      out.Add(slot, phrase.text, mean + c * (phrase.appeal - mean));
    }
  }
  return out;
}

/// Merges several pools into one (for the merged ground-truth relevance).
PhrasePool MergePools(const std::vector<PhrasePool>& pools) {
  PhrasePool merged;
  for (const auto& pool : pools) {
    for (int s = 0; s < kNumSlotTypes; ++s) {
      const SlotType slot = static_cast<SlotType>(s);
      for (const Phrase& phrase : pool.PhrasesFor(slot)) {
        merged.Add(slot, phrase.text, phrase.appeal);
      }
    }
  }
  return merged;
}

/// Expected CTR under the phrase-level micro-browsing model: the user
/// examines each *phrase* with the curve probability of its first token
/// and judges relevance per phrase — Eq. 3 with phrases as the terms,
/// matching the paper's "word (or phrase)" granularity. With
/// `attention_absorb` > 0 an intra-snippet cascade applies: examining a
/// salient phrase may end the scan, discounting everything after it in
/// reading order.
double RelevanceProduct(const MaterializedCreative& creative, int32_t keyword_id,
                        const ExaminationCurve& curve, const PoolRelevance& relevance,
                        double attention_absorb) {
  // Segments sorted in reading order (line, then position).
  std::vector<const Segment*> ordered;
  ordered.reserve(creative.segments.size());
  for (const Segment& segment : creative.segments) ordered.push_back(&segment);
  std::sort(ordered.begin(), ordered.end(), [](const Segment* a, const Segment* b) {
    return a->line != b->line ? a->line < b->line : a->pos < b->pos;
  });

  double product = 1.0;
  double attention = 1.0;  // P(user is still scanning).
  for (const Segment* segment : ordered) {
    const double p = attention * curve.Probability(segment->line, segment->pos);
    const double r = relevance.Relevance(keyword_id, segment->text);
    product *= 1.0 - p * (1.0 - r);
    if (attention_absorb > 0.0) {
      attention *= 1.0 - attention_absorb * p * r;
    }
  }
  return product;
}

}  // namespace

Result<GeneratedCorpus> GenerateAdCorpus(const AdCorpusOptions& options) {
  TraceSpan span("mb.corpus.generate");
  if (options.num_adgroups <= 0) {
    return Status::InvalidArgument("GenerateAdCorpus: num_adgroups must be positive");
  }
  if (options.min_creatives < 2 || options.max_creatives < options.min_creatives) {
    return Status::InvalidArgument("GenerateAdCorpus: need 2 <= min_creatives <= max_creatives");
  }
  std::vector<PhrasePool> pools;
  for (const PhrasePool& pool :
       {PhrasePool::Travel(), PhrasePool::Shopping(), PhrasePool::Finance()}) {
    pools.push_back(CompressAppeals(pool, kAppealCompression));
  }

  Rng rng(options.seed);
  const bool rhs = options.placement == Placement::kRhs;
  const ExaminationCurve curve =
      rhs ? ExaminationCurve::RhsPlacement() : ExaminationCurve::TopPlacement();
  const double placement_ctr = kBaseCtr * (rhs ? 0.45 : 1.0);
  const double impression_scale = rhs ? 0.6 : 1.0;

  GeneratedCorpus out;
  out.truth =
      CorpusGroundTruth{curve, PoolRelevance(MergePools(pools), options.relevance_jitter,
                                             /*default_relevance=*/0.95, options.seed ^ 0x9e37),
                        placement_ctr};
  out.corpus.placement = options.placement;
  out.corpus.adgroups.reserve(options.num_adgroups);

  std::vector<RewriteGraph> rewrite_graphs;
  rewrite_graphs.reserve(pools.size());
  for (const auto& pool : pools) {
    MB_ASSIGN_OR_RETURN(RewriteGraph graph, RewriteGraph::Build(pool, &rng));
    rewrite_graphs.push_back(std::move(graph));
  }

  std::map<std::pair<int, size_t>, int32_t> keyword_ids;
  int64_t next_creative_id = 0;

  for (int g = 0; g < options.num_adgroups; ++g) {
    AdGroup group;
    group.id = g;
    const int vertical = static_cast<int>(rng.NextIndex(pools.size()));
    const PhrasePool& pool = pools[vertical];

    MB_ASSIGN_OR_RETURN(const Blueprint base, SampleBaseBlueprint(pool, vertical, &rng));
    auto [it, inserted] = keyword_ids.try_emplace({vertical, base.object},
                                                  static_cast<int32_t>(keyword_ids.size()));
    group.keyword_id = it->second;
    group.keyword = pool.PhrasesFor(SlotType::kObject)[base.object].text;

    const int num_creatives =
        static_cast<int>(rng.UniformInt(options.min_creatives, options.max_creatives));
    std::vector<Blueprint> blueprints;
    blueprints.push_back(base);
    while (static_cast<int>(blueprints.size()) < num_creatives) {
      Blueprint sibling = base;
      for (int attempt = 0; attempt < 8; ++attempt) {
        sibling = base;
        MB_RETURN_IF_ERROR(ApplyMutation(pool, rewrite_graphs[vertical],
                                         options.move_mutation_weight, &sibling, &rng));
        for (int m = 1; m < kMaxMutations && rng.Bernoulli(options.mutation_continue_prob);
             ++m) {
          MB_RETURN_IF_ERROR(ApplyMutation(pool, rewrite_graphs[vertical],
                                           options.move_mutation_weight, &sibling, &rng));
        }
        if (rng.Bernoulli(kProbGlueResample)) SampleGlue(&sibling, &rng);
        if (std::find(blueprints.begin(), blueprints.end(), sibling) == blueprints.end()) break;
      }
      if (std::find(blueprints.begin(), blueprints.end(), sibling) != blueprints.end()) {
        break;  // Pool too small to diversify further; accept fewer creatives.
      }
      blueprints.push_back(sibling);
    }
    if (blueprints.size() < 2) continue;

    // Per-adgroup CTR level (query intent, advertiser quality, ...).
    const double adgroup_level =
        placement_ctr * std::exp(kAdgroupCtrSigma * rng.Gaussian());

    for (const Blueprint& bp : blueprints) {
      Creative creative;
      creative.id = next_creative_id++;
      MaterializedCreative materialized = Materialize(pool, bp);
      const double relevance_product = RelevanceProduct(
          materialized, group.keyword_id, curve, out.truth.relevance, options.attention_absorb);
      creative.snippet = std::move(materialized.snippet);
      // Per-creative non-text factor (landing page, extensions, ...): real
      // CTR differences are never fully explained by the creative text.
      const double non_text_factor = std::exp(options.creative_noise_sigma * rng.Gaussian());
      creative.true_ctr = std::clamp(adgroup_level * relevance_product * non_text_factor,
                                     1e-5, 0.9);
      const double impressions_draw = static_cast<double>(options.base_impressions) *
                                      impression_scale *
                                      std::exp(kImpressionSigma * rng.Gaussian());
      creative.impressions = std::max<int64_t>(200, static_cast<int64_t>(impressions_draw));
      creative.clicks = rng.Binomial(creative.impressions, creative.true_ctr);
      group.creatives.push_back(std::move(creative));
    }
    out.corpus.adgroups.push_back(std::move(group));
  }
  // One aggregate add per counter (not one per adgroup): a single atomic op
  // whose value is a deterministic function of the options, regardless of
  // how generation is ever scheduled.
  static Counter* adgroups_counter =
      MetricRegistry::Global().GetCounter("mb.corpus.adgroups_generated");
  static Counter* creatives_counter =
      MetricRegistry::Global().GetCounter("mb.corpus.creatives_generated");
  adgroups_counter->Increment(static_cast<int64_t>(out.corpus.adgroups.size()));
  creatives_counter->Increment(static_cast<int64_t>(out.corpus.num_creatives()));
  return out;
}

}  // namespace microbrowse
