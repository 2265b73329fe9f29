// Copyright 2026 The Microbrowse Authors

#include "corpus/pair_extraction.h"

#include "common/math_util.h"
#include "common/trace.h"
#include "corpus/serve_weight.h"

namespace microbrowse {

PairCorpus ExtractSignificantPairs(const AdCorpus& corpus, const PairExtractionOptions& options) {
  TraceSpan span("mb.pairs.extract");
  PairCorpus out;
  for (const auto& group : corpus.adgroups) {
    const std::vector<double> serve_weights = ComputeServeWeights(group);
    int emitted = 0;
    for (size_t i = 0; i < group.creatives.size(); ++i) {
      const Creative& a = group.creatives[i];
      if (a.impressions < options.min_impressions || a.clicks < options.min_clicks) continue;
      for (size_t j = i + 1; j < group.creatives.size(); ++j) {
        if (options.max_pairs_per_adgroup > 0 && emitted >= options.max_pairs_per_adgroup) break;
        const Creative& b = group.creatives[j];
        if (b.impressions < options.min_impressions || b.clicks < options.min_clicks) continue;
        const TwoProportionTest test =
            TwoProportionZTest(a.clicks, a.impressions, b.clicks, b.impressions);
        if (test.p_value >= options.significance_level) continue;

        SnippetPair pair;
        pair.adgroup_id = group.id;
        pair.keyword_id = group.keyword_id;
        pair.r = SnippetObservation{a.snippet, a.impressions, a.clicks, serve_weights[i]};
        pair.s = SnippetObservation{b.snippet, b.impressions, b.clicks, serve_weights[j]};
        out.pairs.push_back(std::move(pair));
        ++emitted;
      }
    }
  }
  return out;
}

}  // namespace microbrowse
