// Copyright 2026 The Microbrowse Authors
//
// A/B test advisor: the workload from the paper's introduction. An
// advertiser has a live creative and drafts a challenger; before spending
// impressions on an A/B test, the micro-browsing classifier predicts which
// one will win and explains *why* — which rewrites and which positions
// drive the prediction.
//
// The tool trains on a synthetic ADCORPUS (the stand-in for historical
// serving logs), then scores a handful of hand-written creative pairs.
//
// Run:  ./ab_test_advisor [num_adgroups]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <cstdlib>
#include <string>
#include <vector>

#include "eval/experiments.h"
#include "microbrowse/classifier.h"
#include "microbrowse/feature_keys.h"

using namespace microbrowse;

namespace {

struct Draft {
  const char* description;
  std::vector<std::string> incumbent;
  std::vector<std::string> challenger;
};

void Advise(const Draft& draft, const FeatureStatsDb& db, const CoupledDataset& dataset,
            const SnippetClassifierModel& model, const ClassifierConfig& config) {
  const Snippet incumbent = Snippet::FromLines(draft.incumbent);
  const Snippet challenger = Snippet::FromLines(draft.challenger);

  // Score the (challenger, incumbent) presentation: positive score means
  // the challenger is predicted to win. This is the margin mbserved answers
  // for the same pair.
  const double score = PredictPairMargin(challenger, incumbent, db, config, model,
                                         dataset.t_registry, dataset.p_registry);

  std::printf("--- %s\n", draft.description);
  std::printf("  incumbent : %s\n", incumbent.ToString().c_str());
  std::printf("  challenger: %s\n", challenger.ToString().c_str());
  std::printf("  verdict   : challenger %s (score %+.3f)\n",
              score >= 0 ? "FAVOURED" : "not favoured", score);

  // Explanation: the highest-|net contribution| features (occurrences of
  // the same feature are aggregated, so shared content cancels out). The
  // occurrences are interned into copies of the registries so they can be
  // named; features new to the model take their warm start, exactly as in
  // the verdict, so the drivers add up to it.
  FeatureRegistry t_registry = dataset.t_registry;
  FeatureRegistry p_registry = dataset.p_registry;
  std::vector<CoupledOccurrence> occurrences;
  ExtractPairOccurrences(challenger, incumbent, db, config, &t_registry, &p_registry,
                         &occurrences);
  struct Contribution {
    std::string what;
    double value;
  };
  std::map<std::string, double> net;
  for (const auto& occ : occurrences) {
    const double t = occ.t < model.t_weights.size() ? model.t_weights[occ.t]
                                                    : t_registry.InitialWeightOf(occ.t);
    double p = 1.0;
    if (occ.p != kInvalidFeatureId) {
      p = occ.p < model.p_weights.size() ? model.p_weights[occ.p]
                                         : p_registry.InitialWeightOf(occ.p);
    }
    const double value = occ.sign * p * t;
    if (value == 0.0) continue;
    std::string what(t_registry.NameOf(occ.t));
    if (occ.p != kInvalidFeatureId) {
      what += " @ ";
      what += p_registry.NameOf(occ.p);
    }
    net[what] += value;
  }
  std::vector<Contribution> contributions;
  for (auto& [what, value] : net) {
    if (std::fabs(value) > 1e-9) contributions.push_back({what, value});
  }
  std::sort(contributions.begin(), contributions.end(),
            [](const Contribution& a, const Contribution& b) {
              return std::fabs(a.value) > std::fabs(b.value);
            });
  std::printf("  drivers   :\n");
  for (size_t i = 0; i < contributions.size() && i < 5; ++i) {
    std::printf("    %+.3f  %s\n", contributions[i].value, contributions[i].what.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentOptions options;
  options.num_adgroups = argc > 1 ? std::atoi(argv[1]) : 3000;
  options.Normalize();

  std::printf("training the M6 snippet classifier on %d synthetic adgroups...\n",
              options.num_adgroups);
  auto pairs = MakePairCorpus(options, Placement::kTop);
  if (!pairs.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n", pairs.status().ToString().c_str());
    return 1;
  }
  const FeatureStatsDb db = BuildFeatureStats(*pairs, options.pipeline.stats);
  const ClassifierConfig config = ClassifierConfig::M6();
  const CoupledDataset dataset = BuildClassifierDataset(*pairs, db, config, options.seed);
  auto model = TrainSnippetClassifier(dataset, config);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("trained on %zu pairs (%zu relevance features, %zu position features)\n\n",
              dataset.examples.size(), dataset.t_registry.size(), dataset.p_registry.size());

  const std::vector<Draft> drafts = {
      {"swap a weak action for a strong one",
       {"jetscout", "browse flights to paris", "free cancellation and 20% off"},
       {"jetscout", "save big on flights to paris", "free cancellation and 20% off"}},
      {"move the offer into the headline (position-only change)",
       {"jetscout", "find cheap flights to paris", "free cancellation and 20% off"},
       {"jetscout and 20% off", "find cheap flights to paris", "free cancellation"}},
      {"downgrade the quality claim",
       {"skyjet deals", "compare flights to rome", "free cancellation and fares from $39"},
       {"skyjet deals", "compare flights to rome", "24 7 support and fares from $39"}},
  };
  for (const Draft& draft : drafts) Advise(draft, db, dataset, *model, config);

  std::printf("Note: the verdicts come from a model trained on synthetic serving\n"
              "logs; with real logs the same code advises on real creatives.\n");
  return 0;
}
