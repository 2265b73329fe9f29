// Copyright 2026 The Microbrowse Authors
//
// Rewrite mining: phase one of the paper's pipeline as a standalone
// analysis. Builds the feature-statistics database over a corpus of
// creative pairs and prints the strongest rewrites ("changing X to Y
// raises CTR"), the strongest single terms, and the position statistics —
// the kind of report an advertiser tooling team would ship.
//
// Run:  ./rewrite_mining [num_adgroups]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "eval/experiments.h"
#include "microbrowse/stats_db.h"

using namespace microbrowse;

namespace {

struct Entry {
  std::string key;
  FeatureStat stat;
};

std::vector<Entry> TopByPrefix(const FeatureStatsDb& db, const std::string& prefix,
                               int64_t min_count, size_t top_n, bool ascending) {
  std::vector<Entry> entries;
  // ForEach reads both layers, so a pack-backed database lists its keys too.
  db.ForEach([&](std::string_view key, const FeatureStat& stat) {
    if (StartsWith(key, prefix) && stat.total >= min_count) {
      entries.push_back({std::string(key), stat});
    }
  });
  // Equal probabilities fall back to key order, so the report does not
  // depend on the database's storage order.
  std::sort(entries.begin(), entries.end(), [&](const Entry& a, const Entry& b) {
    const double pa = a.stat.SmoothedP();
    const double pb = b.stat.SmoothedP();
    if (pa != pb) return ascending ? pa < pb : pa > pb;
    return a.key < b.key;
  });
  if (entries.size() > top_n) entries.resize(top_n);
  return entries;
}

void PrintEntries(const char* title, const std::vector<Entry>& entries) {
  std::printf("%s\n", title);
  for (const auto& entry : entries) {
    std::printf("  p(+)=%.3f  odds=%5.2f  n=%5lld  %s\n", entry.stat.SmoothedP(),
                entry.stat.OddsRatio(), static_cast<long long>(entry.stat.total),
                entry.key.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentOptions options;
  options.num_adgroups = argc > 1 ? std::atoi(argv[1]) : 3000;
  options.Normalize();

  auto pairs = MakePairCorpus(options, Placement::kTop);
  if (!pairs.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n", pairs.status().ToString().c_str());
    return 1;
  }
  std::printf("mining %zu significant creative pairs...\n\n", pairs->pairs.size());
  const FeatureStatsDb db = BuildFeatureStats(*pairs, options.pipeline.stats);
  std::printf("statistics database: %zu features\n\n", db.size());

  // Direction-aware display for rewrites: a canonical key "rw:a=>b" with
  // p(+) far below 0.5 means b=>a is the improving direction.
  PrintEntries("STRONGEST IMPROVING REWRITES (canonical direction, min 10 observations):",
               TopByPrefix(db, "rw:", 10, 12, /*ascending=*/false));
  PrintEntries("STRONGEST DEGRADING REWRITES (i.e., the reverse direction improves):",
               TopByPrefix(db, "rw:", 10, 12, /*ascending=*/true));
  PrintEntries("TERMS MOST ASSOCIATED WITH WINNING CREATIVES:",
               TopByPrefix(db, "t:", 25, 12, /*ascending=*/false));
  PrintEntries("TERMS MOST ASSOCIATED WITH LOSING CREATIVES:",
               TopByPrefix(db, "t:", 25, 12, /*ascending=*/true));
  PrintEntries("REWRITE POSITION PAIRS (r-side position => s-side position):",
               TopByPrefix(db, "pp:", 30, 10, /*ascending=*/false));
  return 0;
}
