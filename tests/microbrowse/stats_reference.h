// Copyright 2026 The Microbrowse Authors
//
// Test-only reference implementation of BuildFeatureStats (microbrowse/
// stats_db.h): the plain serial build the production builder is
// differentially tested against.

#ifndef MICROBROWSE_TESTS_MICROBROWSE_STATS_REFERENCE_H_
#define MICROBROWSE_TESTS_MICROBROWSE_STATS_REFERENCE_H_

#include "microbrowse/stats_db.h"

namespace microbrowse {

/// Same contract as BuildFeatureStats, computed the simple way: one
/// thread, and both matching passes record every key.
FeatureStatsDb ReferenceBuildFeatureStats(const PairCorpus& corpus,
                                          const BuildStatsOptions& options = {});

}  // namespace microbrowse

#endif  // MICROBROWSE_TESTS_MICROBROWSE_STATS_REFERENCE_H_
