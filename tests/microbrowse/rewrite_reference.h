// Copyright 2026 The Microbrowse Authors
//
// Test-only reference implementation of MatchRewrites (microbrowse/
// rewrite.h): the straightforward string-based matcher the production
// index-based matcher is differentially tested against.

#ifndef MICROBROWSE_TESTS_MICROBROWSE_REWRITE_REFERENCE_H_
#define MICROBROWSE_TESTS_MICROBROWSE_REWRITE_REFERENCE_H_

#include "microbrowse/rewrite.h"

namespace microbrowse {

/// Same contract as MatchRewrites, computed the simple way.
PairDiff ReferenceMatchRewrites(const Snippet& r, const Snippet& s, const FeatureStatsDb* db);

}  // namespace microbrowse

#endif  // MICROBROWSE_TESTS_MICROBROWSE_REWRITE_REFERENCE_H_
