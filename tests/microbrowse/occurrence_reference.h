// Copyright 2026 The Microbrowse Authors
//
// Test-only reference for ExtractPairOccurrences (microbrowse/classifier.h):
// the string-keyed feature recipe and the loop that interns every
// occurrence eagerly, computing both statistics warm starts for each one
// and letting Intern discard them for known keys. Kept so the production
// extraction can be differentially tested against it.

#ifndef MICROBROWSE_TESTS_MICROBROWSE_OCCURRENCE_REFERENCE_H_
#define MICROBROWSE_TESTS_MICROBROWSE_OCCURRENCE_REFERENCE_H_

#include <vector>

#include "microbrowse/classifier.h"

namespace microbrowse {

/// Same contract as ExtractPairOccurrences, computed the old way.
void ReferenceExtractPairOccurrences(const Snippet& first, const Snippet& second,
                                     const FeatureStatsDb& db, const ClassifierConfig& config,
                                     FeatureRegistry* t_registry, FeatureRegistry* p_registry,
                                     std::vector<CoupledOccurrence>* occurrences);

}  // namespace microbrowse

#endif  // MICROBROWSE_TESTS_MICROBROWSE_OCCURRENCE_REFERENCE_H_
