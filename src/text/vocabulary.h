// Copyright 2026 The Microbrowse Authors
//
// String interning: a Vocabulary maps strings to dense ids and back.

#ifndef MICROBROWSE_TEXT_VOCABULARY_H_
#define MICROBROWSE_TEXT_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace microbrowse {

/// Dense id for an interned string.
using TermId = uint32_t;

/// Sentinel returned by Find for unknown strings.
inline constexpr TermId kInvalidTermId = static_cast<TermId>(-1);

/// Bidirectional string <-> dense-id map. Ids are assigned in insertion
/// order starting at 0. Not thread-safe for concurrent mutation.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Returns the id for `term`, interning it if new.
  TermId Intern(std::string_view term);

  /// Returns the id for `term`, or kInvalidTermId when absent.
  TermId Find(std::string_view term) const;

  /// True iff `term` has been interned.
  bool Contains(std::string_view term) const { return Find(term) != kInvalidTermId; }

  /// The string for `id`. `id` must be a valid id from this vocabulary.
  const std::string& TermOf(TermId id) const { return terms_[id]; }

  /// Number of distinct interned strings.
  size_t size() const { return terms_.size(); }
  bool empty() const { return terms_.empty(); }

 private:
  std::unordered_map<std::string, TermId> index_;
  std::vector<std::string> terms_;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_TEXT_VOCABULARY_H_
