// Copyright 2026 The Microbrowse Authors

#include "microbrowse/feature_keys.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>

namespace microbrowse {

namespace {

/// "<line>:<bucket>" in decimal, as printf's "%d:%d" spells it, in a stack
/// buffer, so each key is sized exactly before its one allocation (none
/// for keys short enough for the small-string buffer).
class PositionText {
 public:
  explicit PositionText(const PositionKey& position) {
    char* end = std::to_chars(chars_, chars_ + sizeof(chars_), position.line).ptr;
    *end++ = ':';
    end_ = std::to_chars(end, chars_ + sizeof(chars_), position.bucket).ptr;
  }
  std::string_view view() const { return {chars_, static_cast<size_t>(end_ - chars_)}; }

 private:
  char chars_[24];  // Two ints of up to 11 chars each, and the colon.
  char* end_;
};

/// Concatenates `parts` into one string allocated once at its final size.
std::string Concat(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) out.append(part);
  return out;
}

}  // namespace

PositionKey MakePositionKey(int line, int pos) {
  PositionKey key;
  key.line = std::clamp(line, 0, kMaxLineBucket);
  key.bucket = std::clamp(pos, 0, kMaxPosBucket);
  return key;
}

std::string TermKey(std::string_view text) {
  std::string key = "t:";
  key.append(text);
  return key;
}

std::string TermPositionKey(const PositionKey& position) {
  return Concat({"p:", PositionText(position).view()});
}

std::string TermConjunctionKey(std::string_view text, const PositionKey& position) {
  return Concat({"tp:", text, "@", PositionText(position).view()});
}

SignedKey RewriteKey(std::string_view from, std::string_view to) {
  SignedKey out;
  if (to < from) {
    out.key = Concat({kRewriteKeyPrefix, to, "=>", from});
    out.sign = -1.0;
  } else {
    out.key = Concat({kRewriteKeyPrefix, from, "=>", to});
    out.sign = 1.0;
  }
  return out;
}

std::string RewritePositionKey(const PositionKey& r_pos, const PositionKey& s_pos) {
  return Concat({"pp:", PositionText(r_pos).view(), "=>", PositionText(s_pos).view()});
}

std::string_view FeatureKeyBuffer::Term(const Snippet& snippet, const TermSpan& span) {
  key_.assign("t:");
  snippet.AppendSpanText(span, &key_);
  return key_;
}

std::string_view FeatureKeyBuffer::TermConjunction(const Snippet& snippet, const TermSpan& span) {
  key_.assign("tp:");
  snippet.AppendSpanText(span, &key_);
  key_.push_back('@');
  key_.append(PositionText(MakePositionKey(span)).view());
  return key_;
}

std::string_view FeatureKeyBuffer::TermPosition(const PositionKey& position) {
  key_.assign("p:");
  key_.append(PositionText(position).view());
  return key_;
}

std::string_view FeatureKeyBuffer::RewritePosition(const PositionKey& r_pos,
                                                   const PositionKey& s_pos) {
  key_.assign("pp:");
  key_.append(PositionText(r_pos).view());
  key_.append("=>");
  key_.append(PositionText(s_pos).view());
  return key_;
}

std::string_view FeatureKeyBuffer::Position(int index) {
  const auto position = [](int term_index) {
    return PositionKey{term_index / (kMaxPosBucket + 1), term_index % (kMaxPosBucket + 1)};
  };
  if (index < kNumPositions) return TermPosition(position(index));
  return RewritePosition(position(index / kNumPositions - 1), position(index % kNumPositions));
}

std::string_view FeatureKeyBuffer::Rewrite(const Snippet& from, const TermSpan& from_span,
                                           const Snippet& to, const TermSpan& to_span,
                                           double* sign) {
  from_.clear();
  from.AppendSpanText(from_span, &from_);
  to_.clear();
  to.AppendSpanText(to_span, &to_);
  // RewriteKey's order: the texts ascending, the raw order on a tie.
  const bool flipped = to_ < from_;
  *sign = flipped ? -1.0 : 1.0;
  key_.assign(kRewriteKeyPrefix);
  key_.append(flipped ? to_ : from_);
  key_.append("=>");
  key_.append(flipped ? from_ : to_);
  return key_;
}

}  // namespace microbrowse
