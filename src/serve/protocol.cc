// Copyright 2026 The Microbrowse Authors

#include "serve/protocol.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace microbrowse {
namespace serve {

namespace {

/// Cursor over the request line with one-token-lookahead helpers. All
/// errors funnel through Error() so messages carry the byte offset.
/// Decoded keys and values land in the caller's arena: unescaped spans are
/// memcpy'd verbatim, escaped strings are validated in place first and then
/// decoded into an arena buffer sized by the raw span (the decoded form is
/// never longer), so a warm scratch Request parses with zero allocations.
class Parser {
 public:
  Parser(std::string_view text, Arena* arena,
         std::vector<std::pair<std::string_view, std::string_view>>* fields)
      : text_(text), arena_(arena), fields_(fields) {}

  Status Parse() {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    SkipSpace();
    if (Consume('}')) return Finish();
    for (;;) {
      SkipSpace();
      std::string_view key;
      if (auto status = ParseString(&key); !status.ok()) return status;
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipSpace();
      std::string_view value;
      if (auto status = ParseValue(&value); !status.ok()) return status;
      AddField(key, value);
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return Finish();
      return Error("expected ',' or '}'");
    }
  }

 private:
  Status Finish() {
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters after object");
    return Status::OK();
  }

  /// Last value wins for duplicate keys, with one entry kept — the same
  /// observable behavior as the map-backed Request this replaced.
  void AddField(std::string_view key, std::string_view value) {
    for (auto& field : *fields_) {
      if (field.first == key) {
        field.second = value;
        return;
      }
    }
    fields_->emplace_back(key, value);
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("bad request at byte %zu: %s", pos_, what.c_str()));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(std::string_view* out) {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '"') return ParseString(out);
    if (c == '{' || c == '[') return Error("nested values are not supported");
    // Bare literal: number, true, false, null. Take the maximal run of
    // literal characters and validate it.
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ' ' && text_[pos_] != '\t') {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token == "true" || token == "false" || token == "null") {
      *out = arena_->Dup(token);
      return Status::OK();
    }
    // strtod needs a terminated buffer; the arena copy doubles as the value.
    char* copy = arena_->Allocate(token.size() + 1);
    std::memcpy(copy, token.data(), token.size());
    copy[token.size()] = '\0';
    char* end = nullptr;
    std::strtod(copy, &end);
    if (token.empty() || end != copy + token.size()) {
      return Error("invalid literal '" + std::string(token) + "'");
    }
    *out = std::string_view(copy, token.size());
    return Status::OK();
  }

  /// Validation pass: scans to the closing quote with exactly the original
  /// error positions/messages, then either aliases the raw span (no
  /// escapes) or decodes it into the arena.
  Status ParseString(std::string_view* out) {
    if (!Consume('"')) return Error("expected '\"'");
    const size_t start = pos_;
    bool has_escape = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        const std::string_view raw = text_.substr(start, pos_ - 1 - start);
        *out = has_escape ? Decode(raw) : arena_->Dup(raw);
        return Status::OK();
      }
      if (c != '\\') continue;
      has_escape = true;
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': case '\\': case '/': case 'b':
        case 'f': case 'n': case 'r': case 't':
          break;
        case 'u': {
          if (auto status = CheckUnicodeEscape(); !status.ok()) return status;
          break;
        }
        default:
          return Error(StrFormat("invalid escape '\\%c'", esc));
      }
    }
    return Error("unterminated string");
  }

  Status CheckUnicodeEscape() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      const bool hex = (h >= '0' && h <= '9') || (h >= 'a' && h <= 'f') ||
                       (h >= 'A' && h <= 'F');
      if (!hex) return Error("invalid \\u escape digit");
    }
    return Status::OK();
  }

  /// Decodes an already-validated raw string body into the arena. The
  /// decoded form never exceeds the raw length (every escape shrinks).
  std::string_view Decode(std::string_view raw) {
    char* buffer = arena_->Allocate(raw.size());
    size_t len = 0;
    size_t i = 0;
    while (i < raw.size()) {
      const char c = raw[i++];
      if (c != '\\') {
        buffer[len++] = c;
        continue;
      }
      const char esc = raw[i++];
      switch (esc) {
        case '"': buffer[len++] = '"'; break;
        case '\\': buffer[len++] = '\\'; break;
        case '/': buffer[len++] = '/'; break;
        case 'b': buffer[len++] = '\b'; break;
        case 'f': buffer[len++] = '\f'; break;
        case 'n': buffer[len++] = '\n'; break;
        case 'r': buffer[len++] = '\r'; break;
        case 't': buffer[len++] = '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int d = 0; d < 4; ++d) {
            const char h = raw[i++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else code |= static_cast<unsigned>(h - 'A' + 10);
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as individual units — snippet text is ASCII-tokenized anyway).
          if (code < 0x80) {
            buffer[len++] = static_cast<char>(code);
          } else if (code < 0x800) {
            buffer[len++] = static_cast<char>(0xC0 | (code >> 6));
            buffer[len++] = static_cast<char>(0x80 | (code & 0x3F));
          } else {
            buffer[len++] = static_cast<char>(0xE0 | (code >> 12));
            buffer[len++] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            buffer[len++] = static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: break;  // Unreachable: the scan pass rejected it.
      }
    }
    return std::string_view(buffer, len);
  }

  std::string_view text_;
  Arena* arena_;
  std::vector<std::pair<std::string_view, std::string_view>>* fields_;
  size_t pos_ = 0;
};

}  // namespace

Status ParseRequestInto(std::string_view line, Request* out) {
  out->fields.clear();
  out->arena_.Reset();
  Status status = Parser(line, &out->arena_, &out->fields).Parse();
  if (!status.ok()) {
    out->fields.clear();
    out->arena_.Reset();
  }
  return status;
}

Result<Request> ParseRequest(std::string_view line) {
  Request request;
  if (auto status = ParseRequestInto(line, &request); !status.ok()) {
    return status;
  }
  return request;
}

void JsonEscapeTo(std::string_view text, std::string* out) {
  for (const char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  JsonEscapeTo(text, &out);
  return out;
}

void JsonWriter::Key(std::string_view key) {
  if (!body_.empty()) body_.push_back(',');
  body_.push_back('"');
  JsonEscapeTo(key, &body_);
  body_ += "\":";
}

JsonWriter& JsonWriter::String(std::string_view key, std::string_view value) {
  Key(key);
  body_.push_back('"');
  JsonEscapeTo(value, &body_);
  body_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Number(std::string_view key, double value) {
  Key(key);
  if (std::isfinite(value)) {
    // Shortest round-trip representation: a client parsing the field gets
    // the bit-identical double back, so server-side scores match local
    // batch scoring exactly (the serve-vs-batch parity check relies on
    // this).
    char buffer[32];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    body_.append(buffer, end);
  } else {
    body_ += "null";  // JSON has no Inf/NaN literals.
  }
  return *this;
}

JsonWriter& JsonWriter::Int(std::string_view key, int64_t value) {
  Key(key);
  body_ += StrFormat("%lld", static_cast<long long>(value));
  return *this;
}

JsonWriter& JsonWriter::Bool(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace serve
}  // namespace microbrowse
