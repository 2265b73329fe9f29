// Copyright 2026 The Microbrowse Authors

#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace microbrowse {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(std::count(text.begin(), text.end(), sep)) + 1);
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  // One field per run of non-space bytes: counting the runs first sizes
  // the vector exactly, which matters for token lines kept in a corpus.
  size_t fields = 0;
  bool in_field = false;
  for (const char c : text) {
    const bool field = std::isspace(static_cast<unsigned char>(c)) == 0;
    fields += field && !in_field;
    in_field = field;
  }
  std::vector<std::string> out;
  out.reserve(fields);
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLowerAscii(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatDouble(double value, int digits) {
  return StrFormat("%.*f", digits, value);
}

std::string FormatPercent(double fraction, int digits) {
  return StrFormat("%.*f%%", digits, fraction * 100.0);
}

}  // namespace microbrowse
