// Copyright 2026 The Microbrowse Authors
//
// The command-line flag parser of mbctl and mbserved. Each command
// declares its recognised flags up front: unknown flags, missing values,
// non-numeric and out-of-range integers are hard errors rather than
// silently ignored, read as zero or saturated. A value flag is spelled
// either "--flag value" or "--flag=value".

#ifndef MICROBROWSE_TOOLS_MBCTL_FLAGS_H_
#define MICROBROWSE_TOOLS_MBCTL_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace microbrowse {

class Flags {
 public:
  /// Parses argv[first..] against the declared flags (mbctl's flags follow
  /// its command word, so it passes 2; mbserved passes 1). `value_flags`
  /// take the text after '=' in "--flag=value", and otherwise always
  /// consume the next argument (so negative numbers like "--seed -5" are
  /// values, not flags); `bool_flags` never take a value.
  static Result<Flags> Parse(int argc, char** argv, int first,
                             std::initializer_list<const char*> value_flags,
                             std::initializer_list<const char*> bool_flags) {
    const auto contains = [](std::initializer_list<const char*> list,
                             const std::string& key) {
      for (const char* entry : list) {
        if (key == entry) return true;
      }
      return false;
    };
    Flags flags;
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!StartsWith(arg, "--")) {
        return Status::InvalidArgument("unexpected argument '" + arg +
                                       "' (flags start with --)");
      }
      const size_t eq = arg.find('=');
      const bool inline_value = eq != std::string::npos;
      const std::string key = arg.substr(0, eq);
      if (contains(bool_flags, key)) {
        if (inline_value) return Status::InvalidArgument("flag " + key + " takes no value");
        flags.values_.insert_or_assign(key, std::string("1"));
        continue;
      }
      if (contains(value_flags, key)) {
        if (inline_value ? eq + 1 == arg.size() : i + 1 >= argc) {
          return Status::InvalidArgument("flag " + key + " requires a value");
        }
        flags.values_.insert_or_assign(key, inline_value ? arg.substr(eq + 1)
                                                         : std::string(argv[++i]));
        continue;
      }
      return Status::InvalidArgument("unknown flag '" + key + "'");
    }
    return flags;
  }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }

  /// Integer flag with full validation: "ten", "5x" and out-of-range values
  /// are InvalidArgument, never a silent 0.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback,
                         int64_t min = std::numeric_limits<int64_t>::min(),
                         int64_t max = std::numeric_limits<int64_t>::max()) const {
    const std::string value = Get(key);
    if (value.empty()) return fallback;
    int64_t parsed = 0;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), parsed);
    const bool whole = ptr == value.data() + value.size();
    if (whole && ec == std::errc::result_out_of_range) {
      return Status::InvalidArgument(StrFormat(
          "flag %s out of range: %s (allowed [%lld, %lld])", key.c_str(), value.c_str(),
          static_cast<long long>(min), static_cast<long long>(max)));
    }
    if (ec != std::errc() || !whole) {
      return Status::InvalidArgument("flag " + key + " expects an integer, got '" + value +
                                     "'");
    }
    if (parsed < min || parsed > max) {
      return Status::InvalidArgument(
          StrFormat("flag %s out of range: %lld (allowed [%lld, %lld])", key.c_str(),
                    static_cast<long long>(parsed), static_cast<long long>(min),
                    static_cast<long long>(max)));
    }
    return parsed;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  Flags() = default;

  std::map<std::string, std::string> values_;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_TOOLS_MBCTL_FLAGS_H_
