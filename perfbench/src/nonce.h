// Request nonces shared by perfbench_client and perfbench_layers.

#ifndef PERFBENCH_NONCE_H_
#define PERFBENCH_NONCE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// Placeholder a request template carries where the nonce goes.
inline constexpr std::string_view kNoncePlaceholder = "@NONCE@";

/// A space plus `nonce` in hex over separator characters: the tokenizer
/// splits on (and drops) every one of them, so the nonce changes the
/// request bytes and cache key but not the tokens scored. None needs JSON
/// escaping, and '|' (the snippet line separator) is not among them.
inline std::string NonceText(uint64_t nonce) {
  static constexpr char kDigits[] = ".-,;:!?/()[]+=*#";
  std::string text = " ";
  do {
    text.push_back(kDigits[nonce & 15]);
    nonce >>= 4;
  } while (nonce != 0);
  return text;
}

/// `line` with its placeholder (if any) replaced by NonceText(nonce).
inline std::string ExpandNonce(std::string_view line, uint64_t nonce) {
  const size_t at = line.find(kNoncePlaceholder);
  if (at == std::string_view::npos) return std::string(line);
  return std::string(line.substr(0, at)) + NonceText(nonce) +
         std::string(line.substr(at + kNoncePlaceholder.size()));
}

}  // namespace perfbench

#endif  // PERFBENCH_NONCE_H_
