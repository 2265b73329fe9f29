// Copyright 2026 The Microbrowse Authors
//
// Hashing utilities shared by the per-pair token dictionary, feature
// registry and statistics database. All hashes are deterministic across
// runs (no per-process salting) so that feature ids are stable in logs and
// tests.

#ifndef MICROBROWSE_COMMON_HASH_H_
#define MICROBROWSE_COMMON_HASH_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace microbrowse {

/// FNV-1a/64's offset basis and prime.
inline constexpr uint64_t kFnv64Basis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv64Prime = 0x100000001b3ULL;

/// 64-bit FNV-1a over a byte string.
inline uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = kFnv64Basis;
  for (unsigned char c : data) {
    h ^= static_cast<uint64_t>(c);
    h *= kFnv64Prime;
  }
  return h;
}

namespace internal {
/// The native-order `Word` at `p` (which need not be aligned), zero-extended.
template <typename Word>
inline uint64_t LoadWord(const char* p) {
  Word w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}
}  // namespace internal

/// FNV-1a/64 folded eight bytes at a time: each little-endian 64-bit word
/// (zero-padded tail) is XORed in and multiplied once, instead of per byte.
/// Not wire-compatible with Fnv1a64 — a distinct checksum function with the
/// same diffusion per multiply but ~8x the throughput, used for bulk
/// payloads (mbpack sections and whole files) and the mbpack index hash,
/// where the serial multiply chain of byte-at-a-time FNV would dominate.
///
/// The tail word of 1..7 bytes is built from whole loads, never a byte-wise
/// copy through the stack (whose store-to-load forwarding stall cost about
/// as much as the rest of a short key's hash): the last eight bytes of the
/// input shifted down when the input has eight, else two overlapping 4-byte
/// loads, else the first, middle and last byte. Every value equals the
/// zero-padded byte copy's.
inline uint64_t Fnv1a64Wide(std::string_view data) {
  using internal::LoadWord;
  uint64_t h = kFnv64Basis;
  const char* p = data.data();
  const size_t size = data.size();
  size_t n = size;
  while (n >= 8) {
    h = (h ^ LoadWord<uint64_t>(p)) * kFnv64Prime;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    uint64_t w = 0;
    if constexpr (std::endian::native != std::endian::little) {
      std::memcpy(&w, p, n);
    } else if (size >= 8) {
      w = LoadWord<uint64_t>(p + n - 8) >> (64 - 8 * n);
    } else if (n >= 4) {
      w = LoadWord<uint32_t>(p) | LoadWord<uint32_t>(p + n - 4) << (8 * (n - 4));
    } else {
      w = LoadWord<uint8_t>(p) | LoadWord<uint8_t>(p + n / 2) << (8 * (n / 2)) |
          LoadWord<uint8_t>(p + n - 1) << (8 * (n - 1));
    }
    // Fold the byte count in with the tail so "abc" and "abc\0" differ.
    h = (h ^ w ^ (static_cast<uint64_t>(n) << 56)) * kFnv64Prime;
  }
  return h;
}

/// Strong 64-bit finalizer (MurmurHash3 fmix64).
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Order-dependent combination of two 64-bit hashes.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

/// Hashes a string then combines it into `seed`.
inline uint64_t HashCombine(uint64_t seed, std::string_view value) {
  return HashCombine(seed, Fnv1a64(value));
}

}  // namespace microbrowse

#endif  // MICROBROWSE_COMMON_HASH_H_
