// The one checksum of the on-disk formats: XXH64 (seed 0), the 64-bit
// xxHash of Yann Collet, implemented from its published specification.
// BAGCSEG stamps it over the segment body and BAGCWAL over each record
// payload, so the WAL's base-segment fingerprint and the segment header
// checksum are one algorithm. It catches truncation and bit rot, not
// adversaries: both readers validate structure independently of it.
// ValueDictionary also keys its value index with it: inlined, it beats
// an out-of-line string hash on the short values dictionaries hold.
//
// Four 64-bit lanes consume 32-byte stripes, so the loop runs at memory
// bandwidth instead of one multiply per byte. Inputs are read with
// memcpy (no alignment is assumed) and interpreted little-endian, which
// is what the published test vectors (tests/util_test.cc) pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace bagc {

namespace xxh64_internal {

inline constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Read64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

inline uint64_t Read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  return Rotl(acc, 31) * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace xxh64_internal

/// XXH64 of `n` bytes at `data` with seed 0.
inline uint64_t Xxh64(const void* data, size_t n) {
  using namespace xxh64_internal;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  uint64_t h;
  if (n >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    const unsigned char* const last_stripe = end - 32;
    do {
      v1 = Round(v1, Read64(p));
      v2 = Round(v2, Read64(p + 8));
      v3 = Round(v3, Read64(p + 16));
      v4 = Round(v4, Read64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = kPrime5;
  }
  h += static_cast<uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, Read64(p));
    h = Rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= Read32(p) * kPrime1;
    h = Rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= uint64_t{*p} * kPrime5;
    h = Rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace bagc
