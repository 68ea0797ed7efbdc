// Hashing helpers for composite keys (tuples, schemas).
//
// The constants below are THE hash definition for the whole engine: the
// row path (Tuple::Hash via HashRange) and the columnar path
// (ColumnView::HashRows) combine with the same seed and mixer, so indexes
// built on one path answer probes hashed on another. Change them here or
// nowhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace bagc {

/// splitmix64 increment; also the combine offset in HashCombine.
inline constexpr uint64_t kHashMixC1 = 0x9e3779b97f4a7c15ULL;
/// splitmix64 multipliers.
inline constexpr uint64_t kHashMixC2 = 0xbf58476d1ce4e5b9ULL;
inline constexpr uint64_t kHashMixC3 = 0x94d049bb133111ebULL;
/// Base of the per-arity range seed (HashSeed below).
inline constexpr uint64_t kHashSeedBase = 0x5bf03635u;

/// Initial seed for hashing a sequence of `arity` values. Both HashRange
/// and the batch columnar hash start from this.
inline constexpr uint64_t HashSeed(size_t arity) {
  return kHashSeedBase ^ static_cast<uint64_t>(arity);
}

/// 64-bit mix (splitmix64 finalizer) — decorrelates consecutive integers.
inline uint64_t Mix64(uint64_t x) {
  x += kHashMixC1;
  x = (x ^ (x >> 30)) * kHashMixC2;
  x = (x ^ (x >> 27)) * kHashMixC3;
  return x ^ (x >> 31);
}

/// Combines a new value into a running hash seed.
inline void HashCombine(uint64_t* seed, uint64_t v) {
  *seed ^= Mix64(v) + kHashMixC1 + (*seed << 6) + (*seed >> 2);
}

/// Order-sensitive hash of a vector of integer-like values.
template <typename T>
uint64_t HashRange(const std::vector<T>& values) {
  uint64_t seed = HashSeed(values.size());
  for (const T& v : values) HashCombine(&seed, static_cast<uint64_t>(v));
  return seed;
}

}  // namespace bagc
