// Little-endian fixed-width integers: the one byte codec behind the
// BAGCSEG segment (docs/SEGMENT.md), the BAGCWAL log (docs/WAL.md) and
// bagcd's binary frames (docs/PROTOCOL.md). Loads assemble bytes from a
// memcpy, never through a pointer cast: offsets in a hostile file or
// frame are arbitrary, so nothing may be assumed aligned (an unaligned
// wide load is UB and traps under UBSan). Callers check bounds first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace bagc {

/// Writes v little-endian at p (unaligned); returns the end.
template <typename T>
char* PutLittleEndian(char* p, T v) {
  static_assert(std::is_unsigned_v<T> && sizeof(T) <= 8);
  for (size_t i = 0; i < sizeof(T); ++i) *p++ = static_cast<char>((v >> (8 * i)) & 0xff);
  return p;
}

/// Appends v little-endian to *out.
template <typename T>
void AppendLittleEndian(std::string* out, T v) {
  char bytes[sizeof(T)];
  PutLittleEndian(bytes, v);
  out->append(bytes, sizeof(T));
}

/// Reads a little-endian T at p (unaligned).
template <typename T>
T LoadLittleEndian(const char* p) {
  static_assert(std::is_unsigned_v<T> && sizeof(T) <= 8);
  unsigned char raw[sizeof(T)];
  std::memcpy(raw, p, sizeof(T));
  // Accumulating in T (not a wider type) lets the compiler fold the
  // loop into one load on a little-endian host.
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(T{raw[i]} << (8 * i));
  return v;
}

}  // namespace bagc
