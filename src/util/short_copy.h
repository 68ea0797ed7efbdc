// A copy for the short strings the wire codec moves one at a time:
// dictionary values are a few bytes each, and a library memcpy call per
// value costs more than the bytes it moves. Lengths up to 16 take two
// overlapping loads and stores, which stay inside [src, src + n) and
// [dst, dst + n); longer ones go to memcpy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace bagc {

/// Copies n bytes from src to dst (non-overlapping); returns dst + n.
inline char* CopyShort(char* dst, const char* src, size_t n) {
  if (n >= 4 && n <= 8) {
    uint32_t head, tail;
    std::memcpy(&head, src, 4);
    std::memcpy(&tail, src + n - 4, 4);
    std::memcpy(dst, &head, 4);
    std::memcpy(dst + n - 4, &tail, 4);
  } else if (n > 8 && n <= 16) {
    uint64_t head, tail;
    std::memcpy(&head, src, 8);
    std::memcpy(&tail, src + n - 8, 8);
    std::memcpy(dst, &head, 8);
    std::memcpy(dst + n - 8, &tail, 8);
  } else if (n > 0 && n < 4) {
    dst[0] = src[0];
    dst[n / 2] = src[n / 2];
    dst[n - 1] = src[n - 1];
  } else if (n > 16) {
    std::memcpy(dst, src, n);
  }
  return dst + n;
}

}  // namespace bagc
