// What is left of the SIMD dispatch: every columnar loop is one scalar
// loop now, so the level is always kScalar. perfbench records
// SimdLevelName(ActiveSimdLevel()) in its host record; this header goes
// once a [benchmark] change drops that field.
#pragma once

#include <cstdint>

namespace bagc {
namespace simd {

enum class SimdLevel : uint8_t { kScalar };

inline SimdLevel ActiveSimdLevel() { return SimdLevel::kScalar; }

inline const char* SimdLevelName(SimdLevel) { return "scalar"; }

}  // namespace simd
}  // namespace bagc
