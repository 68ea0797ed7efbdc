// Runtime-dispatched SIMD kernels for the columnar hot loops.
//
// The engine's inner loops — batch row hashing (ColumnView::HashRows),
// first-probe bucket lookups (ColumnIndex::ProbeAll), and the dense
// group-by key pack (Bag::GroupColumns) — run over contiguous u32/u64
// spans. This header makes their vectorization explicit instead of
// trusting the autovectorizer: each kernel has a scalar reference
// implementation and hand-written SSE4.2/AVX2 (x86) or NEON (arm64)
// variants, selected at runtime from cpuid.
//
// Contract: every variant of a kernel is bit-identical to its scalar
// twin on every input (integer arithmetic only, same per-element
// operation order). tests/simd_kernel_test.cc pins this differentially
// at every level the host supports, and the process-wide level (below)
// forces every path scalar when set to kScalar.
//
// Dispatch: DetectSimdLevel() probes the CPU once; ActiveSimdLevel() is
// the process-wide default (settable, e.g. bagcd --simd scalar).
// Kernels take an explicit SimdLevel; pass kAuto to use the active
// level. Levels the host lacks fall back to the best supported one, so
// a kernel call never executes an unsupported instruction.
//
// Building with -DBAGC_FORCE_SCALAR_SIMD compiles the vector variants
// out entirely (the CI scalar-fallback leg does this, in addition to
// -mno-avx2, proving nothing on the serving path requires them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace bagc {
namespace simd {

/// Instruction-set tiers, ordered by preference within an architecture.
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kSSE42 = 1,  // x86: SSE4.1/4.2 (2-lane u64)
  kAVX2 = 2,   // x86: AVX2 (4-lane u64, 8-lane u32, hardware gather)
  kNEON = 3,   // arm64: Advanced SIMD (2-lane u64, 4-lane u32)
  kAuto = 255, // resolve to ActiveSimdLevel() at the call site
};

/// Best level this host supports (probed once, cached).
SimdLevel DetectSimdLevel();

/// True when `level` can execute on this host (kScalar always can).
bool LevelSupported(SimdLevel level);

/// Process-wide default level; starts at DetectSimdLevel().
SimdLevel ActiveSimdLevel();

/// Sets the process-wide default. kAuto or an unsupported level resets
/// to DetectSimdLevel().
void SetActiveSimdLevel(SimdLevel level);

/// kAuto -> ActiveSimdLevel(); unsupported levels degrade to the best
/// supported one. The result is always directly executable.
SimdLevel Resolve(SimdLevel level);

/// "scalar", "sse4.2", "avx2", "neon", "auto".
const char* SimdLevelName(SimdLevel level);

/// Parses SimdLevelName spellings; returns false on unknown input.
bool ParseSimdLevel(const std::string& name, SimdLevel* out);

// ---- Kernels ----------------------------------------------------------
// All kernels resolve `level` via Resolve() internally, so kAuto and
// unsupported levels are safe to pass.

/// Batch row hash: out[r] = HashSeed(arity) combined (util/hash.h
/// HashCombine order) with cols[0][r], cols[1][r], ..., i.e. exactly
/// Tuple::Hash of row r. Columns are contiguous u32 spans of length n.
/// Vector variants keep the running hash of a row block in registers
/// across all columns (one pass over memory per column, no per-column
/// reload of out[]).
void HashRowsKernel(const uint32_t* const* cols, size_t arity, size_t n,
                    uint64_t* out, SimdLevel level);

/// Max over col[0..n); 0 when n == 0. (The dense group-by range gate.)
uint32_t MaxU32(const uint32_t* col, size_t n, SimdLevel level);

/// keys[r] = uint64(a[r]) * stride + b[r] — the packed radix key of an
/// arity-2 group-by. Caller guarantees the product cannot exceed 64 bits.
void PackKeys2(const uint32_t* a, const uint32_t* b, uint64_t stride,
               size_t n, uint64_t* keys, SimdLevel level);

/// tags[r] = slots[hashes[r] & mask] — the first-probe load of an
/// open-addressing table, batched so the lookups overlap (AVX2 uses
/// hardware gather). `mask` must be < 2^31 (table capacity <= 2^31).
void GatherSlotTags(const uint32_t* slots, uint64_t mask,
                    const uint64_t* hashes, size_t n, uint32_t* tags,
                    SimdLevel level);

}  // namespace simd
}  // namespace bagc
