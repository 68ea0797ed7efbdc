// Differential suite for the SIMD dispatch layer (util/simd.h): every
// kernel is compared bit-for-bit against its scalar twin at every
// dispatch level the host supports, on randomized and adversarial
// inputs (empty, single row, vector-width boundaries, all-equal keys,
// UINT32_MAX ids). The higher-level batch surfaces that dispatch into
// the kernels — ColumnView::HashRows, ColumnIndex::ProbeAll, and
// Bag::GroupColumns — get the same treatment, so a vector variant that
// diverges from the scalar semantics fails here before it can skew a
// marginal. CI reruns this label under ASan/UBSan and in the
// forced-scalar (-mno-avx2 + BAGC_FORCE_SCALAR_SIMD) build, where the
// level list collapses to kScalar and the suite pins the twin itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bag/bag.h"
#include "tuple/column_store.h"
#include "tuple/column_index.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/simd.h"

namespace bagc {
namespace {

using simd::SimdLevel;

// Every level this host can execute, kScalar (the reference) first.
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (SimdLevel level :
       {SimdLevel::kSSE42, SimdLevel::kAVX2, SimdLevel::kNEON}) {
    if (simd::LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

// The sizes worth probing: empty, scalar tail only, exact vector widths
// for every lane count in use (2/4/8), one past them, and a bulk run.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 1000};

std::vector<uint32_t> RandomColumn(Rng* rng, size_t n, uint32_t limit) {
  std::vector<uint32_t> col(n);
  for (uint32_t& v : col) v = static_cast<uint32_t>(rng->Next() % (limit + 1ull));
  return col;
}

TEST(SimdKernelTest, DetectionIsConsistent) {
  SimdLevel best = simd::DetectSimdLevel();
  EXPECT_TRUE(simd::LevelSupported(best));
  EXPECT_TRUE(simd::LevelSupported(SimdLevel::kScalar));
  // Resolve never returns something the host cannot run.
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSSE42, SimdLevel::kAVX2,
        SimdLevel::kNEON, SimdLevel::kAuto}) {
    EXPECT_TRUE(simd::LevelSupported(simd::Resolve(level)))
        << simd::SimdLevelName(level);
  }
  // Name <-> parse round trip.
  for (SimdLevel level : SupportedLevels()) {
    SimdLevel parsed;
    ASSERT_TRUE(simd::ParseSimdLevel(simd::SimdLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  SimdLevel parsed;
  EXPECT_FALSE(simd::ParseSimdLevel("avx512-of-the-future", &parsed));
}

TEST(SimdKernelTest, HashRowsKernelMatchesScalarTwinAndTupleHash) {
  Rng rng(0x51D0001);
  for (size_t arity : {1u, 2u, 3u, 4u}) {
    for (size_t n : kSizes) {
      std::vector<std::vector<uint32_t>> cols(arity);
      std::vector<const uint32_t*> ptrs(arity);
      for (size_t c = 0; c < arity; ++c) {
        cols[c] = RandomColumn(&rng, n, 1u << 20);
        ptrs[c] = cols[c].data();
      }
      std::vector<uint64_t> reference(n);
      simd::HashRowsKernel(ptrs.data(), arity, n, reference.data(),
                           SimdLevel::kScalar);
      // The scalar twin IS Tuple::Hash (HashRange over HashSeed(arity)).
      for (size_t r = 0; r < n; ++r) {
        uint64_t seed = HashSeed(arity);
        for (size_t c = 0; c < arity; ++c) HashCombine(&seed, cols[c][r]);
        ASSERT_EQ(reference[r], seed) << "row " << r;
      }
      for (SimdLevel level : SupportedLevels()) {
        std::vector<uint64_t> out(n, 0xDEAD);
        simd::HashRowsKernel(ptrs.data(), arity, n, out.data(), level);
        ASSERT_EQ(out, reference)
            << simd::SimdLevelName(level) << " arity " << arity << " n " << n;
      }
    }
  }
}

TEST(SimdKernelTest, HashRowsKernelAdversarialValues) {
  // All-equal rows and saturated ids: the cases where a lane mixup or a
  // 32/64-bit truncation in a vector variant would still look plausible.
  for (uint32_t value : {0u, 1u, std::numeric_limits<uint32_t>::max()}) {
    for (size_t n : kSizes) {
      std::vector<uint32_t> col(n, value);
      const uint32_t* ptr = col.data();
      std::vector<uint64_t> reference(n);
      simd::HashRowsKernel(&ptr, 1, n, reference.data(), SimdLevel::kScalar);
      for (SimdLevel level : SupportedLevels()) {
        std::vector<uint64_t> out(n);
        simd::HashRowsKernel(&ptr, 1, n, out.data(), level);
        ASSERT_EQ(out, reference) << simd::SimdLevelName(level) << " n " << n;
      }
    }
  }
}

TEST(SimdKernelTest, MaxU32MatchesScalarTwin) {
  Rng rng(0x51D0002);
  for (size_t n : kSizes) {
    std::vector<std::vector<uint32_t>> cases;
    cases.push_back(RandomColumn(&rng, n, std::numeric_limits<uint32_t>::max()));
    cases.push_back(std::vector<uint32_t>(n, 7));  // all equal
    if (n > 0) {
      // Max at the head, the tail, and mid-block (straddling the tail
      // loop of every lane width).
      std::vector<uint32_t> head(n, 3);
      head.front() = std::numeric_limits<uint32_t>::max();
      cases.push_back(std::move(head));
      std::vector<uint32_t> tail(n, 3);
      tail.back() = std::numeric_limits<uint32_t>::max();
      cases.push_back(std::move(tail));
      std::vector<uint32_t> mid(n, 3);
      mid[n / 2] = 0xFFFFFFF0u;
      cases.push_back(std::move(mid));
    }
    for (const std::vector<uint32_t>& col : cases) {
      uint32_t reference = simd::MaxU32(col.data(), n, SimdLevel::kScalar);
      uint32_t expected = 0;
      for (uint32_t v : col) expected = v > expected ? v : expected;
      ASSERT_EQ(reference, expected);
      for (SimdLevel level : SupportedLevels()) {
        ASSERT_EQ(simd::MaxU32(col.data(), n, level), reference)
            << simd::SimdLevelName(level) << " n " << n;
      }
    }
  }
}

TEST(SimdKernelTest, PackKeys2MatchesScalarTwin) {
  Rng rng(0x51D0003);
  // Strides exercising the 64-bit multiply decomposition (AVX2 has no
  // u64 mullo): small, one past u32, and wide enough that the high half
  // of the product is load-bearing.
  const uint64_t strides[] = {1, 5, 1u << 16, (1ull << 32) + 3, 1ull << 33};
  for (uint64_t stride : strides) {
    for (size_t n : kSizes) {
      std::vector<uint32_t> a = RandomColumn(&rng, n, (1u << 30) - 1);
      std::vector<uint32_t> b = RandomColumn(&rng, n, 1u << 20);
      std::vector<uint64_t> reference(n);
      simd::PackKeys2(a.data(), b.data(), stride, n, reference.data(),
                      SimdLevel::kScalar);
      for (size_t r = 0; r < n; ++r) {
        ASSERT_EQ(reference[r], static_cast<uint64_t>(a[r]) * stride + b[r]);
      }
      for (SimdLevel level : SupportedLevels()) {
        std::vector<uint64_t> out(n, 0xDEAD);
        simd::PackKeys2(a.data(), b.data(), stride, n, out.data(), level);
        ASSERT_EQ(out, reference)
            << simd::SimdLevelName(level) << " stride " << stride << " n " << n;
      }
    }
  }
}

TEST(SimdKernelTest, GatherSlotTagsMatchesScalarTwin) {
  Rng rng(0x51D0004);
  for (size_t capacity : {1u, 2u, 16u, 1024u}) {
    const uint64_t mask = capacity - 1;
    std::vector<uint32_t> slots =
        RandomColumn(&rng, capacity, std::numeric_limits<uint32_t>::max());
    for (size_t n : kSizes) {
      std::vector<uint64_t> hashes(n);
      for (uint64_t& h : hashes) h = rng.Next();
      if (n > 2) {
        hashes[0] = 0;                                       // slot 0
        hashes[1] = std::numeric_limits<uint64_t>::max();    // top slot
        hashes[2] = hashes[n - 1];                           // duplicate
      }
      std::vector<uint32_t> reference(n);
      simd::GatherSlotTags(slots.data(), mask, hashes.data(), n,
                           reference.data(), SimdLevel::kScalar);
      for (size_t r = 0; r < n; ++r) {
        ASSERT_EQ(reference[r], slots[hashes[r] & mask]);
      }
      for (SimdLevel level : SupportedLevels()) {
        std::vector<uint32_t> tags(n, 0xDEAD);
        simd::GatherSlotTags(slots.data(), mask, hashes.data(), n, tags.data(),
                             level);
        ASSERT_EQ(tags, reference)
            << simd::SimdLevelName(level) << " capacity " << capacity << " n "
            << n;
      }
    }
  }
}

// ---- dispatched batch surfaces ---------------------------------------

ColumnStore RandomStore(Rng* rng, size_t rows, size_t arity, uint32_t limit) {
  std::vector<ValueId> data(rows * arity);
  for (ValueId& v : data) v = static_cast<ValueId>(rng->Next() % (limit + 1ull));
  return ColumnStore::FromColumnMajor(std::move(data), rows, arity);
}

TEST(SimdKernelTest, ColumnViewHashRowsMatchesTupleHashAtEveryLevel) {
  Rng rng(0x51D0005);
  for (size_t arity : {1u, 2u, 3u}) {
    ColumnStore store = RandomStore(&rng, 257, arity, 1u << 16);
    std::vector<uint64_t> reference;
    store.View().HashRows(&reference, SimdLevel::kScalar);
    ASSERT_EQ(reference.size(), store.num_rows());
    for (size_t r = 0; r < store.num_rows(); ++r) {
      ASSERT_EQ(reference[r], store.RowAt(r).Hash()) << "row " << r;
    }
    for (SimdLevel level : SupportedLevels()) {
      std::vector<uint64_t> out;
      store.View().HashRows(&out, level);
      ASSERT_EQ(out, reference) << simd::SimdLevelName(level);
    }
  }
}

TEST(SimdKernelTest, ColumnIndexProbeAllMatchesScalarIndexAtEveryLevel) {
  Rng rng(0x51D0006);
  // A small id domain forces dense groups and hash collisions; probes
  // mix present and absent rows.
  ColumnStore keys = RandomStore(&rng, 500, 2, 12);
  ColumnStore probes = RandomStore(&rng, 700, 2, 16);
  ColumnIndex scalar_index(keys.View(), SimdLevel::kScalar);
  std::vector<uint32_t> reference;
  scalar_index.ProbeAll(probes.View(), &reference);
  for (SimdLevel level : SupportedLevels()) {
    ColumnIndex index(keys.View(), level);
    ASSERT_EQ(index.NumGroups(), scalar_index.NumGroups())
        << simd::SimdLevelName(level);
    std::vector<uint32_t> out;
    index.ProbeAll(probes.View(), &out);
    ASSERT_EQ(out, reference) << simd::SimdLevelName(level);
  }
}

TEST(SimdKernelTest, GroupColumnsBitIdenticalAcrossLevels) {
  Rng rng(0x51D0007);
  AttributeCatalog catalog;
  Schema z1{catalog.Intern("A")};
  Schema z2{catalog.Intern("A"), catalog.Intern("B")};
  struct Case {
    const char* name;
    Schema z;
    size_t rows;
    uint32_t limit;
  };
  const Case cases[] = {
      {"arity1-dense", z1, 400, 9},         // radix path, tiny key range
      {"arity1-sparse", z1, 400, 1u << 24}, // fails the density gate
      {"arity2-dense", z2, 600, 15},        // radix path, packed keys
      {"arity2-sparse", z2, 600, 1u << 20}, // hashed path
      {"arity2-single-group", z2, 64, 0},   // all rows equal
      {"arity2-empty", z2, 0, 5},
  };
  for (const Case& c : cases) {
    ColumnStore store = RandomStore(&rng, c.rows, c.z.arity(), c.limit);
    std::vector<uint64_t> mults(c.rows);
    for (uint64_t& m : mults) m = 1 + rng.Next() % 1000;
    Result<Bag> reference = Bag::GroupColumns(c.z, store.View(), mults.data(),
                                              c.rows, SimdLevel::kScalar);
    ASSERT_TRUE(reference.ok()) << c.name;
    for (SimdLevel level : SupportedLevels()) {
      Result<Bag> out =
          Bag::GroupColumns(c.z, store.View(), mults.data(), c.rows, level);
      ASSERT_TRUE(out.ok()) << c.name << " " << simd::SimdLevelName(level);
      ASSERT_TRUE(*out == *reference)
          << c.name << " diverges at " << simd::SimdLevelName(level);
    }
  }
}

TEST(SimdKernelTest, GroupColumnsOverflowRejectedAtEveryLevel) {
  AttributeCatalog catalog;
  Schema z{catalog.Intern("A")};
  // Equal rows whose multiplicities overflow uint64 when summed — every
  // kernel path must refuse, not wrap: 2 rows take the small sort-merge
  // arm, 40 the dense (vector levels) and hashed (kScalar) arms.
  for (size_t n : {2, 40}) {
    std::vector<ValueId> data(n, 3);
    ColumnStore store = ColumnStore::FromColumnMajor(std::move(data), n, 1);
    std::vector<uint64_t> mults(n, 2);
    mults[0] = std::numeric_limits<uint64_t>::max();
    for (SimdLevel level : SupportedLevels()) {
      Result<Bag> out = Bag::GroupColumns(z, store.View(), mults.data(), n, level);
      EXPECT_FALSE(out.ok()) << n << " rows at " << simd::SimdLevelName(level);
    }
  }
}

}  // namespace
}  // namespace bagc
