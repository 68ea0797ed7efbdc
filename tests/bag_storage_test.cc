// Regression tests for bag storage: the deterministic iteration contract
// (sorted columns == sorted-map order), the merge mutators at the edges
// of the support and around the 32-row small-grouping cutoff, the Tup(∅)
// empty-schema corner, and multiplicity-overflow rejection in the
// mutators / join / builder seal.
#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "bag/bag.h"
#include "bag/krelation.h"
#include "generators/workloads.h"
#include "util/random.h"

namespace bagc {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

// ---- Deterministic iteration order ----------------------------------------

TEST(FlatStorageTest, IterationOrderMatchesSortedMapOrder) {
  Rng rng(2024);
  Schema x{{0, 1, 2}};
  BagGenOptions options;
  options.support_size = 200;
  options.domain_size = 5;
  Bag bag = *MakeRandomBag(x, options, &rng);
  ASSERT_FALSE(bag.IsEmpty());

  // Reference: a sorted map of the same rows.
  std::map<Tuple, uint64_t> reference;
  for (size_t r = 0; r < bag.SupportSize(); ++r) {
    reference[bag.RowAt(r)] = bag.MultiplicityAt(r);
  }
  ASSERT_EQ(reference.size(), bag.SupportSize());
  size_t i = 0;
  for (const auto& [t, mult] : reference) {
    EXPECT_EQ(bag.RowAt(i), t);
    EXPECT_EQ(bag.MultiplicityAt(i), mult);
    ++i;
  }
}

TEST(FlatStorageTest, IncrementalMutationKeepsSortedInvariant) {
  Bag bag(Schema{{0, 1}});
  // Insert in descending order; storage must come out ascending.
  for (int64_t v = 9; v >= 0; --v) {
    ASSERT_TRUE(bag.Add(Tuple{{v, v + 10}}, static_cast<uint64_t>(v + 1)).ok());
  }
  ASSERT_EQ(bag.SupportSize(), 10u);
  for (size_t i = 0; i + 1 < bag.SupportSize(); ++i) {
    EXPECT_TRUE(bag.RowAt(i) < bag.RowAt(i + 1));
  }
  EXPECT_EQ(bag.RowAt(0), (Tuple{{0, 10}}));
  EXPECT_EQ(bag.RowAt(9), (Tuple{{9, 19}}));
  // Erase via Set(t, 0) keeps order.
  ASSERT_TRUE(bag.Set(Tuple{{5, 15}}, 0).ok());
  EXPECT_EQ(bag.SupportSize(), 9u);
  EXPECT_EQ(bag.Multiplicity(Tuple{{5, 15}}), 0u);
  EXPECT_EQ(bag.Multiplicity(Tuple{{6, 16}}), 7u);
}

TEST(FlatStorageTest, BuilderAgreesWithIncrementalConstruction) {
  Rng rng(7);
  Schema x{{3, 5}};
  Bag incremental(x);
  BagBuilder builder(x);
  for (size_t i = 0; i < 100; ++i) {
    Tuple t{{static_cast<Value>(rng.Below(7)), static_cast<Value>(rng.Below(7))}};
    uint64_t mult = rng.Range(1, 4);
    ASSERT_TRUE(incremental.Add(t, mult).ok());
    ASSERT_TRUE(builder.Add(t, mult).ok());
  }
  Bag sealed = *builder.Build();
  EXPECT_EQ(sealed, incremental);
}

// ---- Merge mutators around the edges of the support ----------------------

// A bag of n rows (v, 2v) for v = 1..n, multiplicity v.
Bag Ladder(size_t n) {
  BagBuilder builder(Schema{{0, 1}});
  for (size_t v = 1; v <= n; ++v) {
    Value x = static_cast<Value>(v);
    EXPECT_TRUE(builder.Add(Tuple{{x, 2 * x}}, v).ok());
  }
  return *builder.Build();
}

// Sorted rows, positive multiplicities, and exactly `expected`'s content.
void ExpectRows(const Bag& bag, const std::map<Tuple, uint64_t>& expected) {
  ASSERT_EQ(bag.SupportSize(), expected.size());
  ASSERT_EQ(bag.Columns().num_rows(), expected.size());
  size_t i = 0;
  for (const auto& [t, mult] : expected) {
    EXPECT_EQ(bag.RowAt(i), t) << "row " << i;
    EXPECT_EQ(bag.MultiplicityAt(i), mult) << "row " << i;
    EXPECT_EQ(bag.Multiplicity(t), mult);
    ++i;
  }
}

std::map<Tuple, uint64_t> Contents(const Bag& bag) {
  std::map<Tuple, uint64_t> out;
  for (size_t r = 0; r < bag.SupportSize(); ++r) out[bag.RowAt(r)] = bag.MultiplicityAt(r);
  return out;
}

TEST(FlatStorageTest, MergeMutatorsAtSupportEdges) {
  const Tuple before_first{{0, 0}};
  for (size_t n : {0, 1, 31, 32, 33}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Bag original = Ladder(n);
    const std::map<Tuple, uint64_t> old_rows = Contents(original);
    const Value past = static_cast<Value>(n + 1);
    const Tuple after_last{{past, 2 * past}};

    // Insert before the first row (Set) and after the last (Add).
    Bag bag = original;
    ASSERT_TRUE(bag.Set(before_first, 7).ok());
    ASSERT_TRUE(bag.Add(after_last, 4).ok());
    std::map<Tuple, uint64_t> expected = old_rows;
    expected[before_first] = 7;
    expected[after_last] = 4;
    ExpectRows(bag, expected);
    // The copy taken before the mutation still holds the old rows.
    ExpectRows(original, old_rows);

    // The same edits as one delta batch.
    Bag batched = original;
    ASSERT_EQ(*batched.ApplyRowDeltas({{after_last, 4}, {before_first, 7}}), 2u);
    EXPECT_EQ(batched, bag);

    // Delete everything to empty: Set(t, 0) on the first half, a delta
    // batch on the rest.
    Bag drained = bag;
    std::vector<std::pair<Tuple, int64_t>> deletes;
    size_t k = 0;
    for (const auto& [t, mult] : expected) {
      if (k++ < expected.size() / 2) {
        ASSERT_TRUE(drained.Set(t, 0).ok());
      } else {
        deletes.emplace_back(t, -static_cast<int64_t>(mult));
      }
    }
    ASSERT_EQ(*drained.ApplyRowDeltas(deletes), deletes.size());
    EXPECT_TRUE(drained.IsEmpty());
    EXPECT_EQ(drained, Bag(Schema{{0, 1}}));
    ExpectRows(drained, {});
    ExpectRows(bag, expected);
    ExpectRows(original, old_rows);
  }
}

TEST(FlatStorageTest, FailedMutatorsLeaveTheBagUntouched) {
  for (size_t n : {0, 1, 31, 32, 33}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Bag bag = Ladder(n);
    const std::map<Tuple, uint64_t> old_rows = Contents(bag);
    // A delete below zero anywhere aborts the whole batch.
    Result<size_t> below = bag.ApplyRowDeltas(
        {{Tuple{{0, 0}}, 1}, {Tuple{{1000, 2000}}, -1}});
    EXPECT_EQ(below.status().code(), StatusCode::kOutOfRange);
    EXPECT_FALSE(bag.Set(Tuple{{1}}, 3).ok());
    EXPECT_FALSE(bag.Add(Tuple{{1, 2, 3}}, 3).ok());
    // Deltas that net to nothing are a no-op.
    EXPECT_EQ(*bag.ApplyRowDeltas({{Tuple{{0, 0}}, 2}, {Tuple{{0, 0}}, -2}}), 0u);
    ExpectRows(bag, old_rows);
  }
}

// ---- Tup(∅): the empty-schema bag -----------------------------------------

TEST(FlatStorageTest, EmptySchemaBagHoldsTheEmptyTuple) {
  Bag scalar(Schema{});
  Tuple empty{};
  EXPECT_EQ(scalar.Multiplicity(empty), 0u);
  ASSERT_TRUE(scalar.Set(empty, 42).ok());
  EXPECT_EQ(scalar.SupportSize(), 1u);
  EXPECT_EQ(scalar.Multiplicity(empty), 42u);
  ASSERT_TRUE(scalar.Add(empty, 8).ok());
  EXPECT_EQ(scalar.Multiplicity(empty), 50u);
  // Marginal onto ∅ is the identity here.
  Bag again = *scalar.Marginal(Schema{});
  EXPECT_EQ(again, scalar);
  // And a builder over the empty schema merges everything into one entry.
  BagBuilder builder(Schema{});
  ASSERT_TRUE(builder.Add(empty, 1).ok());
  ASSERT_TRUE(builder.Add(empty, 2).ok());
  Bag merged = *builder.Build();
  EXPECT_EQ(merged.Multiplicity(empty), 3u);
}

// ---- Overflow rejection ----------------------------------------------------

TEST(FlatStorageTest, AddOverflowRejectedAndStateUnchanged) {
  Bag bag(Schema{{0}});
  Tuple t{{1}};
  ASSERT_TRUE(bag.Set(t, kMax).ok());
  EXPECT_FALSE(bag.Add(t, 1).ok());
  EXPECT_EQ(bag.Multiplicity(t), kMax);
  EXPECT_EQ(bag.SupportSize(), 1u);
}

TEST(FlatStorageTest, JoinOverflowRejected) {
  Bag r(Schema{{0, 1}});
  Bag s(Schema{{1, 2}});
  ASSERT_TRUE(r.Set(Tuple{{1, 2}}, kMax).ok());
  ASSERT_TRUE(s.Set(Tuple{{2, 3}}, 2).ok());
  EXPECT_FALSE(Bag::Join(r, s).ok());
}

TEST(FlatStorageTest, BuilderSealOverflowRejected) {
  BagBuilder builder(Schema{{0}});
  ASSERT_TRUE(builder.Add(Tuple{{1}}, kMax).ok());
  ASSERT_TRUE(builder.Add(Tuple{{1}}, 1).ok());
  EXPECT_FALSE(builder.Build().ok());
  // A failed seal discards the pending rows; the builder is reusable and
  // must not leak partially merged state.
  ASSERT_TRUE(builder.Add(Tuple{{7}}, 3).ok());
  Bag bag = *builder.Build();
  EXPECT_EQ(bag.SupportSize(), 1u);
  EXPECT_EQ(bag.Multiplicity(Tuple{{7}}), 3u);
}

TEST(FlatStorageTest, BuilderDropsZeroRowsAndChecksArity) {
  BagBuilder builder(Schema{{0, 1}});
  ASSERT_TRUE(builder.Add(Tuple{{1, 2}}, 0).ok());
  EXPECT_FALSE(builder.Add(Tuple{{1}}, 3).ok());
  Bag bag = *builder.Build();
  EXPECT_TRUE(bag.IsEmpty());
}

// ---- KRelation flat storage ------------------------------------------------

TEST(FlatStorageTest, KRelationEntriesStaySorted) {
  KRelation<CountingSemiring> k(Schema{{0}});
  for (int64_t v = 5; v >= 0; --v) {
    ASSERT_TRUE(k.Set(Tuple{{v}}, static_cast<uint64_t>(v + 1)).ok());
  }
  for (size_t i = 0; i + 1 < k.entries().size(); ++i) {
    EXPECT_TRUE(k.entries()[i].first < k.entries()[i + 1].first);
  }
  EXPECT_EQ(k.At(Tuple{{3}}), 4u);
  ASSERT_TRUE(k.Accumulate(Tuple{{3}}, 10).ok());
  EXPECT_EQ(k.At(Tuple{{3}}), 14u);
  ASSERT_TRUE(k.Set(Tuple{{3}}, 0).ok());
  EXPECT_EQ(k.SupportSize(), 5u);
}

}  // namespace
}  // namespace bagc
