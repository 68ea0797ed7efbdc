// Regression suite for the SoA refactor: ColumnStore/ColumnView round
// trips, ColumnIndex grouping + batch probes against the TupleIndex
// reference, and row-path vs columnar-path marginal equivalence (including
// Tup(∅), empty projections, and multiplicity-overflow rejection).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bag/bag.h"
#include "bag/krelation.h"
#include "engine/consistency_engine.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "tuple/column_store.h"
#include "tuple/tuple_index.h"
#include "util/random.h"

namespace bagc {
namespace {

// A row-form copy of every bag (generator marginals may come back
// columnar-sealed).
BagCollection RowForm(const BagCollection& c) {
  std::vector<Bag> bags;
  for (const Bag& b : c.bags()) {
    BagBuilder builder(b.schema());
    for (size_t r = 0; r < b.SupportSize(); ++r) {
      EXPECT_TRUE(builder.Add(b.RowAt(r), b.MultiplicityAt(r)).ok());
    }
    bags.push_back(*builder.Build());
    EXPECT_FALSE(bags.back().columnar_sealed());
  }
  return *BagCollection::Make(std::move(bags));
}

Bag RandomBag(const Schema& schema, size_t support, uint64_t domain,
              uint64_t seed) {
  Rng rng(seed);
  BagGenOptions options;
  options.support_size = support;
  options.domain_size = domain;
  options.max_multiplicity = 1u << 10;
  return *MakeRandomBag(schema, options, &rng);
}

TEST(ColumnStoreTest, RowColumnRoundTrip) {
  Schema x{{0, 1, 2}};
  Bag bag = RandomBag(x, 100, 7, 42);
  ColumnStore cols = bag.ToColumns();
  ASSERT_EQ(cols.num_rows(), bag.SupportSize());
  ASSERT_EQ(cols.arity(), x.arity());
  for (size_t r = 0; r < bag.SupportSize(); ++r) {
    const Tuple& t = bag.entries()[r].first;
    EXPECT_EQ(cols.RowAt(r), t);
    for (size_t c = 0; c < x.arity(); ++c) {
      EXPECT_EQ(cols.column(c)[r], t.id(c));
    }
  }
  // Views see the same cells, and batch hashes equal per-row Tuple hashes.
  ColumnView view = cols.View();
  std::vector<uint64_t> hashes;
  view.HashRows(&hashes);
  for (size_t r = 0; r < bag.SupportSize(); ++r) {
    EXPECT_EQ(view.RowAt(r), bag.entries()[r].first);
    EXPECT_EQ(hashes[r], bag.entries()[r].first.Hash());
  }
}

TEST(ColumnStoreTest, SelectIsTheProjection) {
  Schema x{{0, 1, 2, 3}};
  Schema z{{1, 3}};
  Bag bag = RandomBag(x, 80, 5, 7);
  ColumnStore cols = bag.ToColumns();
  Projector proj = *Projector::Make(x, z);
  ColumnView selected = cols.View().Select(proj);
  ASSERT_EQ(selected.arity(), z.arity());
  for (size_t r = 0; r < bag.SupportSize(); ++r) {
    EXPECT_EQ(selected.RowAt(r), bag.entries()[r].first.Project(proj));
  }
}

TEST(ColumnStoreTest, ColumnIndexMatchesTupleIndex) {
  Schema x{{0, 1, 2}};
  Schema z{{0, 2}};
  Bag keys = RandomBag(x, 200, 4, 11);
  Bag probes = RandomBag(x, 150, 5, 13);
  Projector proj = *Projector::Make(x, z);

  // Reference: TupleIndex over per-row projected tuples.
  TupleIndex reference(keys.SupportSize());
  for (size_t r = 0; r < keys.SupportSize(); ++r) {
    reference.Insert(keys.entries()[r].first.Project(proj),
                     static_cast<uint32_t>(r));
  }

  ColumnStore key_cols = ColumnStore::FromEntries(keys.entries(), proj);
  ColumnIndex index(key_cols.View());
  ASSERT_EQ(index.NumGroups(), reference.NumGroups());
  for (size_t g = 0; g < index.NumGroups(); ++g) {
    // Same group order, same keys, same posting lists.
    EXPECT_EQ(index.keys().RowAt(index.LeadRow(g)), reference.GroupKey(g));
    EXPECT_EQ(index.GroupRows(g), reference.GroupIds(g));
  }

  ColumnStore probe_cols = ColumnStore::FromEntries(probes.entries(), proj);
  std::vector<uint32_t> match;
  index.ProbeAll(probe_cols.View(), &match);
  ASSERT_EQ(match.size(), probes.SupportSize());
  for (size_t r = 0; r < probes.SupportSize(); ++r) {
    const std::vector<uint32_t>* expected =
        reference.Find(probes.entries()[r].first.Project(proj));
    if (expected == nullptr) {
      EXPECT_EQ(match[r], ColumnIndex::kNoGroup);
    } else {
      ASSERT_NE(match[r], ColumnIndex::kNoGroup);
      EXPECT_EQ(index.GroupRows(match[r]), *expected);
    }
  }
}

TEST(ColumnStoreTest, MarginalRowsAndColumnarAgree) {
  // Sizes straddling kColumnarMinRows so both dispatch arms are hit, and
  // both forced paths are pinned against each other on every size.
  Schema x{{0, 1, 2}};
  for (size_t support : std::vector<size_t>{1, 8, kColumnarMinRows - 1,
                                            kColumnarMinRows, 100, 400}) {
    for (uint64_t domain : {2, 5, 50}) {
      Bag bag = RandomBag(x, support, domain, 1000 + support * 10 + domain);
      for (const Schema& z :
           {Schema{{0}}, Schema{{1}}, Schema{{0, 2}}, Schema{{0, 1, 2}}, Schema{}}) {
        Bag rows = *bag.MarginalRows(z);
        Bag columnar = *bag.MarginalColumnar(z);
        Bag dispatched = *bag.Marginal(z);
        EXPECT_EQ(rows, columnar) << "support=" << support << " z=" << z.ToString();
        EXPECT_EQ(rows, dispatched);
      }
    }
  }
}

TEST(ColumnStoreTest, EmptySchemaBags) {
  // Tup(∅) is non-empty: the empty tuple with some multiplicity.
  Bag empty_schema{Schema{}};
  ASSERT_TRUE(empty_schema.Set(Tuple{std::vector<Value>{}}, 5).ok());
  ColumnStore cols = empty_schema.ToColumns();
  EXPECT_EQ(cols.num_rows(), 1u);
  EXPECT_EQ(cols.arity(), 0u);
  EXPECT_EQ(cols.RowAt(0), (Tuple{std::vector<Value>{}}));
  EXPECT_EQ(*empty_schema.MarginalColumnar(Schema{}),
            *empty_schema.MarginalRows(Schema{}));

  // A projection onto ∅ groups every row into the single empty tuple.
  Bag bag = RandomBag(Schema{{0, 1}}, 64, 4, 99);
  Bag onto_empty = *bag.MarginalColumnar(Schema{});
  ASSERT_EQ(onto_empty.SupportSize(), 1u);
  EXPECT_EQ(onto_empty.MultiplicityAt(0), *bag.UnarySize());
  EXPECT_EQ(onto_empty, *bag.MarginalRows(Schema{}));

  // And an empty bag stays empty on both paths.
  Bag none{Schema{{0, 1}}};
  EXPECT_TRUE(none.MarginalColumnar(Schema{{0}})->IsEmpty());
  EXPECT_TRUE(none.MarginalRows(Schema{{0}})->IsEmpty());
}

TEST(ColumnStoreTest, MultiplicityOverflowRejected) {
  // Two rows collapsing onto one marginal tuple with mults that overflow
  // uint64 must fail on both paths (not wrap).
  Schema x{{0, 1}};
  Bag bag(x);
  uint64_t huge = std::numeric_limits<uint64_t>::max() - 1;
  ASSERT_TRUE(bag.Set(Tuple{{1, 1}}, huge).ok());
  ASSERT_TRUE(bag.Set(Tuple{{1, 2}}, huge).ok());
  Schema z{{0}};
  EXPECT_FALSE(bag.MarginalRows(z).ok());
  EXPECT_FALSE(bag.MarginalColumnar(z).ok());
  EXPECT_FALSE(bag.Marginal(z).ok());
}

TEST(ColumnStoreTest, GroupColumnsRejectsMismatchedInputs) {
  Bag bag = RandomBag(Schema{{0, 1}}, 40, 4, 3);
  ColumnStore cols = bag.ToColumns();
  std::vector<uint64_t> mults(bag.SupportSize(), 1);
  // Arity mismatch between z and the projected view.
  EXPECT_FALSE(
      Bag::GroupColumns(Schema{{0}}, cols.View(), mults.data(), mults.size()).ok());
  // Row-count mismatch between the view and the multiplicities.
  EXPECT_FALSE(
      Bag::GroupColumns(Schema{{0, 1}}, cols.View(), mults.data(), 1).ok());
}

TEST(ColumnStoreTest, KRelationColumnarMarginalMatchesBag) {
  // KRelation over the counting semiring must marginalize exactly like a
  // Bag, at a size (128 rows) where Bag::Marginal would group columnar.
  Schema x{{0, 1, 2}};
  Bag bag = RandomBag(x, 128, 4, 21);
  KRelation<CountingSemiring> kr(x);
  for (const auto& [t, mult] : bag.entries()) {
    ASSERT_TRUE(kr.Set(t, mult).ok());
  }
  for (const Schema& z : {Schema{{0}}, Schema{{1, 2}}, Schema{}}) {
    Bag expected = *bag.MarginalRows(z);
    KRelation<CountingSemiring> got = *kr.Marginal(z);
    ASSERT_EQ(got.SupportSize(), expected.SupportSize());
    for (size_t i = 0; i < expected.SupportSize(); ++i) {
      EXPECT_EQ(got.entries()[i].first, expected.RowAt(i));
      EXPECT_EQ(got.entries()[i].second, expected.MultiplicityAt(i));
    }
  }
}

TEST(ColumnStoreTest, EngineVerdictsMatchRowOracleOnRowAndColumnarInputs) {
  // The representation a bag is handed in picks its marginal path: a
  // borrowed row-form collection groups below kColumnarMinRows via the
  // row path and from it up via the columnar gather, an owned one is
  // columnar-sealed from kColumnarMinRows up, and a SealColumnar-ed copy
  // groups columnar at every size. Every engine must match a per-pair
  // MarginalRows oracle query for query.
  for (uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(500 + seed);
    BagGenOptions options;
    // Hidden joints of 10 to 100 rows over a domain of 8: the bags'
    // supports land on both sides of kColumnarMinRows.
    options.support_size = 10 + 30 * (seed % 4);
    options.domain_size = 8;
    options.max_multiplicity = 6;
    Hypergraph h = seed % 3 == 2 ? *MakeStar(4) : *MakePath(4);
    BagCollection c =
        RowForm(*MakeGloballyConsistentCollection(h, options, &rng));
    if (seed % 2 == 1) {
      // Perturb one multiplicity so inconsistent verdicts are covered too.
      std::vector<Bag> bags = c.bags();
      Bag& victim = bags[seed % bags.size()];
      if (!victim.IsEmpty()) {
        Tuple t = victim.RowAt(0);
        uint64_t mult = victim.MultiplicityAt(0);
        ASSERT_TRUE(victim.Set(t, mult + 1).ok());
      }
      c = *BagCollection::Make(std::move(bags));
    }
    std::vector<Bag> sealed_bags = c.bags();
    for (Bag& b : sealed_bags) b.SealColumnar();
    BagCollection sealed = *BagCollection::Make(std::move(sealed_bags));

    // Oracle: the row path on the row-form bags, pair by pair.
    PairwiseVerdict oracle;
    for (size_t i = 0; i < c.size() && oracle.consistent; ++i) {
      for (size_t j = i + 1; j < c.size() && oracle.consistent; ++j) {
        Schema z = Schema::Intersect(c.bag(i).schema(), c.bag(j).schema());
        if (*c.bag(i).MarginalRows(z) != *c.bag(j).MarginalRows(z)) {
          oracle.consistent = false;
          oracle.witness_pair = {i, j};
        }
      }
    }

    ConsistencyEngine view = *ConsistencyEngine::MakeView(c);
    ConsistencyEngine owned = *ConsistencyEngine::Make(c);
    ConsistencyEngine columnar = *ConsistencyEngine::Make(sealed);
    for (ConsistencyEngine* e : {&view, &owned, &columnar}) {
      PairwiseVerdict v = *e->PairwiseAll();
      EXPECT_EQ(v.consistent, oracle.consistent);
      EXPECT_EQ(v.witness_pair, oracle.witness_pair);
      // Path and star are acyclic: Theorem 2 makes Global the pairwise
      // verdict.
      EXPECT_EQ(*e->Global(), oracle.consistent);
      for (size_t i = 0; i < c.size(); ++i) {
        for (size_t j = i + 1; j < c.size(); ++j) {
          Schema z = Schema::Intersect(c.bag(i).schema(), c.bag(j).schema());
          Bag mi = *c.bag(i).MarginalRows(z);
          EXPECT_EQ(*e->TwoBag(i, j), mi == *c.bag(j).MarginalRows(z));
          ASSERT_NE(e->CachedMarginal(i, z), nullptr);
          EXPECT_EQ(*e->CachedMarginal(i, z), mi);
        }
      }
    }
    for (const Bag& b : owned.collection().bags()) {
      EXPECT_EQ(b.columnar_sealed(), b.SupportSize() >= kColumnarMinRows);
    }
    for (const Bag& b : columnar.collection().bags()) {
      EXPECT_TRUE(b.columnar_sealed());
    }
  }
}

TEST(ColumnStoreTest, ParallelRipFoldMatchesSequential) {
  // The Theorem 6 fold with pool-sharded next-marginal builds must return
  // the exact witness the single-threaded fold does.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(900 + seed);
    BagGenOptions options;
    options.support_size = 40;
    options.domain_size = 4;
    options.max_multiplicity = 8;
    Hypergraph h = seed % 2 == 0 ? *MakePath(5) : *MakeStar(4);
    BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);
    EngineOptions seq;
    EngineOptions par;
    par.num_threads = 8;
    ConsistencyEngine e1 = *ConsistencyEngine::Make(c, seq);
    ConsistencyEngine e2 = *ConsistencyEngine::Make(c, par);
    auto w1 = *e1.SolveGlobalAcyclic();
    auto w2 = *e2.SolveGlobalAcyclic();
    ASSERT_TRUE(w1.has_value());
    ASSERT_TRUE(w2.has_value());
    EXPECT_EQ(*w1, *w2);
    // Either way the result is a genuine witness.
    EXPECT_TRUE(*c.IsWitness(*w1));
  }
}

}  // namespace
}  // namespace bagc
