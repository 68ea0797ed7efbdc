// Regression suite for the columnar bag: ColumnStore/ColumnView round
// trips, batch row hashes against Tuple::Hash, ColumnIndex grouping +
// batch probes against a std::map oracle and per-row probes, and
// Bag::Marginal against a std::map oracle at every small size in every
// GroupColumns arm (sorted, dense, hashed), Tup(∅), empty projections,
// and multiplicity-overflow rejection in every arm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bag/bag.h"
#include "bag/krelation.h"
#include "engine/consistency_engine.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "tuple/column_index.h"
#include "tuple/column_store.h"
#include "util/checked_math.h"
#include "util/random.h"

namespace bagc {
namespace {

// The marginal oracle: Equation (2) summed into a sorted map over
// RowAt/MultiplicityAt. nullopt when a group overflows uint64.
std::optional<std::map<Tuple, uint64_t>> MapMarginal(const Bag& bag,
                                                     const Schema& z) {
  Projector proj = *Projector::Make(bag.schema(), z);
  std::map<Tuple, uint64_t> out;
  for (size_t i = 0; i < bag.SupportSize(); ++i) {
    uint64_t& acc = out[bag.RowAt(i).Project(proj)];
    Result<uint64_t> sum = CheckedAdd(acc, bag.MultiplicityAt(i));
    if (!sum.ok()) return std::nullopt;
    acc = *sum;
  }
  return out;
}

// `got` holds exactly the oracle's rows, in the same (sorted) order.
void ExpectMatchesOracle(const Bag& got, const std::map<Tuple, uint64_t>& oracle) {
  ASSERT_EQ(got.SupportSize(), oracle.size());
  size_t i = 0;
  for (const auto& [t, mult] : oracle) {
    EXPECT_EQ(got.RowAt(i), t) << "row " << i;
    EXPECT_EQ(got.MultiplicityAt(i), mult) << "row " << i;
    ++i;
  }
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

// Exactly n distinct rows over `schema`, values in [lo, lo + domain). A
// negative lo puts side-table ids in the rows, so the ValueIdLess order
// is exercised too.
Bag ExactBag(const Schema& schema, size_t n, Value lo, int64_t domain,
             uint64_t seed) {
  Rng rng(seed);
  std::map<Tuple, uint64_t> rows;
  while (rows.size() < n) {
    std::vector<Value> values(schema.arity());
    for (Value& v : values) v = lo + static_cast<Value>(rng.Below(domain));
    rows[Tuple{values}] = rng.Range(1, 9);
  }
  BagBuilder builder(schema);
  for (const auto& [t, mult] : rows) EXPECT_TRUE(builder.Add(t, mult).ok());
  return *builder.Build();
}

TEST(ColumnStoreTest, RowColumnRoundTrip) {
  Schema x{{0, 1, 2}};
  Bag bag = RandomBag(x, 100, 7, 42);
  ColumnView view = bag.Columns();
  ASSERT_EQ(view.num_rows(), bag.SupportSize());
  ASSERT_EQ(view.arity(), x.arity());
  // The columns are the sorted rows, and batch hashes equal per-row
  // Tuple hashes.
  std::vector<uint64_t> hashes;
  view.HashRows(&hashes);
  for (size_t r = 0; r < bag.SupportSize(); ++r) {
    Tuple t = bag.RowAt(r);
    if (r > 0) {
      EXPECT_TRUE(bag.RowAt(r - 1) < t);
    }
    EXPECT_EQ(view.RowAt(r), t);
    EXPECT_EQ(hashes[r], t.Hash());
    for (size_t c = 0; c < x.arity(); ++c) {
      EXPECT_EQ(view.column(c)[r], t.id(c));
      EXPECT_EQ(bag.IdAt(r, c), t.id(c));
    }
    EXPECT_EQ(bag.MultiplicityData()[r], bag.MultiplicityAt(r));
    EXPECT_EQ(bag.Multiplicity(t), bag.MultiplicityAt(r));
  }
}

TEST(ColumnStoreTest, SelectIsTheProjection) {
  Schema x{{0, 1, 2, 3}};
  Schema z{{1, 3}};
  Bag bag = RandomBag(x, 80, 5, 7);
  Projector proj = *Projector::Make(x, z);
  ColumnView selected = bag.Columns().Select(proj);
  ASSERT_EQ(selected.arity(), z.arity());
  for (size_t r = 0; r < bag.SupportSize(); ++r) {
    EXPECT_EQ(selected.RowAt(r), bag.RowAt(r).Project(proj));
  }
}

TEST(ColumnStoreTest, ColumnIndexMatchesMapOracle) {
  Schema x{{0, 1, 2}};
  Schema z{{0, 2}};
  Bag keys = RandomBag(x, 200, 4, 11);
  Bag probes = RandomBag(x, 150, 5, 13);
  Projector proj = *Projector::Make(x, z);

  // Oracle: each projected key's rows, ascending. Groups come in
  // first-appearance order, i.e. ordered by their first row.
  std::map<Tuple, std::vector<uint32_t>> oracle;
  for (size_t r = 0; r < keys.SupportSize(); ++r) {
    oracle[keys.RowAt(r).Project(proj)].push_back(static_cast<uint32_t>(r));
  }
  std::vector<std::pair<Tuple, std::vector<uint32_t>>> by_first_row(oracle.begin(),
                                                                   oracle.end());
  std::sort(by_first_row.begin(), by_first_row.end(),
            [](const auto& a, const auto& b) { return a.second[0] < b.second[0]; });

  ColumnIndex index(keys.Columns().Select(proj));
  ASSERT_EQ(index.NumGroups(), oracle.size());
  for (size_t g = 0; g < index.NumGroups(); ++g) {
    // Same group order, same keys, same posting lists.
    EXPECT_EQ(index.keys().RowAt(index.LeadRow(g)), by_first_row[g].first);
    ColumnIndex::Rows rows = index.GroupRows(g);
    EXPECT_EQ(std::vector<uint32_t>(rows.begin(), rows.end()), by_first_row[g].second);
  }

  std::vector<uint32_t> match;
  index.ProbeAll(probes.Columns().Select(proj), &match);
  ASSERT_EQ(match.size(), probes.SupportSize());
  for (size_t r = 0; r < probes.SupportSize(); ++r) {
    auto expected = oracle.find(probes.RowAt(r).Project(proj));
    if (expected == oracle.end()) {
      EXPECT_EQ(match[r], ColumnIndex::kNoGroup);
    } else {
      ASSERT_NE(match[r], ColumnIndex::kNoGroup);
      ColumnIndex::Rows rows = index.GroupRows(match[r]);
      EXPECT_EQ(std::vector<uint32_t>(rows.begin(), rows.end()), expected->second);
    }
  }
}

TEST(ColumnStoreTest, MarginalMatchesMapOracleAtEverySmallSize) {
  // Every n from 1 to 40 crosses the small sort-merge arm (< 32 rows)
  // into the arm the rows' shape picks. At 32 rows and more: ids 0..3
  // projected onto 1 or 2 attributes take the dense arm; ids spread to
  // 2^20 fail its density gate and side-table ids (-1) its direct-range
  // gate, so both hash-group, as does every projection onto 3 attributes.
  struct Shape {
    const char* name;
    Value lo;
    int64_t domain;
  };
  const Shape shapes[] = {
      {"dense", 0, 4}, {"spread", 0, int64_t{1} << 20}, {"side-table", -1, 4}};
  Schema x{{0, 1, 2, 3}};
  for (const Shape& shape : shapes) {
    for (size_t n = 1; n <= 40; ++n) {
      Bag bag = ExactBag(x, n, shape.lo, shape.domain, 7000 + n);
      ASSERT_EQ(bag.SupportSize(), n);
      for (const Schema& z : {Schema{{1}}, Schema{{0, 2}}, Schema{{1, 2, 3}}}) {
        SCOPED_TRACE(std::string(shape.name) + " n=" + std::to_string(n) +
                     " z=" + z.ToString());
        ExpectMatchesOracle(*bag.Marginal(z), *MapMarginal(bag, z));
      }
    }
  }
}

TEST(ColumnStoreTest, HashRowsMatchesTupleHash) {
  // Empty to 1,000 rows at arities 1-4 on random ids, and all-equal rows
  // of 0, 1 and 2^32 - 1 (where a truncated or sign-extended id would
  // still look plausible).
  const size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 1000};
  Rng rng(0x51D0001);
  auto expect_tuple_hashes = [](const ColumnStore& store) {
    std::vector<uint64_t> hashes(3, 0xDEAD);
    store.View().HashRows(&hashes);
    ASSERT_EQ(hashes.size(), store.num_rows());
    for (size_t r = 0; r < store.num_rows(); ++r) {
      ASSERT_EQ(hashes[r], store.RowAt(r).Hash()) << "row " << r;
    }
  };
  for (size_t n : sizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    for (size_t arity = 1; arity <= 4; ++arity) {
      std::vector<ValueId> data(n * arity);
      for (ValueId& v : data) v = static_cast<ValueId>(rng.Next());
      expect_tuple_hashes(ColumnStore::FromColumnMajor(std::move(data), n, arity));
    }
    for (ValueId value : {0u, 1u, std::numeric_limits<uint32_t>::max()}) {
      expect_tuple_hashes(
          ColumnStore::FromColumnMajor(std::vector<ValueId>(n, value), n, 1));
    }
  }
}

TEST(ColumnStoreTest, MaxIdIsTheColumnMaximum) {
  // The dense group-by sizes its table, and a segment reload bounds-checks
  // its ids, by MaxId: the maximum must count at the head, the tail and
  // mid-column, and an empty view reads 0.
  const ValueId top = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(ColumnStore::FromColumnMajor({}, 0, 1).View().MaxId(0), 0u);
  for (size_t n : {1, 2, 7, 8, 9, 33, 1000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    for (size_t at : {size_t{0}, n / 2, n - 1}) {
      std::vector<ValueId> data(2 * n, 3);
      data[n + at] = top - 1;
      ColumnStore store = ColumnStore::FromColumnMajor(std::move(data), n, 2);
      EXPECT_EQ(store.View().MaxId(0), 3u);
      EXPECT_EQ(store.View().MaxId(1), top - 1) << "max at row " << at;
    }
  }
}

TEST(ColumnStoreTest, ProbeAllMatchesPerRowProbe) {
  // A small id domain forces dense groups and hash collisions; probes mix
  // present and absent rows.
  Rng rng(0x51D0006);
  auto random_store = [&](size_t rows, uint32_t limit) {
    std::vector<ValueId> data(rows * 2);
    for (ValueId& v : data) v = static_cast<ValueId>(rng.Below(limit + 1));
    return ColumnStore::FromColumnMajor(std::move(data), rows, 2);
  };
  ColumnStore keys = random_store(500, 12);
  ColumnStore probes = random_store(700, 16);
  ColumnIndex index(keys.View());
  std::vector<uint32_t> match;
  index.ProbeAll(probes.View(), &match);
  std::vector<uint64_t> hashes;
  probes.View().HashRows(&hashes);
  ASSERT_EQ(match.size(), probes.num_rows());
  size_t hits = 0;
  for (size_t r = 0; r < probes.num_rows(); ++r) {
    ASSERT_EQ(match[r], index.Probe(probes.View(), r, hashes[r])) << "row " << r;
    hits += match[r] != ColumnIndex::kNoGroup;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, probes.num_rows());
  // A default-constructed index has no groups: every probe misses.
  ColumnIndex none;
  none.ProbeAll(probes.View(), &match);
  EXPECT_EQ(match, std::vector<uint32_t>(probes.num_rows(), ColumnIndex::kNoGroup));
}

TEST(ColumnStoreTest, EveryBagExposesItsColumns) {
  // One representation at every size: 0 rows, arity 0, built, mutated,
  // and marginalized bags all answer Columns()/MultiplicityData().
  auto expect_columns = [](const Bag& bag) {
    ColumnView view = bag.Columns();
    EXPECT_EQ(view.num_rows(), bag.SupportSize());
    EXPECT_EQ(view.arity(), bag.schema().arity());
    for (size_t r = 0; r < bag.SupportSize(); ++r) {
      EXPECT_EQ(view.RowAt(r), bag.RowAt(r));
      EXPECT_EQ(bag.MultiplicityData()[r], bag.MultiplicityAt(r));
    }
  };
  expect_columns(Bag());
  expect_columns(Bag(Schema{{0, 1}}));
  Bag scalar(Schema{});
  expect_columns(scalar);
  ASSERT_TRUE(scalar.Set(Tuple{}, 3).ok());
  expect_columns(scalar);
  for (size_t n : {1, 31, 32, 33, 100}) {
    Bag bag = ExactBag(Schema{{0, 1}}, n, -1, 12, n);
    expect_columns(bag);
    expect_columns(*bag.Marginal(Schema{{1}}));
    expect_columns(*bag.Marginal(Schema{}));
    ASSERT_TRUE(bag.Add(bag.RowAt(0), 1).ok());
    expect_columns(bag);
  }
}

TEST(ColumnStoreTest, EmptySchemaBags) {
  // Tup(∅) is non-empty: the empty tuple with some multiplicity.
  Bag empty_schema{Schema{}};
  ASSERT_TRUE(empty_schema.Set(Tuple{std::vector<Value>{}}, 5).ok());
  ColumnView cols = empty_schema.Columns();
  EXPECT_EQ(cols.num_rows(), 1u);
  EXPECT_EQ(cols.arity(), 0u);
  EXPECT_EQ(cols.RowAt(0), (Tuple{std::vector<Value>{}}));
  ExpectMatchesOracle(*empty_schema.Marginal(Schema{}),
                      *MapMarginal(empty_schema, Schema{}));

  // A projection onto ∅ groups every row into the single empty tuple, in
  // the sorted arm (8 rows) and the hashed arm (64 rows: arity 0 never
  // takes the dense arm).
  for (size_t support : {8, 64}) {
    Bag bag = ExactBag(Schema{{0, 1}}, support, 0, 16, 99);
    Bag onto_empty = *bag.Marginal(Schema{});
    ASSERT_EQ(onto_empty.SupportSize(), 1u);
    EXPECT_EQ(onto_empty.MultiplicityAt(0), *bag.UnarySize());
  }

  // And an empty bag stays empty.
  Bag none{Schema{{0, 1}}};
  EXPECT_TRUE(none.Marginal(Schema{{0}})->IsEmpty());
}

TEST(ColumnStoreTest, MultiplicityOverflowRejected) {
  // Rows collapsing onto one marginal tuple with mults that overflow
  // uint64 must fail (not wrap) in every arm: 2 rows sort-merge; 40 rows
  // keyed (1) or (1, 1) take the dense arm, and keyed (2^20) or
  // (2^20, 2^20), past the density gate, the hashed arm.
  Schema x{{0, 1, 2}};
  uint64_t huge = std::numeric_limits<uint64_t>::max() - 1;
  for (int64_t rows : {2, 40}) {
    for (Value key : {Value{1}, Value{1} << 20}) {
      BagBuilder builder(x);
      for (int64_t v = 0; v < rows; ++v) {
        ASSERT_TRUE(builder.Add(Tuple{{key, key, v}}, v < 2 ? huge : 1).ok());
      }
      Bag bag = *builder.Build();
      for (const Schema& z : {Schema{{0}}, Schema{{0, 1}}}) {
        SCOPED_TRACE("rows=" + std::to_string(rows) + " key=" +
                     std::to_string(key) + " z=" + z.ToString());
        EXPECT_FALSE(MapMarginal(bag, z).has_value());
        EXPECT_FALSE(bag.Marginal(z).ok());
      }
    }
  }
}

TEST(ColumnStoreTest, GroupColumnsRejectsMismatchedInputs) {
  Bag bag = RandomBag(Schema{{0, 1}}, 40, 4, 3);
  std::vector<uint64_t> mults(bag.SupportSize(), 1);
  // Arity mismatch between z and the projected view.
  EXPECT_FALSE(
      Bag::GroupColumns(Schema{{0}}, bag.Columns(), mults.data(), mults.size()).ok());
  // Row-count mismatch between the view and the multiplicities.
  EXPECT_FALSE(
      Bag::GroupColumns(Schema{{0, 1}}, bag.Columns(), mults.data(), 1).ok());
}

TEST(ColumnStoreTest, KRelationColumnarMarginalMatchesBag) {
  // KRelation over the counting semiring must marginalize exactly like a
  // Bag.
  Schema x{{0, 1, 2}};
  Bag bag = RandomBag(x, 128, 4, 21);
  KRelation<CountingSemiring> kr(x);
  for (size_t i = 0; i < bag.SupportSize(); ++i) {
    ASSERT_TRUE(kr.Set(bag.RowAt(i), bag.MultiplicityAt(i)).ok());
  }
  for (const Schema& z : {Schema{{0}}, Schema{{1, 2}}, Schema{}}) {
    Bag expected = *bag.Marginal(z);
    KRelation<CountingSemiring> got = *kr.Marginal(z);
    ASSERT_EQ(got.SupportSize(), expected.SupportSize());
    for (size_t i = 0; i < expected.SupportSize(); ++i) {
      EXPECT_EQ(got.entries()[i].first, expected.RowAt(i));
      EXPECT_EQ(got.entries()[i].second, expected.MultiplicityAt(i));
    }
  }
}

TEST(ColumnStoreTest, EngineVerdictsMatchMapOracle) {
  // An engine over bags whose supports land on both sides of the
  // small-input grouping cutoff must match a per-pair map-marginal oracle
  // query for query.
  for (uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(500 + seed);
    BagGenOptions options;
    // Hidden joints of 10 to 100 rows over a domain of 8.
    options.support_size = 10 + 30 * (seed % 4);
    options.domain_size = 8;
    options.max_multiplicity = 6;
    Hypergraph h = seed % 3 == 2 ? *MakeStar(4) : *MakePath(4);
    BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);
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

    // Oracle: map marginals, pair by pair.
    PairwiseVerdict oracle;
    for (size_t i = 0; i < c.size() && oracle.consistent; ++i) {
      for (size_t j = i + 1; j < c.size() && oracle.consistent; ++j) {
        Schema z = Schema::Intersect(c.bag(i).schema(), c.bag(j).schema());
        if (*MapMarginal(c.bag(i), z) != *MapMarginal(c.bag(j), z)) {
          oracle.consistent = false;
          oracle.witness_pair = {i, j};
        }
      }
    }

    ConsistencyEngine engine = *ConsistencyEngine::Make(c);
    PairwiseVerdict v = *engine.PairwiseAll();
    EXPECT_EQ(v.consistent, oracle.consistent);
    EXPECT_EQ(v.witness_pair, oracle.witness_pair);
    // Path and star are acyclic: Theorem 2 makes Global the pairwise
    // verdict.
    EXPECT_EQ(*engine.Global(), oracle.consistent);
    for (size_t i = 0; i < c.size(); ++i) {
      for (size_t j = i + 1; j < c.size(); ++j) {
        Schema z = Schema::Intersect(c.bag(i).schema(), c.bag(j).schema());
        std::map<Tuple, uint64_t> mi = *MapMarginal(c.bag(i), z);
        EXPECT_EQ(*engine.TwoBag(i, j), mi == *MapMarginal(c.bag(j), z));
        ASSERT_NE(engine.CachedMarginal(i, z), nullptr);
        ExpectMatchesOracle(*engine.CachedMarginal(i, z), mi);
      }
    }
  }
}

TEST(ColumnStoreTest, ParallelRipFoldMatchesSequential) {
  // The Theorem 6 fold over an engine sealed on 8 threads must return
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
