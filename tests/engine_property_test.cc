// Randomized property tests for the ConsistencyEngine, all under one
// seeded Rng so every run is reproducible:
//   - pairwise consistency is invariant under bag reordering and under
//     attribute renaming (both are isomorphisms of the instance);
//   - the sharded sweep returns identical verdicts — including the
//     lexicographically-first witness pair — for 1, 2, and 8 workers;
//   - cached-marginal answers are stable across repeated queries on one
//     engine and match uncached recomputation;
//   - the seal decides every pair exactly like the two-bag solver, also
//     past the first failing pair, and queries compute no marginal;
//   - a re-seal against a previous generation (changed bags, two bags
//     sharing one previous row store, or other stores in the same order)
//     answers exactly like a fresh seal and adopts only shared stores;
//   - regression: the sharded seal drains in-flight pool tasks before
//     Make returns, so destroying the engine (or the caller's stack
//     frame) immediately afterwards is safe. Run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/global.h"
#include "core/pairwise.h"
#include "core/two_bag.h"
#include "engine/consistency_engine.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "util/random.h"

namespace bagc {
namespace {

// Applies an attribute-id permutation to a bag: schema attributes map
// through `perm` and tuple slots follow the renamed schema's sorted layout.
Bag RenameBag(const Bag& b, const std::vector<AttrId>& perm) {
  std::vector<AttrId> renamed;
  renamed.reserve(b.schema().arity());
  for (AttrId a : b.schema().attrs()) renamed.push_back(perm[a]);
  Schema schema(renamed);
  BagBuilder builder(schema);
  builder.Reserve(b.SupportSize());
  for (size_t e = 0; e < b.SupportSize(); ++e) {
    Tuple t = b.RowAt(e);
    std::vector<Value> values(schema.arity());
    for (size_t slot = 0; slot < b.schema().arity(); ++slot) {
      values[*schema.IndexOf(perm[b.schema().at(slot)])] = t.at(slot);
    }
    EXPECT_TRUE(builder.Add(Tuple{std::move(values)}, b.MultiplicityAt(e)).ok());
  }
  return *builder.Build();
}

Result<BagCollection> MakeMixedCollection(uint64_t seed, bool perturb) {
  Rng rng(seed);
  BagGenOptions options;
  options.support_size = 3 + rng.Below(10);
  options.domain_size = 2 + rng.Below(3);
  options.max_multiplicity = 5;
  Hypergraph h = seed % 2 == 0 ? *MakePath(3 + seed % 3)
                               : *MakeRandomAcyclic(4, 3, &rng);
  BAGC_ASSIGN_OR_RETURN(BagCollection c,
                        MakeGloballyConsistentCollection(h, options, &rng));
  if (!perturb) return c;
  std::vector<Bag> bags = c.bags();
  Bag& victim = bags[rng.Below(bags.size())];
  if (victim.IsEmpty()) {
    std::vector<Value> zeros(victim.schema().arity(), 0);
    EXPECT_TRUE(victim.Set(Tuple{std::move(zeros)}, 1).ok());
  } else {
    size_t pick = rng.Below(victim.SupportSize());
    EXPECT_TRUE(
        victim.Set(victim.RowAt(pick), victim.MultiplicityAt(pick) + 2).ok());
  }
  return BagCollection::Make(std::move(bags));
}

TEST(EnginePropertyTest, PairwiseInvariantUnderBagReordering) {
  Rng rng(2024);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BagCollection c = *MakeMixedCollection(seed, seed % 2 == 1);
    ConsistencyEngine engine = *ConsistencyEngine::Make(c);
    PairwiseVerdict base = *engine.PairwiseAll();

    std::vector<size_t> order(c.size());
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(&order);
    std::vector<Bag> shuffled;
    shuffled.reserve(order.size());
    for (size_t i : order) shuffled.push_back(c.bag(i));
    BagCollection permuted = *BagCollection::Make(std::move(shuffled));
    ConsistencyEngine permuted_engine = *ConsistencyEngine::Make(permuted);
    PairwiseVerdict after = *permuted_engine.PairwiseAll();

    EXPECT_EQ(base.consistent, after.consistent);
    if (!after.consistent) {
      // The first failing pair depends on the order, but it must be a
      // genuinely inconsistent pair of the permuted collection.
      auto [i, j] = after.witness_pair;
      Schema z = Schema::Intersect(permuted.bag(i).schema(),
                                   permuted.bag(j).schema());
      EXPECT_NE(*permuted.bag(i).Marginal(z), *permuted.bag(j).Marginal(z));
    }
  }
}

TEST(EnginePropertyTest, PairwiseInvariantUnderAttributeRenaming) {
  Rng rng(4096);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BagCollection c = *MakeMixedCollection(seed, seed % 2 == 1);

    // Random permutation of the attribute-id space actually in use.
    AttrId max_attr = 0;
    for (AttrId a : c.union_schema().attrs()) max_attr = std::max(max_attr, a);
    std::vector<AttrId> perm(max_attr + 1);
    std::iota(perm.begin(), perm.end(), 0);
    rng.Shuffle(&perm);

    std::vector<Bag> renamed;
    renamed.reserve(c.size());
    for (const Bag& b : c.bags()) renamed.push_back(RenameBag(b, perm));
    BagCollection r = *BagCollection::Make(std::move(renamed));

    ConsistencyEngine original = *ConsistencyEngine::Make(c);
    ConsistencyEngine mapped = *ConsistencyEngine::Make(r);
    PairwiseVerdict before = *original.PairwiseAll();
    PairwiseVerdict after = *mapped.PairwiseAll();
    EXPECT_EQ(before.consistent, after.consistent);
    if (!before.consistent) {
      // Renaming preserves bag order, so the first failing pair is the
      // same index pair.
      EXPECT_EQ(before.witness_pair, after.witness_pair);
    }
    EXPECT_EQ(*original.Global(), *mapped.Global());
  }
}

TEST(EnginePropertyTest, VerdictIdenticalAcrossWorkerCounts) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BagCollection c = *MakeMixedCollection(seed, seed % 2 == 1);
    std::optional<PairwiseVerdict> reference;
    for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
      EngineOptions options;
      options.num_threads = workers;
      ConsistencyEngine engine = *ConsistencyEngine::Make(c, options);
      PairwiseVerdict v = *engine.PairwiseAll();
      if (!reference.has_value()) {
        reference = v;
      } else {
        EXPECT_EQ(reference->consistent, v.consistent);
        EXPECT_EQ(reference->witness_pair, v.witness_pair);
      }
      EXPECT_EQ(reference->consistent, *engine.Global());
    }
  }
}

TEST(EnginePropertyTest, CachedAnswersStableAcrossRepeatedQueries) {
  BagCollection c = *MakeMixedCollection(11, false);
  EngineOptions options;
  options.num_threads = 2;
  ConsistencyEngine engine = *ConsistencyEngine::Make(c, options);

  PairwiseVerdict first = *engine.PairwiseAll();
  for (int round = 0; round < 3; ++round) {
    PairwiseVerdict again = *engine.PairwiseAll();
    EXPECT_EQ(first.consistent, again.consistent);
    EXPECT_EQ(first.witness_pair, again.witness_pair);
    EXPECT_EQ(first.consistent, *engine.Global());
    for (size_t i = 0; i < c.size(); ++i) {
      for (size_t j = 0; j < c.size(); ++j) {
        EXPECT_EQ(*engine.TwoBag(i, j), *engine.TwoBag(i, j));
      }
    }
  }

  // Cached marginals agree with uncached recomputation.
  for (size_t i = 0; i < c.size(); ++i) {
    for (size_t j = 0; j < c.size(); ++j) {
      if (i == j) continue;
      Schema z = Schema::Intersect(c.bag(i).schema(), c.bag(j).schema());
      const Bag* cached = engine.CachedMarginal(i, z);
      ASSERT_NE(cached, nullptr);
      Bag fresh = *c.bag(i).Marginal(z);
      EXPECT_EQ(fresh, *cached);
      for (size_t e = 0; e < fresh.SupportSize(); ++e) {
        Tuple t = fresh.RowAt(e);
        uint64_t mult = fresh.MultiplicityAt(e);
        EXPECT_EQ(mult, engine.CachedMarginal(i, z)->Multiplicity(t));
      }
    }
  }
}

TEST(EnginePropertyTest, EarlyExitDrainsPoolBeforeEngineDestruction) {
  // Regression: the sharded seal must not return while pool tasks are
  // still touching the pair list or the compare pass's stack frame —
  // destroying the engine right after Make has to be safe. ASan (CI
  // sanitizer job) turns any straggler into a hard error.
  Rng rng(31337);
  BagGenOptions options;
  options.support_size = 64;
  options.domain_size = 4;
  options.max_multiplicity = 6;
  Hypergraph h = *MakePath(10);
  for (int round = 0; round < 25; ++round) {
    BagCollection base = *MakeGloballyConsistentCollection(h, options, &rng);
    std::vector<Bag> bags = base.bags();
    ASSERT_FALSE(bags[0].IsEmpty());
    ASSERT_TRUE(
        bags[0].Set(bags[0].RowAt(0), bags[0].MultiplicityAt(0) + 1).ok());
    BagCollection c = *BagCollection::Make(std::move(bags));
    PairwiseVerdict verdict;
    {
      EngineOptions engine_options;
      engine_options.num_threads = 8;
      ConsistencyEngine engine = *ConsistencyEngine::Make(c, engine_options);
      verdict = *engine.PairwiseAll();
    }  // engine (and its pool) destroyed immediately after the query
    EXPECT_FALSE(verdict.consistent);
    EXPECT_EQ(verdict.witness_pair.first, 0u);
  }
}

TEST(EnginePropertyTest, KWiseSweepReusesSealedMarginalsAndNeverReInterns) {
  // Regression for the ROADMAP "throwaway engine per subset" gap: the
  // k-wise sweep must answer every subset's pairwise precheck from the
  // parent engine's sealed state (each slot filled once, at seal) and
  // must never touch the shared dictionaries.
  Rng rng(5150);
  BagGenOptions options;
  options.support_size = 12;
  options.domain_size = 3;
  options.max_multiplicity = 4;
  Hypergraph h = *MakePath(6);  // acyclic: every subset decided by Theorem 2
  BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);

  // Re-encode the collection through a shared DictionarySet so the engine
  // carries real dictionaries whose intern counters we can watch.
  auto dicts = std::make_shared<DictionarySet>();
  std::vector<Bag> interned;
  for (const Bag& b : c.bags()) {
    BagBuilder builder(b.schema());
    for (size_t e = 0; e < b.SupportSize(); ++e) {
      Tuple t = b.RowAt(e);
      std::vector<std::string> tokens;
      for (size_t i = 0; i < t.arity(); ++i) {
        tokens.push_back("tok" + std::to_string(t.at(i)));
      }
      ASSERT_TRUE(builder.AddExternal(tokens, b.MultiplicityAt(e), dicts.get()).ok());
    }
    interned.push_back(*builder.Build());
  }
  BagCollection ic = *BagCollection::Make(std::move(interned));

  EngineOptions engine_options;
  engine_options.dictionaries = dicts;
  ConsistencyEngine engine = *ConsistencyEngine::Make(ic, engine_options);
  ASSERT_EQ(engine.dictionaries(), dicts.get());

  uint64_t interns_before = dicts->total_intern_calls();
  ASSERT_TRUE(*engine.KWiseConsistent(3));
  uint64_t fills_after_first = engine.marginal_fills();
  // Each pair's two cached slots fill at most once for the WHOLE sweep,
  // even though most pairs appear in many 3-subsets.
  size_t m = ic.size();
  EXPECT_LE(fills_after_first, m * (m - 1));
  EXPECT_GT(fills_after_first, 0u);

  // A second sweep — and a deeper one — is answered entirely from cache.
  ASSERT_TRUE(*engine.KWiseConsistent(3));
  EXPECT_EQ(engine.marginal_fills(), fills_after_first);
  ASSERT_TRUE(*engine.KWiseConsistent(2));
  EXPECT_EQ(engine.marginal_fills(), fills_after_first);

  // No re-interning anywhere in the sweep: the dictionaries saw zero
  // Intern() calls and the engine still shares the same set.
  EXPECT_EQ(dicts->total_intern_calls(), interns_before);
  EXPECT_EQ(engine.shared_dictionaries().get(), dicts.get());

  // The reused-cache sweep agrees with the single-shot wrapper.
  EXPECT_TRUE(*AreKWiseConsistent(ic, 3));
}

TEST(EnginePropertyTest, SealDecidesEveryPairLikeTheTwoBagSolver) {
  // Make compares every pair with no early exit, so pairs after the first
  // failing one are decided too, identically at every worker count, and
  // no query afterwards computes a marginal.
  size_t pairs_after_first_failure = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BagCollection c = *MakeMixedCollection(seed, seed % 2 == 1);
    for (size_t workers : {size_t{1}, size_t{4}}) {
      EngineOptions options;
      options.num_threads = workers;
      ConsistencyEngine engine = *ConsistencyEngine::Make(c, options);
      uint64_t fills = engine.marginal_fills();

      std::optional<std::pair<size_t, size_t>> first_failing;
      for (size_t i = 0; i < c.size(); ++i) {
        for (size_t j = i + 1; j < c.size(); ++j) {
          bool expected = *AreConsistent(c.bag(i), c.bag(j));
          EXPECT_EQ(*engine.TwoBag(i, j), expected) << i << "," << j;
          EXPECT_EQ(*engine.TwoBag(j, i), expected) << j << "," << i;
          if (first_failing.has_value()) {
            ++pairs_after_first_failure;
          } else if (!expected) {
            first_failing = std::make_pair(i, j);
          }
          std::optional<Bag> witness = *engine.Witness(i, j);
          EXPECT_EQ(witness.has_value(), expected);
        }
      }
      PairwiseVerdict v = *engine.PairwiseAll();
      EXPECT_EQ(v.consistent, !first_failing.has_value());
      if (first_failing.has_value()) {
        EXPECT_EQ(v.witness_pair, *first_failing);
      }
      EXPECT_EQ(*engine.Global(), v.consistent);
      ASSERT_TRUE(engine.KWiseConsistent(3).ok());
      EXPECT_EQ(engine.marginal_fills(), fills) << workers << " workers";
    }
  }
  EXPECT_GT(pairs_after_first_failure, 0u);
}

TEST(EnginePropertyTest, SealReuseWithChangedAndAliasedBagsMatchesFreshMake) {
  // The next generation lists the previous bags in reverse order (so
  // carried pairs map onto reversed previous pairs), changes the bag now
  // first, and appends a second copy of previous bag 0 — two new bags
  // adopted from one previous bag, whose pair carries as consistent.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BagCollection c = *MakeMixedCollection(seed, seed % 2 == 1);
    const size_t m = c.size();
    ConsistencyEngine previous = *ConsistencyEngine::Make(c);

    std::vector<Bag> bags;
    for (size_t k = m; k-- > 0;) bags.push_back(c.bag(k));
    Bag& changed = bags[0];
    if (changed.IsEmpty()) {
      std::vector<Value> zeros(changed.schema().arity(), 0);
      ASSERT_TRUE(changed.Set(Tuple{std::move(zeros)}, 1).ok());
    } else {
      ASSERT_TRUE(
          changed.Set(changed.RowAt(0), changed.MultiplicityAt(0) + 1).ok());
    }
    bags.push_back(c.bag(0));
    BagCollection next = *BagCollection::Make(std::move(bags));

    ConsistencyEngine fresh = *ConsistencyEngine::Make(next);
    PairwiseVerdict expected = *fresh.PairwiseAll();
    for (size_t workers : {size_t{1}, size_t{4}}) {
      EngineOptions options;
      options.num_threads = workers;
      ConsistencyEngine resealed = *ConsistencyEngine::Make(next, options, &previous);
      EXPECT_EQ(resealed.reused_bags(), m);  // all but the changed bag
      for (size_t i = 0; i < next.size(); ++i) {
        for (size_t j = 0; j < next.size(); ++j) {
          EXPECT_EQ(*resealed.TwoBag(i, j), *fresh.TwoBag(i, j))
              << i << "," << j << " at " << workers << " workers";
        }
      }
      EXPECT_TRUE(*resealed.TwoBag(m - 1, m));  // both previous bag 0
      PairwiseVerdict v = *resealed.PairwiseAll();
      EXPECT_EQ(v.consistent, expected.consistent);
      EXPECT_EQ(v.witness_pair, expected.witness_pair);
      EXPECT_LT(resealed.marginal_fills(), fresh.marginal_fills());
    }
  }
}

TEST(EnginePropertyTest, ResealAdoptsNothingFromOtherRowStoresInTheSameOrder) {
  // Reuse follows row identity, not position or content: the previous
  // generation has the same schemas in the same order, but every bag was
  // sealed into its own store (equal rows, except one perturbed bag). The
  // re-seal adopts nothing, fills as much as a fresh Make, and answers
  // exactly like it — the perturbed bag's pairs are inconsistent although
  // the previous generation's same-position pairs were not.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ConsistencyEngine previous =
        *ConsistencyEngine::Make(*MakeMixedCollection(seed, false));
    BagCollection next = *MakeMixedCollection(seed, true);
    ASSERT_EQ(next.size(), previous.collection().size());
    ConsistencyEngine fresh = *ConsistencyEngine::Make(next);
    ASSERT_FALSE(fresh.PairwiseAll()->consistent);
    for (size_t workers : {size_t{1}, size_t{4}}) {
      EngineOptions options;
      options.num_threads = workers;
      ConsistencyEngine resealed = *ConsistencyEngine::Make(next, options, &previous);
      EXPECT_EQ(resealed.reused_bags(), 0u);
      EXPECT_EQ(resealed.marginal_fills(), fresh.marginal_fills());
      for (size_t i = 0; i < next.size(); ++i) {
        for (size_t j = 0; j < next.size(); ++j) {
          EXPECT_EQ(*resealed.TwoBag(i, j), *fresh.TwoBag(i, j))
              << i << "," << j << " at " << workers << " workers";
        }
      }
      EXPECT_EQ(resealed.PairwiseAll()->witness_pair,
                fresh.PairwiseAll()->witness_pair);
    }
  }
}

TEST(EnginePropertyTest, KWiseMatchesHistoricalPerSubsetSolve) {
  // Differential against the pre-engine semantics: exact global solve of
  // every size-min(k,m) subcollection, throwaway state each time.
  Rng rng(6021);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BagGenOptions options;
    options.support_size = 2 + rng.Below(6);
    options.domain_size = 2 + rng.Below(3);
    options.max_multiplicity = 4;
    Hypergraph h = seed % 2 == 0 ? *MakeCycle(4) : *MakePath(4);
    BagCollection base = *MakeGloballyConsistentCollection(h, options, &rng);
    std::vector<Bag> bags = base.bags();
    if (rng.Chance(1, 2) && !bags[0].IsEmpty()) {
      ASSERT_TRUE(
          bags[0].Set(bags[0].RowAt(0), bags[0].MultiplicityAt(0) + 1).ok());
    }
    BagCollection c = *BagCollection::Make(std::move(bags));
    for (size_t k : {size_t{2}, size_t{3}, c.size()}) {
      // Historical oracle: exact solve per lexicographic subset.
      std::optional<std::vector<size_t>> oracle_failing;
      bool oracle = true;
      size_t size = std::min(k, c.size());
      std::vector<size_t> idx(size);
      for (size_t i = 0; i < size; ++i) idx[i] = i;
      while (oracle) {
        BagCollection sub = *c.Subcollection(idx);
        if (!(*SolveGlobalConsistencyExact(sub)).has_value()) {
          oracle = false;
          oracle_failing = idx;
          break;
        }
        size_t i = size;
        bool advanced = false;
        while (i > 0) {
          --i;
          if (idx[i] != i + c.size() - size) {
            ++idx[i];
            for (size_t j = i + 1; j < size; ++j) idx[j] = idx[j - 1] + 1;
            advanced = true;
            break;
          }
        }
        if (!advanced) break;
      }
      std::optional<std::vector<size_t>> failing;
      bool verdict = *AreKWiseConsistent(c, k, &failing);
      EXPECT_EQ(verdict, oracle);
      EXPECT_EQ(failing, oracle_failing);
    }
  }
}

}  // namespace
}  // namespace bagc
