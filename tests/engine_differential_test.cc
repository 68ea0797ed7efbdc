// Differential tests for the batch ConsistencyEngine: on ~200 randomized
// collections (acyclic and cyclic, consistent-by-construction and
// perturbed), the engine's two-bag / pairwise / global answers must be
// bit-identical to the single-shot core path AND to a naive inline oracle
// that recomputes every marginal from scratch — including the identity of
// the first failing pair and the validity of every produced witness.
#include <gtest/gtest.h>

#include <optional>
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

// Naive oracle: Lemma 2(2) by direct marginal recomputation, no caching,
// no engine, no core entry point. This is the independent reference the
// differential compares both implementations against.
struct NaiveVerdict {
  bool consistent = true;
  std::pair<size_t, size_t> first_failing{0, 0};
};

NaiveVerdict NaivePairwise(const BagCollection& c) {
  for (size_t i = 0; i < c.size(); ++i) {
    for (size_t j = i + 1; j < c.size(); ++j) {
      Schema z = Schema::Intersect(c.bag(i).schema(), c.bag(j).schema());
      Bag iz = *c.bag(i).Marginal(z);
      Bag jz = *c.bag(j).Marginal(z);
      if (iz != jz) return {false, {i, j}};
    }
  }
  return {};
}

// One randomized collection: hypergraph family rotates with the seed, and
// roughly half the instances get one multiplicity bumped, which breaks
// consistency with high probability (and keeps the oracle honest when it
// happens not to).
Result<BagCollection> MakeWorkload(uint64_t seed, bool* cyclic) {
  Rng rng(seed);
  BagGenOptions options;
  options.support_size = 2 + rng.Below(8);
  options.domain_size = 2 + rng.Below(3);
  options.max_multiplicity = 4;
  Hypergraph h = [&] {
    switch (seed % 4) {
      case 0:
        return *MakePath(2 + seed % 4);
      case 1:
        return *MakeStar(2 + seed % 4);
      case 2:
        return *MakeRandomAcyclic(3 + seed % 3, 3, &rng);
      default:
        return *MakeCycle(3);
    }
  }();
  *cyclic = (seed % 4) == 3;
  BAGC_ASSIGN_OR_RETURN(BagCollection c,
                        MakeGloballyConsistentCollection(h, options, &rng));
  if (rng.Chance(1, 2)) {
    // Perturb: bump one multiplicity of one bag.
    std::vector<Bag> bags = c.bags();
    Bag& victim = bags[rng.Below(bags.size())];
    if (victim.IsEmpty()) {
      std::vector<Value> zeros(victim.schema().arity(), 0);
      EXPECT_TRUE(victim.Set(Tuple{std::move(zeros)}, 1).ok());
    } else {
      size_t pick = rng.Below(victim.SupportSize());
      Tuple t = victim.RowAt(pick);
      uint64_t mult = victim.MultiplicityAt(pick);
      EXPECT_TRUE(victim.Set(t, mult + 1).ok());
    }
    return BagCollection::Make(std::move(bags));
  }
  return c;
}

TEST(EngineDifferentialTest, MatchesSingleShotAndOracleOn200Workloads) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    bool cyclic = false;
    BagCollection c = *MakeWorkload(seed, &cyclic);

    NaiveVerdict oracle = NaivePairwise(c);

    // Single-shot core path.
    std::pair<size_t, size_t> single_pair{0, 0};
    bool single = *ArePairwiseConsistent(c, &single_pair);

    // Batch engine, sequential and parallel.
    EngineOptions par;
    par.num_threads = 4;
    ConsistencyEngine sequential = *ConsistencyEngine::Make(c);
    ConsistencyEngine parallel = *ConsistencyEngine::Make(c, par);
    PairwiseVerdict seq_verdict = *sequential.PairwiseAll();
    PairwiseVerdict par_verdict = *parallel.PairwiseAll();

    EXPECT_EQ(oracle.consistent, single);
    EXPECT_EQ(oracle.consistent, seq_verdict.consistent);
    EXPECT_EQ(oracle.consistent, par_verdict.consistent);
    if (!oracle.consistent) {
      EXPECT_EQ(oracle.first_failing, single_pair);
      EXPECT_EQ(oracle.first_failing, seq_verdict.witness_pair);
      EXPECT_EQ(oracle.first_failing, par_verdict.witness_pair);
    }

    // Every individual two-bag answer matches the single-shot decision.
    for (size_t i = 0; i < c.size(); ++i) {
      for (size_t j = i + 1; j < c.size(); ++j) {
        bool direct = *AreConsistent(c.bag(i), c.bag(j));
        EXPECT_EQ(direct, *sequential.TwoBag(i, j));
        EXPECT_EQ(direct, *sequential.TwoBag(j, i));
        EXPECT_EQ(direct, *parallel.TwoBag(i, j));
      }
    }

    // Global agrees with the single-shot dispatcher (these instances are
    // small enough that the exact solver on the cyclic ones is cheap).
    bool single_global = *IsGloballyConsistent(c);
    EXPECT_EQ(single_global, *sequential.Global());
    EXPECT_EQ(single_global, *parallel.Global());

    // Witness validity on the consistent instances.
    if (oracle.consistent && !cyclic) {
      auto witness = *sequential.SolveGlobalAcyclic();
      ASSERT_TRUE(witness.has_value());
      EXPECT_TRUE(*c.IsWitness(*witness));
      auto single_witness = *SolveGlobalConsistencyAcyclic(c);
      ASSERT_TRUE(single_witness.has_value());
      EXPECT_TRUE(*c.IsWitness(*single_witness));
    }
    if (seed % 5 == 0 && c.size() >= 2) {
      bool pair_ok = *AreConsistent(c.bag(0), c.bag(1));
      auto engine_witness = *sequential.Witness(0, 1);
      auto single_witness = seed % 2 == 0 ? *FindMinimalWitness(c.bag(0), c.bag(1))
                                          : *FindWitness(c.bag(0), c.bag(1));
      EXPECT_EQ(pair_ok, engine_witness.has_value());
      EXPECT_EQ(pair_ok, single_witness.has_value());
      if (pair_ok) {
        EXPECT_TRUE(*IsWitness(*engine_witness, c.bag(0), c.bag(1)));
        EXPECT_TRUE(*IsWitness(*single_witness, c.bag(0), c.bag(1)));
      }
    }
  }
}

TEST(EngineDifferentialTest, ConsistentPairsStayConsistentThroughEngine) {
  // Directed two-bag differential on the dedicated pair generators, which
  // exercise shared schemas the collection generators rarely hit (equal
  // schemas, disjoint schemas).
  Rng rng(777);
  BagGenOptions options;
  options.support_size = 12;
  options.domain_size = 3;
  std::vector<std::pair<Schema, Schema>> shapes = {
      {Schema{{0, 1}}, Schema{{1, 2}}},
      {Schema{{0, 1}}, Schema{{0, 1}}},
      {Schema{{0}}, Schema{{1}}},
      {Schema{{0, 1, 2}}, Schema{{2, 3}}},
  };
  for (const auto& [x, y] : shapes) {
    for (int trial = 0; trial < 10; ++trial) {
      auto good = *MakeConsistentPair(x, y, options, &rng);
      auto bad = *MakeInconsistentPair(x, y, options, &rng);
      for (bool expected : {true, false}) {
        const auto& pair = expected ? good : bad;
        BagCollection c = *BagCollection::Make({pair.first, pair.second});
        ConsistencyEngine engine = *ConsistencyEngine::Make(c);
        EXPECT_EQ(expected, *AreConsistent(pair.first, pair.second));
        EXPECT_EQ(expected, *engine.TwoBag(0, 1));
        EXPECT_EQ(expected, (*engine.PairwiseAll()).consistent);
      }
    }
  }
}

}  // namespace
}  // namespace bagc
