// Cross-module integration and property tests:
//  - Theorem 2 end-to-end: over random hypergraphs, acyclicity coincides
//    with the local-to-global consistency property (sampled semantically).
//  - Theorem 4 dichotomy machinery: the acyclic algorithm, the exact
//    solver, and the pairwise test agree wherever both are defined.
//  - Bags vs. relations: supports of consistent bags are consistent
//    relations, but not conversely.
#include <gtest/gtest.h>

#include "bag/relation.h"
#include "core/global.h"
#include "core/local_global.h"
#include "core/pairwise.h"
#include "core/two_bag.h"
#include "generators/workloads.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/families.h"
#include "setcase/relation_consistency.h"
#include "util/random.h"

namespace bagc {
namespace {

TEST(TheoremTwoIntegrationTest, AcyclicIffLocalToGlobal) {
  // For each random hypergraph: if acyclic, every sampled pairwise
  // consistent collection (here: marginalized hidden witnesses plus the
  // Theorem-6 fold of random pairwise-consistent bags) is globally
  // consistent; if cyclic, MakeCounterexample refutes local-to-global.
  Rng rng(201);
  BagGenOptions options;
  options.support_size = 10;
  options.domain_size = 2;
  options.max_multiplicity = 3;
  int acyclic_seen = 0, cyclic_seen = 0;
  for (int trial = 0; trial < 60 && (acyclic_seen < 10 || cyclic_seen < 10);
       ++trial) {
    size_t n = 4 + rng.Below(3);
    size_t k = 2 + rng.Below(2);
    size_t m = 2 + rng.Below(4);
    auto maybe_h = MakeRandomUniform(n, k, m, &rng);
    if (!maybe_h.ok()) continue;
    const Hypergraph& h = *maybe_h;
    if (HasLocalToGlobalConsistencyForBags(h)) {
      ++acyclic_seen;
      EXPECT_TRUE(IsAcyclic(h));
      BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);
      EXPECT_TRUE(*ArePairwiseConsistent(c));
      auto witness = *SolveGlobalConsistencyAcyclic(c);
      EXPECT_TRUE(witness.has_value());
    } else {
      ++cyclic_seen;
      EXPECT_FALSE(IsAcyclic(h));
      BagCollection c = *MakeCounterexample(h);
      EXPECT_TRUE(*ArePairwiseConsistent(c));
      EXPECT_FALSE(SolveGlobalConsistencyExact(c)->has_value());
    }
  }
  EXPECT_GE(acyclic_seen, 5);
  EXPECT_GE(cyclic_seen, 5);
}

TEST(DichotomyIntegrationTest, AcyclicAndExactSolversAgree) {
  Rng rng(202);
  BagGenOptions options;
  options.support_size = 6;
  options.domain_size = 2;
  options.max_multiplicity = 3;
  for (int trial = 0; trial < 20; ++trial) {
    Hypergraph h = *MakeRandomAcyclic(2 + rng.Below(3), 1 + rng.Below(3), &rng);
    // Half the trials: marginalized (consistent); half: independent random
    // bags (usually inconsistent).
    BagCollection c = (trial % 2 == 0)
        ? *MakeGloballyConsistentCollection(h, options, &rng)
        : [&] {
            std::vector<Bag> bags;
            for (const Schema& e : h.edges()) {
              bags.push_back(*MakeRandomBag(e, options, &rng));
            }
            return *BagCollection::Make(std::move(bags));
          }();
    auto fast = *SolveGlobalConsistencyAcyclic(c);
    auto exact = *SolveGlobalConsistencyExact(c);
    EXPECT_EQ(fast.has_value(), exact.has_value());
    EXPECT_EQ(*IsGloballyConsistent(c), fast.has_value());
    if (fast.has_value()) {
      EXPECT_TRUE(*c.IsWitness(*fast));
      EXPECT_TRUE(*c.IsWitness(*exact));
    }
  }
}

TEST(DichotomyIntegrationTest, PairwiseDecidesGlobalOnAcyclicOnly) {
  // On acyclic schemas pairwise == global; the triangle Tseitin collection
  // shows the equivalence genuinely fails on cyclic schemas.
  Rng rng(203);
  BagGenOptions options;
  options.support_size = 8;
  options.domain_size = 2;
  options.max_multiplicity = 3;
  for (int trial = 0; trial < 15; ++trial) {
    Hypergraph h = *MakeRandomAcyclic(2 + rng.Below(4), 1 + rng.Below(3), &rng);
    std::vector<Bag> bags;
    for (const Schema& e : h.edges()) {
      bags.push_back(*MakeRandomBag(e, options, &rng));
    }
    BagCollection c = *BagCollection::Make(std::move(bags));
    EXPECT_EQ(*ArePairwiseConsistent(c), *IsGloballyConsistent(c));
  }
}

TEST(BagVsRelationTest, BagConsistencyImpliesSupportConsistency) {
  Rng rng(204);
  BagGenOptions options;
  options.support_size = 14;
  options.domain_size = 3;
  for (int trial = 0; trial < 20; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    ASSERT_TRUE(*AreConsistent(r, s));
    EXPECT_TRUE(
        *AreConsistentRelations(Relation::SupportOf(r), Relation::SupportOf(s)));
  }
}

TEST(BagVsRelationTest, SupportConsistencyDoesNotImplyBagConsistency) {
  // R = {(0,0):1, (1,0):2}, S = {(0,0):2, (0,1):1}: supports project to
  // the same set {0} on B, but the bag marginals are 3 vs 3 on B=0 — make
  // them differ.
  Bag r = *MakeBag(Schema{{0, 1}}, {{{0, 0}, 1}, {{1, 0}, 2}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{0, 0}, 2}, {{0, 1}, 2}});
  EXPECT_TRUE(*AreConsistentRelations(Relation::SupportOf(r),
                                      Relation::SupportOf(s)));
  EXPECT_FALSE(*AreConsistent(r, s));
}

TEST(BagVsRelationTest, FixedCyclicSchemaRelationsStayPolynomial) {
  // §5.1: for fixed schemas, relations decide global consistency via one
  // join — a single polynomial call even on the cyclic C4, where the bag
  // problem is NP-complete. The Tseitin supports chain parities around the
  // cycle, so the relation solver correctly reports inconsistency here too
  // (global bag consistency always implies support consistency, because
  // Supp(T)[Xi] = Supp(T[Xi])).
  Hypergraph c4 = *MakeCycle(4);
  BagCollection bags = *MakeCounterexample(c4);
  std::vector<Relation> rels;
  for (const Bag& b : bags.bags()) rels.push_back(Relation::SupportOf(b));
  // As bags: pairwise consistent but globally inconsistent.
  EXPECT_TRUE(*ArePairwiseConsistent(bags));
  EXPECT_FALSE(*IsGloballyConsistent(bags));
  // The polynomial relation-side decision agrees (and terminates fast).
  auto witness = *SolveGlobalConsistencyRelations(rels);
  EXPECT_FALSE(witness.has_value());
}

TEST(BagVsRelationTest, GlobalBagConsistencyImpliesSupportConsistency) {
  // Supp(T)[Xi] = Supp(T[Xi]): if T witnesses the bags, Supp(T) witnesses
  // the supports.
  Rng rng(207);
  BagGenOptions options;
  options.support_size = 10;
  options.domain_size = 2;
  for (int trial = 0; trial < 15; ++trial) {
    Hypergraph h = *MakeCycle(3);
    BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);
    std::vector<Relation> rels;
    for (const Bag& b : c.bags()) rels.push_back(Relation::SupportOf(b));
    auto witness = *SolveGlobalConsistencyRelations(rels);
    EXPECT_TRUE(witness.has_value());
  }
}

TEST(WitnessPipelineTest, MinimalWitnessOfAcyclicSolveStaysValid) {
  Rng rng(205);
  BagGenOptions options;
  options.support_size = 5;
  options.domain_size = 2;
  options.max_multiplicity = 6;
  for (int trial = 0; trial < 8; ++trial) {
    Hypergraph h = *MakePath(3);
    BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);
    auto witness = *SolveGlobalConsistencyAcyclic(c);
    ASSERT_TRUE(witness.has_value());
    Bag minimal = *MinimizeWitnessSupport(c, *witness);
    EXPECT_TRUE(*c.IsWitness(minimal));
    EXPECT_LE(minimal.SupportSize(), witness->SupportSize());
    uint64_t bound = 0;
    for (const Bag& b : c.bags()) bound += b.BinarySize();
    EXPECT_LE(minimal.SupportSize(), bound);
  }
}

TEST(NpCertificateTest, WitnessVerificationIsSound) {
  // Corollary 3's certificate check: tamper with any single multiplicity
  // and verification must fail.
  Rng rng(206);
  BagGenOptions options;
  options.support_size = 8;
  options.domain_size = 2;
  Hypergraph h = *MakeCycle(3);
  BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);
  auto witness = *SolveGlobalConsistencyExact(c);
  ASSERT_TRUE(witness.has_value());
  ASSERT_TRUE(*c.IsWitness(*witness));
  Bag tampered = *witness;
  ASSERT_FALSE(tampered.IsEmpty());
  Tuple t = tampered.RowAt(0);
  uint64_t m = tampered.MultiplicityAt(0);
  ASSERT_TRUE(tampered.Set(t, m + 1).ok());
  EXPECT_FALSE(*c.IsWitness(tampered));
}

}  // namespace
}  // namespace bagc
