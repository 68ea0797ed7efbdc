// Tests for §3: two-bag consistency (Lemma 2), witness construction
// (Corollary 1), minimal witnesses (§5.3, Corollary 4, Theorem 5), and the
// paper's R_{n-1}/S_{n-1} family with exactly 2^{n-1} pairwise-incomparable
// witnesses.
#include <gtest/gtest.h>

#include "bag/relation.h"
#include "core/two_bag.h"
#include "generators/workloads.h"
#include "solver/integer_feasibility.h"
#include "solver/lp.h"
#include "util/random.h"

namespace bagc {
namespace {

// The §3 family: R_{n-1}(A,B) and S_{n-1}(B,C). Attributes A=0, B=1, C=2.
std::pair<Bag, Bag> PaperFamily(size_t n) {
  Bag r(Schema{{0, 1}});
  Bag s(Schema{{1, 2}});
  for (Value v = 2; v <= static_cast<Value>(n); ++v) {
    EXPECT_TRUE(r.Set(Tuple{{1, v}}, 1).ok());
    EXPECT_TRUE(r.Set(Tuple{{v, v}}, 1).ok());
    EXPECT_TRUE(s.Set(Tuple{{v, 1}}, 1).ok());
    EXPECT_TRUE(s.Set(Tuple{{v, v}}, 1).ok());
  }
  return {std::move(r), std::move(s)};
}

TEST(TwoBagTest, Lemma2DecisionOnSmallCases) {
  Bag r = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 1}, {{2, 2}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{2, 1}, 1}, {{2, 2}, 1}});
  EXPECT_TRUE(*AreConsistent(r, s));
  Bag s_bad = *MakeBag(Schema{{1, 2}}, {{{2, 1}, 2}, {{2, 2}, 1}});
  EXPECT_FALSE(*AreConsistent(r, s_bad));
}

TEST(TwoBagTest, DisjointSchemasRequireEqualCardinality) {
  // X ∩ Y = ∅: the shared marginal is the total multiset cardinality.
  Bag r = *MakeBag(Schema{{0}}, {{{1}, 2}, {{2}, 3}});
  Bag s = *MakeBag(Schema{{1}}, {{{7}, 5}});
  EXPECT_TRUE(*AreConsistent(r, s));
  Bag s2 = *MakeBag(Schema{{1}}, {{{7}, 4}});
  EXPECT_FALSE(*AreConsistent(r, s2));
}

TEST(TwoBagTest, EmptyBagsAreConsistent) {
  Bag r(Schema{{0, 1}});
  Bag s(Schema{{1, 2}});
  EXPECT_TRUE(*AreConsistent(r, s));
  auto witness = *FindWitness(r, s);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(witness->IsEmpty());
}

TEST(TwoBagTest, IdenticalSchemasConsistentIffEqual) {
  Bag r = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 3}});
  Bag s = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 3}});
  EXPECT_TRUE(*AreConsistent(r, s));
  Bag s2 = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 4}});
  EXPECT_FALSE(*AreConsistent(r, s2));
}

TEST(TwoBagTest, FindWitnessProducesValidWitness) {
  Rng rng(101);
  BagGenOptions options;
  options.support_size = 20;
  options.domain_size = 4;
  for (int trial = 0; trial < 40; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1, 2}}, Schema{{2, 3}}, options,
                                      &rng);
    auto witness = *FindWitness(r, s);
    ASSERT_TRUE(witness.has_value());
    EXPECT_TRUE(*IsWitness(*witness, r, s));
  }
}

TEST(TwoBagTest, FindWitnessReturnsNulloptWhenInconsistent) {
  Rng rng(102);
  BagGenOptions options;
  options.support_size = 12;
  options.domain_size = 3;
  for (int trial = 0; trial < 20; ++trial) {
    auto [r, s] =
        *MakeInconsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    EXPECT_FALSE(*AreConsistent(r, s));
    auto witness = *FindWitness(r, s);
    EXPECT_FALSE(witness.has_value());
    auto minimal = *FindMinimalWitness(r, s);
    EXPECT_FALSE(minimal.has_value());
  }
}

TEST(TwoBagTest, WitnessSupportInsideJoinOfSupports) {
  // Lemma 1.
  Rng rng(103);
  BagGenOptions options;
  options.support_size = 16;
  options.domain_size = 3;
  for (int trial = 0; trial < 20; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    auto witness = *FindWitness(r, s);
    ASSERT_TRUE(witness.has_value());
    Relation join =
        *Relation::Join(Relation::SupportOf(r), Relation::SupportOf(s));
    for (size_t e = 0; e < witness->SupportSize(); ++e) {
      EXPECT_TRUE(join.Contains(witness->RowAt(e)));
    }
  }
}

TEST(TwoBagTest, IsWitnessRejectsWrongSchemaAndWrongMarginals) {
  Bag r = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{2, 3}, 1}});
  Bag wrong_schema = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 1}});
  EXPECT_FALSE(*IsWitness(wrong_schema, r, s));
  Bag wrong = *MakeBag(Schema{{0, 1, 2}}, {{{1, 2, 3}, 2}});
  EXPECT_FALSE(*IsWitness(wrong, r, s));
  Bag right = *MakeBag(Schema{{0, 1, 2}}, {{{1, 2, 3}, 1}});
  EXPECT_TRUE(*IsWitness(right, r, s));
}

// ---- The §3 example family ----

TEST(TwoBagTest, BagJoinDoesNotWitnessBagConsistency) {
  // R1 ⋈_b S1 has four tuples of multiplicity 1; its marginal on AB gives
  // (1,2) -> 2, not the required 1.
  auto [r, s] = PaperFamily(2);
  Bag join = *Bag::Join(r, s);
  EXPECT_EQ(join.SupportSize(), 4u);
  EXPECT_FALSE(*IsWitness(join, r, s));
  // Yet as *relations* the join of supports projects back onto the
  // supports (set-consistency holds).
  Relation jr = *Relation::Join(Relation::SupportOf(r), Relation::SupportOf(s));
  EXPECT_EQ(*jr.Project(r.schema()), Relation::SupportOf(r));
  EXPECT_EQ(*jr.Project(s.schema()), Relation::SupportOf(s));
}

class PaperFamilyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PaperFamilyTest, ExactlyTwoToTheNMinusOneWitnesses) {
  size_t n = GetParam();
  auto [r, s] = PaperFamily(n);
  ASSERT_TRUE(*AreConsistent(r, s));
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  auto solutions = *EnumerateIntegerSolutions(lp);
  EXPECT_EQ(solutions.size(), uint64_t{1} << (n - 1));
}

TEST_P(PaperFamilyTest, WitnessesArePairwiseIncomparable) {
  size_t n = GetParam();
  auto [r, s] = PaperFamily(n);
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  auto solutions = *EnumerateIntegerSolutions(lp);
  std::vector<Bag> witnesses;
  for (const auto& x : solutions) {
    Bag w(lp.joined_schema);
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i] > 0) {
        ASSERT_TRUE(w.Add(lp.variables.RowAt(i), x[i]).ok());
      }
    }
    EXPECT_TRUE(*IsWitness(w, r, s));
    witnesses.push_back(std::move(w));
  }
  for (size_t i = 0; i < witnesses.size(); ++i) {
    for (size_t j = 0; j < witnesses.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(Bag::Contained(witnesses[i], witnesses[j]));
    }
  }
}

TEST_P(PaperFamilyTest, WitnessSupportsProperlyInsideJoinSupport) {
  size_t n = GetParam();
  auto [r, s] = PaperFamily(n);
  Bag join = *Bag::Join(r, s);
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  auto solutions = *EnumerateIntegerSolutions(lp);
  for (const auto& x : solutions) {
    size_t support = 0;
    for (uint64_t v : x) support += (v > 0);
    EXPECT_LT(support, join.SupportSize());
  }
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, PaperFamilyTest,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10));

// ---- Minimal witnesses (§5.3) ----

TEST(MinimalWitnessTest, MinimalWitnessIsWitness) {
  Rng rng(104);
  BagGenOptions options;
  options.support_size = 12;
  options.domain_size = 3;
  for (int trial = 0; trial < 25; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    auto minimal = *FindMinimalWitness(r, s);
    ASSERT_TRUE(minimal.has_value());
    EXPECT_TRUE(*IsWitness(*minimal, r, s));
  }
}

TEST(MinimalWitnessTest, TheoremFiveSupportBound) {
  // ||W||supp <= ||R||supp + ||S||supp for minimal witnesses.
  Rng rng(105);
  BagGenOptions options;
  options.support_size = 18;
  options.domain_size = 4;
  options.max_multiplicity = 50;
  for (int trial = 0; trial < 25; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    auto minimal = *FindMinimalWitness(r, s);
    ASSERT_TRUE(minimal.has_value());
    EXPECT_LE(minimal->SupportSize(), r.SupportSize() + s.SupportSize());
    // Theorem 3(1): multiplicities bounded by the inputs'.
    EXPECT_LE(minimal->MultiplicityBound(),
              std::max(r.MultiplicityBound(), s.MultiplicityBound()));
  }
}

TEST(MinimalWitnessTest, MinimalityIsGenuine) {
  // No witness's support is strictly contained in the minimal witness's:
  // verify by exhaustive enumeration on small instances.
  Rng rng(106);
  BagGenOptions options;
  options.support_size = 6;
  options.domain_size = 3;
  for (int trial = 0; trial < 15; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    auto minimal = *FindMinimalWitness(r, s);
    ASSERT_TRUE(minimal.has_value());
    ConsistencyLp lp = *BuildConsistencyLp({r, s});
    auto solutions = *EnumerateIntegerSolutions(lp);
    ASSERT_FALSE(solutions.empty());
    for (const auto& x : solutions) {
      // Support of x strictly inside support of minimal? Must not happen.
      bool subset = true;
      bool strict = false;
      for (size_t i = 0; i < x.size(); ++i) {
        bool in_x = x[i] > 0;
        bool in_min = minimal->Multiplicity(lp.variables.RowAt(i)) > 0;
        if (in_x && !in_min) subset = false;
        if (!in_x && in_min) strict = true;
      }
      EXPECT_FALSE(subset && strict)
          << "found witness with support strictly inside the minimal witness";
    }
  }
}

TEST(MinimalWitnessTest, DiagonalPairHasSingletonStructure) {
  // R = {(v,v):1}, S = {(v,v):1} chains force a unique diagonal witness.
  Bag r = *MakeBag(Schema{{0, 1}}, {{{0, 0}, 1}, {{1, 1}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{0, 0}, 1}, {{1, 1}, 1}});
  auto minimal = *FindMinimalWitness(r, s);
  ASSERT_TRUE(minimal.has_value());
  EXPECT_EQ(minimal->SupportSize(), 2u);
  EXPECT_EQ(minimal->Multiplicity(Tuple{{0, 0, 0}}), 1u);
  EXPECT_EQ(minimal->Multiplicity(Tuple{{1, 1, 1}}), 1u);
}

}  // namespace
}  // namespace bagc
