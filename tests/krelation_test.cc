// Tests for the K-relation generalization (§6): the Boolean instance
// reproduces Relation semantics, the counting instance reproduces Bag
// semantics (bit-exact agreement on random inputs), and the tropical
// instance exercises a genuinely different positive semiring. Also
// reproduces the paper's closing observation that equality of shared
// marginals is necessary for consistency in any positive semiring.
#include <gtest/gtest.h>

#include "bag/bag.h"
#include "bag/krelation.h"
#include "bag/relation.h"
#include "generators/workloads.h"
#include "util/random.h"

namespace bagc {
namespace {

KRelation<CountingSemiring> FromBag(const Bag& bag) {
  KRelation<CountingSemiring> out(bag.schema());
  for (size_t i = 0; i < bag.SupportSize(); ++i) {
    EXPECT_TRUE(out.Set(bag.RowAt(i), bag.MultiplicityAt(i)).ok());
  }
  return out;
}

Bag ToBag(const KRelation<CountingSemiring>& k) {
  Bag out(k.schema());
  for (const auto& [t, m] : k.entries()) {
    EXPECT_TRUE(out.Set(t, m).ok());
  }
  return out;
}

KRelation<BoolSemiring> FromRelation(const Relation& rel) {
  KRelation<BoolSemiring> out(rel.schema());
  for (const Tuple& t : rel.tuples()) {
    EXPECT_TRUE(out.Set(t, true).ok());
  }
  return out;
}

TEST(KRelationTest, CountingInstanceMatchesBagMarginals) {
  Rng rng(801);
  BagGenOptions options;
  options.support_size = 20;
  options.domain_size = 3;
  for (int trial = 0; trial < 20; ++trial) {
    Bag bag = *MakeRandomBag(Schema{{0, 1, 2}}, options, &rng);
    KRelation<CountingSemiring> k = FromBag(bag);
    for (const Schema& z :
         {Schema{{0}}, Schema{{1, 2}}, Schema{{0, 2}}, Schema{}}) {
      EXPECT_EQ(ToBag(*k.Marginal(z)), *bag.Marginal(z));
    }
  }
}

TEST(KRelationTest, CountingInstanceMatchesBagJoin) {
  Rng rng(802);
  BagGenOptions options;
  options.support_size = 10;
  options.domain_size = 3;
  for (int trial = 0; trial < 15; ++trial) {
    Bag r = *MakeRandomBag(Schema{{0, 1}}, options, &rng);
    Bag s = *MakeRandomBag(Schema{{1, 2}}, options, &rng);
    auto kj = *KRelation<CountingSemiring>::Join(FromBag(r), FromBag(s));
    EXPECT_EQ(ToBag(kj), *Bag::Join(r, s));
  }
}

TEST(KRelationTest, BooleanInstanceMatchesRelationSemantics) {
  Rng rng(803);
  BagGenOptions options;
  options.support_size = 12;
  options.domain_size = 3;
  for (int trial = 0; trial < 15; ++trial) {
    Relation r = Relation::SupportOf(*MakeRandomBag(Schema{{0, 1}}, options, &rng));
    Relation s = Relation::SupportOf(*MakeRandomBag(Schema{{1, 2}}, options, &rng));
    // Join.
    auto kj = *KRelation<BoolSemiring>::Join(FromRelation(r), FromRelation(s));
    Relation expect_join = *Relation::Join(r, s);
    EXPECT_EQ(kj.SupportSize(), expect_join.size());
    for (const Tuple& t : expect_join.tuples()) {
      EXPECT_TRUE(kj.At(t));
    }
    // Projection = Boolean marginal.
    auto kp = *FromRelation(r).Marginal(Schema{{1}});
    Relation expect_proj = *r.Project(Schema{{1}});
    EXPECT_EQ(kp.SupportSize(), expect_proj.size());
  }
}

TEST(KRelationTest, TropicalJoinAddsCosts) {
  KRelation<TropicalSemiring> r(Schema{{0, 1}});
  ASSERT_TRUE(r.Set(Tuple{{0, 0}}, 3).ok());
  KRelation<TropicalSemiring> s(Schema{{1, 2}});
  ASSERT_TRUE(s.Set(Tuple{{0, 0}}, 4).ok());
  ASSERT_TRUE(s.Set(Tuple{{0, 1}}, 1).ok());
  auto j = *KRelation<TropicalSemiring>::Join(r, s);
  EXPECT_EQ(j.At(Tuple{{0, 0, 0}}), 7u);
  EXPECT_EQ(j.At(Tuple{{0, 0, 1}}), 4u);
}

TEST(KRelationTest, TropicalMarginalTakesMinimum) {
  KRelation<TropicalSemiring> r(Schema{{0, 1}});
  ASSERT_TRUE(r.Set(Tuple{{0, 0}}, 5).ok());
  ASSERT_TRUE(r.Set(Tuple{{1, 0}}, 2).ok());
  auto m = *r.Marginal(Schema{{1}});
  EXPECT_EQ(m.At(Tuple{{0}}), 2u);  // min(5, 2)
}

TEST(KRelationTest, ZeroAnnotationsLeaveSupport) {
  KRelation<CountingSemiring> r(Schema{{0}});
  ASSERT_TRUE(r.Set(Tuple{{1}}, 5).ok());
  ASSERT_TRUE(r.Set(Tuple{{1}}, 0).ok());
  EXPECT_EQ(r.SupportSize(), 0u);
  KRelation<TropicalSemiring> t(Schema{{0}});
  ASSERT_TRUE(t.Set(Tuple{{1}}, TropicalSemiring::kInfinity).ok());
  EXPECT_EQ(t.SupportSize(), 0u);
}

TEST(KRelationTest, SharedMarginalNecessityAcrossSemirings) {
  // If T marginalizes onto both R and S, then R[Z] = T[X][Z] = T[Z] =
  // T[Y][Z] = S[Z] — in ANY semiring. Sample a hidden T in each semiring
  // and check the necessary condition holds for its marginals.
  Rng rng(804);
  for (int trial = 0; trial < 10; ++trial) {
    // Counting semiring hidden witness.
    BagGenOptions options;
    options.support_size = 10;
    options.domain_size = 3;
    Bag hidden = *MakeRandomBag(Schema{{0, 1, 2}}, options, &rng);
    KRelation<CountingSemiring> t = FromBag(hidden);
    auto r = *t.Marginal(Schema{{0, 1}});
    auto s = *t.Marginal(Schema{{1, 2}});
    EXPECT_TRUE(*SharedMarginalsAgree(r, s));
    // Tropical hidden witness (costs = multiplicities).
    KRelation<TropicalSemiring> tt(Schema{{0, 1, 2}});
    for (size_t i = 0; i < hidden.SupportSize(); ++i) {
      ASSERT_TRUE(tt.Set(hidden.RowAt(i), hidden.MultiplicityAt(i)).ok());
    }
    auto rr = *tt.Marginal(Schema{{0, 1}});
    auto ss = *tt.Marginal(Schema{{1, 2}});
    EXPECT_TRUE(*SharedMarginalsAgree(rr, ss));
  }
}

TEST(KRelationTest, CountingOverflowSurfaces) {
  KRelation<CountingSemiring> r(Schema{{0, 1}});
  uint64_t half = ~uint64_t{0} / 2 + 1;
  ASSERT_TRUE(r.Set(Tuple{{0, 0}}, half).ok());
  ASSERT_TRUE(r.Set(Tuple{{1, 0}}, half).ok());
  EXPECT_FALSE(r.Marginal(Schema{{1}}).ok());
}

}  // namespace
}  // namespace bagc
