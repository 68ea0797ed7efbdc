// Tests for §5.2's reductions: 3DCT <=> GCPB(C3) (Lemma 6 base case), the
// cycle chain C_n -> C_{n+1} (Lemma 6), and the Hn chain (Lemma 7),
// including both witness-mapping directions.
#include <gtest/gtest.h>

#include "core/global.h"
#include "generators/workloads.h"
#include "core/pairwise.h"
#include "core/tseitin.h"
#include "hypergraph/families.h"
#include "reductions/cycle_chain.h"
#include "reductions/hn_chain.h"
#include "reductions/threedct.h"
#include "util/random.h"

namespace bagc {
namespace {

TEST(ThreeDctTest, FeasibleInstanceConvertsToConsistentBags) {
  Rng rng(81);
  for (int trial = 0; trial < 10; ++trial) {
    ThreeDctInstance inst = MakeFeasibleInstance(3, 4, &rng);
    BagCollection c = *ToTriangleBags(inst);
    EXPECT_EQ(c.size(), 3u);
    auto witness = *SolveGlobalConsistencyExact(c);
    ASSERT_TRUE(witness.has_value());
    EXPECT_TRUE(*c.IsWitness(*witness));
    // Convert witness back into a table and verify line sums.
    std::vector<uint64_t> table(inst.n * inst.n * inst.n, 0);
    for (size_t e = 0; e < witness->SupportSize(); ++e) {
      Tuple t = witness->RowAt(e);
      size_t i = static_cast<size_t>(t.at(0));
      size_t j = static_cast<size_t>(t.at(1));
      size_t k = static_cast<size_t>(t.at(2));
      table[(i * inst.n + j) * inst.n + k] = witness->MultiplicityAt(e);
    }
    EXPECT_TRUE(VerifyTable(inst, table));
  }
}

TEST(ThreeDctTest, PerturbationBreaksConsistency) {
  Rng rng(82);
  int broken = 0;
  for (int trial = 0; trial < 10; ++trial) {
    ThreeDctInstance inst = MakeFeasibleInstance(2, 3, &rng);
    ThreeDctInstance bad = PerturbInstance(inst, 1, &rng);
    BagCollection c = *ToTriangleBags(bad);
    auto witness = *SolveGlobalConsistencyExact(c);
    if (!witness.has_value()) ++broken;
  }
  // A +1 perturbation desynchronizes the grand totals: always infeasible.
  EXPECT_EQ(broken, 10);
}

TEST(ThreeDctTest, VerifyTableRejectsWrongShapes) {
  Rng rng(83);
  ThreeDctInstance inst = MakeFeasibleInstance(2, 2, &rng);
  EXPECT_FALSE(VerifyTable(inst, std::vector<uint64_t>(3, 0)));
  std::vector<uint64_t> zeros(8, 0);
  // All-zero table only works when all margins are zero.
  bool all_zero = true;
  for (uint64_t v : inst.row_sums) all_zero &= (v == 0);
  EXPECT_EQ(VerifyTable(inst, zeros), all_zero);
  EXPECT_FALSE(ToTriangleBags(ThreeDctInstance{}).ok());
}

TEST(ThreeDctTest, TriangleSchemaIsC3) {
  Rng rng(84);
  ThreeDctInstance inst = MakeFeasibleInstance(2, 2, &rng);
  BagCollection c = *ToTriangleBags(inst);
  EXPECT_EQ(c.hypergraph(), *MakeCycle(3));
}

// ---- Cycle chain (Lemma 6) ----

CycleInstance TseitinCycleInstance(size_t n) {
  // The Tseitin bags over Cn are exactly a (pairwise consistent, globally
  // inconsistent) cycle instance.
  std::vector<Bag> bags = *MakeTseitinCollection(*MakeCycle(n));
  // MakeTseitinCollection returns bags in canonical (sorted) edge order;
  // rearrange into cycle-edge order {i, i+1}.
  std::vector<Bag> ordered(n, Bag{});
  for (Bag& b : bags) {
    for (size_t i = 0; i < n; ++i) {
      Schema want{{static_cast<AttrId>(i), static_cast<AttrId>((i + 1) % n)}};
      if (b.schema() == want) ordered[i] = std::move(b);
    }
  }
  return *MakeCycleInstance(std::move(ordered));
}

CycleInstance ConsistentCycleInstance(size_t n, Rng* rng) {
  // Marginals of a hidden witness over A1..An.
  std::vector<AttrId> attrs(n);
  for (size_t i = 0; i < n; ++i) attrs[i] = static_cast<AttrId>(i);
  BagGenOptions options;
  options.support_size = 8;
  options.domain_size = 2;
  options.max_multiplicity = 3;
  Bag hidden = *MakeRandomBag(Schema{attrs}, options, rng);
  if (hidden.IsEmpty()) {
    EXPECT_TRUE(hidden.Set(Tuple{std::vector<Value>(n, 0)}, 1).ok());
  }
  std::vector<Bag> bags;
  for (size_t i = 0; i < n; ++i) {
    Schema e{{static_cast<AttrId>(i), static_cast<AttrId>((i + 1) % n)}};
    bags.push_back(*hidden.Marginal(e));
  }
  return *MakeCycleInstance(std::move(bags));
}

TEST(CycleChainTest, ValidatesSchemas) {
  EXPECT_FALSE(MakeCycleInstance({}).ok());
  Bag b0(Schema{{0, 1}});
  Bag b1(Schema{{1, 2}});
  Bag closing(Schema{{0, 2}});  // the C3 closing edge {A3, A1}
  EXPECT_TRUE(MakeCycleInstance({b0, b1, closing}).ok());
  Bag wrong(Schema{{1, 2}});
  EXPECT_FALSE(MakeCycleInstance({b0, b1, wrong}).ok());
}

TEST(CycleChainTest, ExtensionPreservesConsistencyStatus) {
  Rng rng(85);
  // Consistent side.
  for (int trial = 0; trial < 5; ++trial) {
    CycleInstance in = ConsistentCycleInstance(3, &rng);
    CycleInstance out = *ExtendCycle(in);
    EXPECT_EQ(out.n, 4u);
    BagCollection cin = *ToCollection(in);
    BagCollection cout = *ToCollection(out);
    EXPECT_TRUE(SolveGlobalConsistencyExact(cin)->has_value());
    EXPECT_TRUE(SolveGlobalConsistencyExact(cout)->has_value());
  }
  // Inconsistent side (Tseitin).
  CycleInstance bad = TseitinCycleInstance(3);
  CycleInstance bad4 = *ExtendCycle(bad);
  EXPECT_FALSE(SolveGlobalConsistencyExact(*ToCollection(bad4))->has_value());
  // The extension is even pairwise consistent (the reduction preserves
  // the local structure).
  EXPECT_TRUE(*ArePairwiseConsistent(*ToCollection(bad4)));
}

TEST(CycleChainTest, WitnessMapsBothWays) {
  Rng rng(86);
  CycleInstance in = ConsistentCycleInstance(3, &rng);
  CycleInstance out = *ExtendCycle(in);
  BagCollection cin = *ToCollection(in);
  BagCollection cout = *ToCollection(out);
  auto w_in = *SolveGlobalConsistencyExact(cin);
  ASSERT_TRUE(w_in.has_value());
  // Forward: extend the witness.
  Bag w_out = *ExtendCycleWitness(in, *w_in);
  EXPECT_TRUE(*cout.IsWitness(w_out));
  // Backward: restrict a witness of the extension.
  Bag w_back = *RestrictCycleWitness(in, w_out);
  EXPECT_TRUE(*cin.IsWitness(w_back));
}

TEST(CycleChainTest, IteratedExtensionReachesLargerCycles) {
  CycleInstance cur = TseitinCycleInstance(3);
  for (size_t n = 3; n < 6; ++n) {
    cur = *ExtendCycle(cur);
    EXPECT_EQ(cur.n, n + 1);
    BagCollection c = *ToCollection(cur);
    EXPECT_TRUE(*ArePairwiseConsistent(c));
    EXPECT_FALSE(SolveGlobalConsistencyExact(c)->has_value());
  }
}

// ---- Hn chain (Lemma 7) ----

HnInstance TseitinHnInstance(size_t n) {
  std::vector<Bag> bags = *MakeTseitinCollection(*MakeHn(n));
  // Canonical edge order of Hn: sorted lexicographically. Rearrange so
  // bags[i] misses attribute i.
  std::vector<Bag> ordered(n, Bag{});
  for (Bag& b : bags) {
    for (size_t i = 0; i < n; ++i) {
      if (!b.schema().Contains(static_cast<AttrId>(i))) {
        ordered[i] = std::move(b);
        break;
      }
    }
  }
  return *MakeHnInstance(std::move(ordered));
}

HnInstance ConsistentHnInstance(size_t n, Rng* rng) {
  std::vector<AttrId> attrs(n);
  for (size_t i = 0; i < n; ++i) attrs[i] = static_cast<AttrId>(i);
  BagGenOptions options;
  options.support_size = 6;
  options.domain_size = 2;
  options.max_multiplicity = 3;
  Bag hidden = *MakeRandomBag(Schema{attrs}, options, rng);
  if (hidden.IsEmpty()) {
    EXPECT_TRUE(hidden.Set(Tuple{std::vector<Value>(n, 0)}, 1).ok());
  }
  std::vector<Bag> bags;
  for (size_t i = 0; i < n; ++i) {
    std::vector<AttrId> e;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) e.push_back(static_cast<AttrId>(j));
    }
    bags.push_back(*hidden.Marginal(Schema{e}));
  }
  return *MakeHnInstance(std::move(bags));
}

TEST(HnChainTest, ValidatesSchemas) {
  EXPECT_FALSE(MakeHnInstance({}).ok());
  Bag b0(Schema{{1, 2}});
  Bag b1(Schema{{0, 2}});
  Bag wrong(Schema{{1, 2}});
  EXPECT_FALSE(MakeHnInstance({b0, b1, wrong}).ok());  // wants {0, 1}
}

TEST(HnChainTest, ExtensionPreservesConsistencyStatus) {
  Rng rng(87);
  for (int trial = 0; trial < 3; ++trial) {
    HnInstance in = ConsistentHnInstance(3, &rng);
    HnInstance out = *ExtendHn(in);
    EXPECT_EQ(out.n, 4u);
    EXPECT_TRUE(SolveGlobalConsistencyExact(*ToCollection(in))->has_value());
    EXPECT_TRUE(SolveGlobalConsistencyExact(*ToCollection(out))->has_value());
  }
  HnInstance bad = TseitinHnInstance(3);
  EXPECT_FALSE(SolveGlobalConsistencyExact(*ToCollection(bad))->has_value());
  HnInstance bad4 = *ExtendHn(bad);
  EXPECT_FALSE(SolveGlobalConsistencyExact(*ToCollection(bad4))->has_value());
}

TEST(HnChainTest, WitnessMapsBothWays) {
  Rng rng(88);
  HnInstance in = ConsistentHnInstance(3, &rng);
  HnInstance out = *ExtendHn(in);
  BagCollection cin = *ToCollection(in);
  BagCollection cout = *ToCollection(out);
  auto w_in = *SolveGlobalConsistencyExact(cin);
  ASSERT_TRUE(w_in.has_value());
  Bag w_out = *ExtendHnWitness(in, *w_in);
  EXPECT_TRUE(*cout.IsWitness(w_out));
  Bag w_back = *RestrictHnWitness(in, w_out);
  EXPECT_TRUE(*cin.IsWitness(w_back));
}

TEST(HnChainTest, EmptyActiveDomainRejected) {
  Bag b0(Schema{{1, 2}});
  Bag b1(Schema{{0, 2}});
  Bag b2(Schema{{0, 1}});
  HnInstance in = *MakeHnInstance({b0, b1, b2});
  EXPECT_FALSE(ExtendHn(in).ok());
}

}  // namespace
}  // namespace bagc
