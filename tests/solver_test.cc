// Unit tests for the LP builder, the exact integer-feasibility solver, and
// the rational closed-form solution of Lemma 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "bag/bag.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "solver/integer_feasibility.h"
#include "solver/lp.h"
#include "solver/rational_witness.h"
#include "util/random.h"

namespace bagc {
namespace {

std::vector<Bag> TwoBagExample() {
  // The §3 example: R1(AB) = {(1,2):1, (2,2):1}, S1(BC) = {(2,1):1, (2,2):1}.
  Bag r = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 1}, {{2, 2}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{2, 1}, 1}, {{2, 2}, 1}});
  return {r, s};
}

TEST(LpTest, BuildTwoBagProgram) {
  ConsistencyLp lp = *BuildConsistencyLp(TwoBagExample());
  EXPECT_EQ(lp.joined_schema, Schema({0, 1, 2}));
  EXPECT_EQ(lp.variables.size(), 4u);  // 2x2 join
  // 2 + 2 support rows; no zero rows (all projections hit supports).
  EXPECT_EQ(lp.rows.size(), 4u);
  // Every variable appears in exactly one row per bag.
  std::vector<size_t> count(lp.variables.size(), 0);
  for (const LpRow& row : lp.rows) {
    for (uint32_t v : row.vars) ++count[v];
  }
  for (size_t c : count) EXPECT_EQ(c, 2u);
}

TEST(LpTest, JoinCapIsEnforced) {
  std::vector<Bag> bags;
  // Three bags over disjoint schemas with 8 tuples each: join support 512.
  for (AttrId a = 0; a < 3; ++a) {
    Bag b(Schema{{a}});
    for (Value v = 0; v < 8; ++v) {
      ASSERT_TRUE(b.Set(Tuple{{v}}, 1).ok());
    }
    bags.push_back(std::move(b));
  }
  EXPECT_FALSE(BuildConsistencyLp(bags, 100).ok());
  EXPECT_TRUE(BuildConsistencyLp(bags, 512).ok());
}

TEST(LpTest, BuildWithRestrictedVariables) {
  auto bags = TwoBagExample();
  // Restrict to the two tuples of the witness T1 from the paper.
  std::vector<Tuple> vars = {Tuple{{1, 2, 2}}, Tuple{{2, 2, 1}}};
  ConsistencyLp lp = *BuildLpWithVariables(bags, vars);
  EXPECT_EQ(lp.variables.size(), 2u);
  auto solution = *SolveIntegerFeasibility(lp);
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 1u);
  EXPECT_EQ((*solution)[1], 1u);
}

TEST(LpTest, RestrictedVariablesRejectBadArity) {
  auto bags = TwoBagExample();
  EXPECT_FALSE(BuildLpWithVariables(bags, {Tuple{{1, 2}}}).ok());
}

// The join oracle: a nested-loop fold, in bag order, of attribute ->
// value assignments, read out as tuples over the union schema.
// *max_step is the largest intermediate join after the first bag.
std::vector<Tuple> NestedLoopJoin(const std::vector<Bag>& bags, size_t* max_step) {
  std::vector<std::map<AttrId, ValueId>> acc = {{}};
  *max_step = 0;
  for (size_t b = 0; b < bags.size(); ++b) {
    const Bag& bag = bags[b];
    std::vector<std::map<AttrId, ValueId>> next;
    for (const std::map<AttrId, ValueId>& partial : acc) {
      for (size_t r = 0; r < bag.SupportSize(); ++r) {
        std::map<AttrId, ValueId> joined = partial;
        bool agrees = true;
        for (size_t c = 0; c < bag.schema().arity() && agrees; ++c) {
          auto [it, fresh] = joined.emplace(bag.schema().at(c), bag.IdAt(r, c));
          agrees = fresh || it->second == bag.IdAt(r, c);
        }
        if (agrees) next.push_back(std::move(joined));
      }
    }
    acc = std::move(next);
    if (b > 0) *max_step = std::max(*max_step, acc.size());
  }
  std::vector<Tuple> out;
  for (const std::map<AttrId, ValueId>& assignment : acc) {
    std::vector<ValueId> ids;
    for (const auto& [attr, id] : assignment) ids.push_back(id);
    out.push_back(Tuple::OfIds(std::move(ids)));
  }
  return out;
}

void ExpectSameLp(const ConsistencyLp& got, const ConsistencyLp& want) {
  EXPECT_EQ(got.joined_schema, want.joined_schema);
  EXPECT_EQ(got.variables, want.variables);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t i = 0; i < got.rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(got.rows[i].bag_index, want.rows[i].bag_index);
    EXPECT_EQ(got.rows[i].marginal_tuple, want.rows[i].marginal_tuple);
    EXPECT_EQ(got.rows[i].rhs, want.rows[i].rhs);
    EXPECT_EQ(got.rows[i].vars, want.rows[i].vars);
  }
}

// BuildConsistencyLp equals BuildLpWithVariables over the oracle's J,
// field by field, and its cap fails exactly past the largest join step.
void ExpectLpMatchesOracle(const std::vector<Bag>& bags) {
  size_t max_step = 0;
  std::vector<Tuple> join = NestedLoopJoin(bags, &max_step);
  ConsistencyLp want = *BuildLpWithVariables(bags, join);
  Result<ConsistencyLp> got = BuildConsistencyLp(bags);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->variables.size(), join.size());
  ExpectSameLp(*got, want);
  if (bags.size() > 1) {
    ASSERT_TRUE(BuildConsistencyLp(bags, max_step).ok());
    if (max_step > 0) {
      EXPECT_EQ(BuildConsistencyLp(bags, max_step - 1).status().code(),
                StatusCode::kResourceExhausted);
    }
  }
}

TEST(LpTest, BuilderMatchesNestedLoopJoinOracle) {
  Rng rng(2201);
  BagGenOptions options;
  options.domain_size = 3;
  for (size_t n : {3u, 4u}) {
    Hypergraph cycle = *MakeCycle(n);
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE("C" + std::to_string(n) + " trial " + std::to_string(trial));
      options.support_size = 4 + static_cast<size_t>(trial);
      std::vector<Bag> bags;
      for (const Schema& edge : cycle.edges()) {
        bags.push_back(*MakeRandomBag(edge, options, &rng));
      }
      ExpectLpMatchesOracle(bags);
      // A consistent collection has a non-empty J with every row covered.
      ExpectLpMatchesOracle(
          MakeGloballyConsistentCollection(cycle, options, &rng)->bags());
    }
  }
}

TEST(LpTest, BuilderMatchesOracleOnEmptyBagAndCartesianProduct) {
  Rng rng(2202);
  BagGenOptions options;
  options.support_size = 5;
  Hypergraph cycle = *MakeCycle(3);
  std::vector<Bag> bags;
  for (const Schema& edge : cycle.edges()) {
    bags.push_back(*MakeRandomBag(edge, options, &rng));
  }
  // An empty bag empties J: every row of the other bags has no variable.
  for (size_t empty = 0; empty < bags.size(); ++empty) {
    SCOPED_TRACE("empty bag " + std::to_string(empty));
    std::vector<Bag> with_empty = bags;
    with_empty[empty] = Bag(bags[empty].schema());
    ConsistencyLp lp = *BuildConsistencyLp(with_empty);
    EXPECT_TRUE(lp.variables.empty());
    ExpectLpMatchesOracle(with_empty);
  }
  // Disjoint schemas: J is the cartesian product, and each join step is
  // larger than the last, so the cap boundary is |J| itself.
  std::vector<Bag> disjoint = {*MakeRandomBag(Schema{{0, 1}}, options, &rng),
                               *MakeRandomBag(Schema{{2}}, options, &rng),
                               *MakeRandomBag(Schema{{3, 4}}, options, &rng)};
  size_t product = 1;
  for (const Bag& b : disjoint) product *= b.SupportSize();
  ExpectLpMatchesOracle(disjoint);
  EXPECT_TRUE(BuildConsistencyLp(disjoint, product).ok());
  EXPECT_FALSE(BuildConsistencyLp(disjoint, product - 1).ok());
  EXPECT_EQ(BuildConsistencyLp(disjoint)->variables.size(), product);
}

TEST(IntegerFeasibilityTest, PaperExampleHasExactlyTwoWitnesses) {
  // §3: the consistency of R1 and S1 is witnessed by exactly the bags T1
  // and T2 — and no other.
  ConsistencyLp lp = *BuildConsistencyLp(TwoBagExample());
  auto solutions = *EnumerateIntegerSolutions(lp);
  EXPECT_EQ(solutions.size(), 2u);
  EXPECT_EQ(*CountIntegerSolutions(lp), 2u);
}

TEST(IntegerFeasibilityTest, InfeasibleDetected) {
  Bag r = *MakeBag(Schema{{0, 1}}, {{{0, 0}, 2}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{0, 0}, 1}});
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  auto solution = *SolveIntegerFeasibility(lp);
  EXPECT_FALSE(solution.has_value());
  EXPECT_EQ(*CountIntegerSolutions(lp), 0u);
}

TEST(IntegerFeasibilityTest, EmptyJoinWithNonzeroRhsInfeasible) {
  // Supports do not join at all: rows have no variables.
  Bag r = *MakeBag(Schema{{0, 1}}, {{{0, 5}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{6, 0}, 1}});
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  EXPECT_TRUE(lp.variables.empty());
  auto solution = *SolveIntegerFeasibility(lp);
  EXPECT_FALSE(solution.has_value());
}

TEST(IntegerFeasibilityTest, NodeLimitReported) {
  // A moderately large feasible instance with a tiny node budget.
  Rng rng(3);
  BagGenOptions options;
  options.support_size = 64;
  options.domain_size = 8;
  auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  SolveOptions limited;
  limited.node_limit = 3;
  auto result = SolveIntegerFeasibility(lp, limited);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(IntegerFeasibilityTest, SolutionSatisfiesAllRows) {
  Rng rng(11);
  BagGenOptions options;
  options.support_size = 10;
  options.domain_size = 3;
  for (int trial = 0; trial < 20; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    ConsistencyLp lp = *BuildConsistencyLp({r, s});
    SolveStats stats;
    auto solution = *SolveIntegerFeasibility(lp, {}, &stats);
    ASSERT_TRUE(solution.has_value());
    EXPECT_GT(stats.nodes, 0u);
    for (const LpRow& row : lp.rows) {
      uint64_t sum = 0;
      for (uint32_t v : row.vars) sum += (*solution)[v];
      EXPECT_EQ(sum, row.rhs);
    }
  }
}

TEST(IntegerFeasibilityTest, AscendingValueOrderAlsoWorks) {
  ConsistencyLp lp = *BuildConsistencyLp(TwoBagExample());
  SolveOptions opts;
  opts.descend_values = false;
  auto solution = *SolveIntegerFeasibility(lp, opts);
  EXPECT_TRUE(solution.has_value());
  EXPECT_EQ(*CountIntegerSolutions(lp, 1u << 20, opts), 2u);
}

TEST(IntegerFeasibilityTest, CountLimitReported) {
  ConsistencyLp lp = *BuildConsistencyLp(TwoBagExample());
  auto result = CountIntegerSolutions(lp, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(RationalWitnessTest, ClosedFormSolvesConsistentPairs) {
  Rng rng(29);
  BagGenOptions options;
  options.support_size = 14;
  options.domain_size = 3;
  for (int trial = 0; trial < 25; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    ConsistencyLp lp = *BuildConsistencyLp({r, s});
    RationalSolution sol = *BuildRationalSolution(r, s, lp);
    EXPECT_TRUE(*VerifyRationalSolution(lp, sol));
  }
}

TEST(RationalWitnessTest, InconsistentPairRejected) {
  Rng rng(31);
  BagGenOptions options;
  options.support_size = 10;
  options.domain_size = 3;
  auto [r, s] = *MakeInconsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  auto result = BuildRationalSolution(r, s, lp);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RationalWitnessTest, VerifierRejectsWrongSolutions) {
  auto bags = TwoBagExample();
  ConsistencyLp lp = *BuildConsistencyLp(bags);
  RationalSolution sol = *BuildRationalSolution(bags[0], bags[1], lp);
  EXPECT_TRUE(*VerifyRationalSolution(lp, sol));
  // Corrupt one entry.
  sol.values[0] = *Rational::Add(sol.values[0], Rational(1));
  EXPECT_FALSE(*VerifyRationalSolution(lp, sol));
  // Wrong size.
  sol.values.pop_back();
  EXPECT_FALSE(VerifyRationalSolution(lp, sol).ok());
}

TEST(RationalWitnessTest, FractionalVerticesArePossible) {
  // The closed-form solution is generally fractional: R(AB)={(0,0):1,(1,0):1},
  // S(BC)={(0,0):1,(0,1):1} gives x_t = 1*1/2 for all four join tuples.
  Bag r = *MakeBag(Schema{{0, 1}}, {{{0, 0}, 1}, {{1, 0}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{0, 0}, 1}, {{0, 1}, 1}});
  ConsistencyLp lp = *BuildConsistencyLp({r, s});
  RationalSolution sol = *BuildRationalSolution(r, s, lp);
  ASSERT_EQ(sol.values.size(), 4u);
  for (const Rational& v : sol.values) {
    EXPECT_EQ(v, *Rational::Make(1, 2));
  }
  // Hoffman–Kruskal: the polytope nonetheless has integral points (the
  // integer solver finds one).
  auto integral = *SolveIntegerFeasibility(lp);
  EXPECT_TRUE(integral.has_value());
}

}  // namespace
}  // namespace bagc
