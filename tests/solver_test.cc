// Unit tests for the LP builder, the exact integer-feasibility solver, and
// the rational closed-form solution of Lemma 2, plus the program oracle:
// the CSR program and its iterative search against a test-local
// Tuple-at-a-time builder (nested-loop join, per-row projections) and a
// recursive search with the same variable order, value order and node
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "bag/bag.h"
#include "core/collection.h"
#include "core/tseitin.h"
#include "core/two_bag.h"
#include "engine/consistency_engine.h"
#include "generators/workloads.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/families.h"
#include "reductions/cycle_chain.h"
#include "reductions/threedct.h"
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
  for (size_t k = 0; k < lp.rows.size(); ++k) {
    for (uint32_t v : lp.rows.VarsOf(k)) ++count[v];
  }
  for (size_t c : count) EXPECT_EQ(c, 2u);
  EXPECT_EQ(lp.NumNonZeros(), 8u);
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

// ---- The program oracle ----

// Today's row rules, one Tuple at a time: per bag, one row per support
// tuple holding the variables that project onto it, then one rhs-0 row
// per projection outside the support, in tuple order.
struct OracleRow {
  size_t bag;
  Tuple marginal;
  uint64_t rhs;
  std::vector<uint32_t> vars;
};

struct OracleLp {
  Schema joined;
  std::vector<Tuple> variables;
  std::vector<OracleRow> rows;
};

Schema UnionSchema(const std::vector<Bag>& bags) {
  std::vector<Schema> schemas;
  for (const Bag& b : bags) schemas.push_back(b.schema());
  return Schema::UnionAll(schemas);
}

OracleLp OracleProgram(const std::vector<Bag>& bags, std::vector<Tuple> variables) {
  OracleLp lp;
  lp.joined = UnionSchema(bags);
  std::sort(variables.begin(), variables.end());
  variables.erase(std::unique(variables.begin(), variables.end()), variables.end());
  lp.variables = std::move(variables);
  for (size_t i = 0; i < bags.size(); ++i) {
    const Bag& bag = bags[i];
    Projector proj = *Projector::Make(lp.joined, bag.schema());
    std::map<Tuple, std::vector<uint32_t>> by_key;
    for (size_t v = 0; v < lp.variables.size(); ++v) {
      by_key[lp.variables[v].Project(proj)].push_back(static_cast<uint32_t>(v));
    }
    for (size_t e = 0; e < bag.SupportSize(); ++e) {
      Tuple r = bag.RowAt(e);
      auto it = by_key.find(r);
      std::vector<uint32_t> vars;
      if (it != by_key.end()) {
        vars = std::move(it->second);
        by_key.erase(it);
      }
      lp.rows.push_back({i, r, bag.MultiplicityAt(e), std::move(vars)});
    }
    for (auto& [key, vars] : by_key) lp.rows.push_back({i, key, 0, std::move(vars)});
  }
  return lp;
}

// The CSR program equals the oracle: same variables in the same order,
// same rows (bag, tuple, rhs, vars) in the same order.
void ExpectSameProgram(const ConsistencyLp& got, const OracleLp& want,
                       const std::vector<Bag>& bags) {
  EXPECT_EQ(got.joined_schema, want.joined);
  ASSERT_EQ(got.variables.size(), want.variables.size());
  for (size_t v = 0; v < want.variables.size(); ++v) {
    ASSERT_EQ(got.variables.RowAt(v), want.variables[v]) << "variable " << v;
  }
  ASSERT_EQ(got.rows.size(), want.rows.size());
  ASSERT_EQ(got.rows.offsets.size(), want.rows.size() + 1);
  for (size_t k = 0; k < want.rows.size(); ++k) {
    SCOPED_TRACE("row " + std::to_string(k));
    const OracleRow& row = want.rows[k];
    ASSERT_EQ(got.rows.bag[k], row.bag);
    LpRows::Vars vars = got.rows.VarsOf(k);
    EXPECT_EQ(std::vector<uint32_t>(vars.begin(), vars.end()), row.vars);
    EXPECT_EQ(got.rows.rhs[k], row.rhs);
    const Bag& bag = bags[row.bag];
    if (got.rows.support_row[k] == LpRows::kOutsideSupport) {
      ASSERT_FALSE(vars.empty());
      Projector proj = *Projector::Make(got.joined_schema, bag.schema());
      EXPECT_EQ(got.variables.RowAt(vars[0]).Project(proj), row.marginal);
      EXPECT_EQ(row.rhs, 0u);
    } else {
      EXPECT_EQ(bag.RowAt(got.rows.support_row[k]), row.marginal);
    }
  }
}

// Today's recursive search over the oracle program: variables in index
// order, values from the upper bound down (or up), a row's last variable
// forced to pay its residual, one node per value tried.
class OracleSearch {
 public:
  OracleSearch(const OracleLp& lp, const SolveOptions& options)
      : options_(options), var_rows_(lp.variables.size()),
        assignment_(lp.variables.size(), 0) {
    for (size_t k = 0; k < lp.rows.size(); ++k) {
      residual_.push_back(lp.rows[k].rhs);
      remaining_.push_back(lp.rows[k].vars.size());
      for (uint32_t v : lp.rows[k].vars) var_rows_[v].push_back(k);
    }
  }

  // Calls on(x) per solution until it returns true. False when the node
  // limit ran out.
  bool Run(const std::function<bool(const std::vector<uint64_t>&)>& on) {
    for (size_t k = 0; k < residual_.size(); ++k) {
      if (remaining_[k] == 0 && residual_[k] != 0) return true;
    }
    Dfs(0, on);
    return !exhausted_;
  }

  uint64_t nodes() const { return nodes_; }

 private:
  void Dfs(size_t v, const std::function<bool(const std::vector<uint64_t>&)>& on) {
    if (v == assignment_.size()) {
      for (uint64_t r : residual_) {
        if (r != 0) return;
      }
      stop_ = on(assignment_);
      return;
    }
    uint64_t ub = var_rows_[v].empty() ? 0 : UINT64_MAX;
    for (size_t k : var_rows_[v]) ub = std::min(ub, residual_[k]);
    std::optional<uint64_t> forced;
    for (size_t k : var_rows_[v]) {
      if (remaining_[k] != 1) continue;
      if (forced.has_value() && *forced != residual_[k]) return;
      forced = residual_[k];
    }
    if (forced.has_value() && *forced > ub) return;
    std::vector<uint64_t> values;
    if (forced.has_value()) {
      values.push_back(*forced);
    } else {
      for (uint64_t x = 0; x <= ub; ++x) values.push_back(x);
      if (options_.descend_values) std::reverse(values.begin(), values.end());
    }
    for (uint64_t x : values) {
      if (exhausted_ || stop_) return;
      if (++nodes_ > options_.node_limit) {
        exhausted_ = true;
        return;
      }
      assignment_[v] = x;
      for (size_t k : var_rows_[v]) residual_[k] -= x, --remaining_[k];
      Dfs(v + 1, on);
      for (size_t k : var_rows_[v]) residual_[k] += x, ++remaining_[k];
      assignment_[v] = 0;
    }
  }

  SolveOptions options_;
  std::vector<std::vector<size_t>> var_rows_;
  std::vector<uint64_t> residual_;
  std::vector<size_t> remaining_;
  std::vector<uint64_t> assignment_;
  uint64_t nodes_ = 0;
  bool stop_ = false;
  bool exhausted_ = false;
};

// The iterative search agrees with the recursive oracle: the first
// solution and its node count, in both value orders, and the full
// enumeration and count.
void ExpectSameSearch(const ConsistencyLp& got, const OracleLp& want) {
  for (bool descend : {true, false}) {
    SCOPED_TRACE(descend ? "descending" : "ascending");
    SolveOptions options;
    options.descend_values = descend;
    options.node_limit = 200'000;
    OracleSearch oracle(want, options);
    std::optional<std::vector<uint64_t>> first;
    bool finished = oracle.Run([&](const std::vector<uint64_t>& x) {
      first = x;
      return true;
    });
    SolveStats stats;
    Result<std::optional<std::vector<uint64_t>>> solved =
        SolveIntegerFeasibility(got, options, &stats);
    ASSERT_EQ(solved.ok(), finished) << solved.status().ToString();
    EXPECT_EQ(stats.nodes, oracle.nodes());
    if (finished) {
      EXPECT_EQ(*solved, first);
    }
  }
  SolveOptions options;
  options.node_limit = 200'000;
  constexpr size_t kLimit = 2'000;
  OracleSearch oracle(want, options);
  std::vector<std::vector<uint64_t>> all;
  bool finished = oracle.Run([&](const std::vector<uint64_t>& x) {
    all.push_back(x);
    return all.size() >= kLimit;
  });
  if (!finished) return;  // too many nodes to enumerate here
  auto listed = EnumerateIntegerSolutions(got, kLimit, options);
  auto counted = CountIntegerSolutions(got, kLimit, options);
  if (all.size() >= kLimit) {
    EXPECT_EQ(listed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(counted.status().code(), StatusCode::kResourceExhausted);
  } else {
    EXPECT_EQ(*listed, all);
    EXPECT_EQ(*counted, all.size());
  }
}

// The program and the search through the engine: SolveGlobalExact's
// witness bytes equal the oracle's first solution read out through a
// BagBuilder, Global() agrees, and KWISE reports the oracle's first
// failing subset for every k.
void ExpectSameEngineAnswers(const BagCollection& c) {
  ConsistencyEngine engine = *ConsistencyEngine::Make(c);
  const std::vector<Bag>& bags = c.bags();
  size_t unused = 0;
  auto oracle_feasible = [&](const std::vector<Bag>& sub) -> std::optional<Bag> {
    OracleLp lp = OracleProgram(sub, NestedLoopJoin(sub, &unused));
    std::optional<Bag> witness;
    OracleSearch(lp, {}).Run([&](const std::vector<uint64_t>& x) {
      BagBuilder builder(lp.joined);
      for (size_t v = 0; v < x.size(); ++v) {
        if (x[v] > 0) {
          EXPECT_TRUE(builder.Add(lp.variables[v], x[v]).ok());
        }
      }
      witness = *builder.Build();
      return true;
    });
    return witness;
  };
  bool pairwise = true;
  for (size_t i = 0; i < bags.size(); ++i) {
    for (size_t j = i + 1; j < bags.size(); ++j) {
      pairwise = pairwise && *AreConsistent(bags[i], bags[j]);
    }
  }
  std::optional<Bag> want = pairwise ? oracle_feasible(bags) : std::nullopt;
  std::optional<Bag> got = *engine.SolveGlobalExact();
  ASSERT_EQ(got.has_value(), want.has_value());
  if (want.has_value()) {
    EXPECT_EQ(*got, *want);
  }
  if (!IsAcyclic(c.hypergraph())) {
    EXPECT_EQ(*engine.Global(), want.has_value());
  }

  for (size_t k = 2; k <= bags.size(); ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::optional<std::vector<size_t>> want_failing;
    std::vector<size_t> idx(k);
    for (size_t i = 0; i < k; ++i) idx[i] = i;
    while (!want_failing.has_value()) {
      std::vector<Bag> sub;
      std::vector<Schema> edges;
      bool ok = true;
      for (size_t a = 0; a < k; ++a) {
        sub.push_back(bags[idx[a]]);
        edges.push_back(bags[idx[a]].schema());
        for (size_t b = a + 1; b < k; ++b) {
          ok = ok && *AreConsistent(bags[idx[a]], bags[idx[b]]);
        }
      }
      if (ok && !IsAcyclic(*Hypergraph::FromEdges(edges))) {
        ok = oracle_feasible(sub).has_value();
      }
      if (!ok) {
        want_failing = idx;
        break;
      }
      size_t i = k;
      while (i > 0 && idx[i - 1] == i - 1 + bags.size() - k) --i;
      if (i == 0) break;
      ++idx[i - 1];
      for (size_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
    }
    std::optional<std::vector<size_t>> got_failing;
    EXPECT_EQ(*engine.KWiseConsistent(k, &got_failing), !want_failing.has_value());
    EXPECT_EQ(got_failing, want_failing);
  }
}

// BuildConsistencyLp equals the oracle over the nested-loop J, field by
// field, the search agrees, and the cap fails exactly past the largest
// join step.
void ExpectLpMatchesOracle(const std::vector<Bag>& bags) {
  size_t max_step = 0;
  std::vector<Tuple> join = NestedLoopJoin(bags, &max_step);
  OracleLp want = OracleProgram(bags, join);
  Result<ConsistencyLp> got = BuildConsistencyLp(bags);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->variables.size(), join.size());
  ExpectSameProgram(*got, want, bags);
  ExpectSameSearch(*got, want);
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

TEST(ProgramOracleTest, RestrictedVariablesMatchOracle) {
  // Variable sets mixing join tuples with tuples that project outside
  // some support, so both kinds of row appear.
  Rng rng(2203);
  BagGenOptions options;
  options.domain_size = 3;
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    options.support_size = 3 + static_cast<size_t>(trial % 6);
    Hypergraph cycle = *MakeCycle(3 + trial % 2);
    std::vector<Bag> bags;
    for (const Schema& edge : cycle.edges()) {
      bags.push_back(*MakeRandomBag(edge, options, &rng));
    }
    size_t unused = 0;
    std::vector<Tuple> vars = NestedLoopJoin(bags, &unused);
    const size_t arity = UnionSchema(bags).arity();
    for (int extra = 0; extra < 6; ++extra) {
      std::vector<Value> values(arity);
      for (Value& x : values) x = static_cast<Value>(rng.Below(4));
      vars.emplace_back(values);
    }
    if (!vars.empty()) vars.push_back(vars.front());  // a duplicate
    ExpectSameProgram(*BuildLpWithVariables(bags, vars), OracleProgram(bags, vars), bags);
    ExpectSameSearch(*BuildLpWithVariables(bags, vars), OracleProgram(bags, vars));
  }
}

// The engine_differential_test workloads: acyclic and C3 collections,
// consistent by construction, half of them perturbed.
BagCollection DifferentialWorkload(uint64_t seed) {
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
  BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);
  if (!rng.Chance(1, 2)) return c;
  std::vector<Bag> bags = c.bags();
  Bag& victim = bags[rng.Below(bags.size())];
  if (victim.IsEmpty()) {
    EXPECT_TRUE(victim.Set(Tuple{std::vector<Value>(victim.schema().arity(), 0)}, 1).ok());
  } else {
    size_t pick = rng.Below(victim.SupportSize());
    EXPECT_TRUE(victim.Set(victim.RowAt(pick), victim.MultiplicityAt(pick) + 1).ok());
  }
  return *BagCollection::Make(std::move(bags));
}

TEST(ProgramOracleTest, MatchesOracleOn200Workloads) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BagCollection c = DifferentialWorkload(seed);
    ExpectLpMatchesOracle(c.bags());
    ExpectSameEngineAnswers(c);
  }
}

TEST(ProgramOracleTest, MatchesOracleOnSolverAndReductionInstances) {
  Rng rng(2204);
  std::vector<BagCollection> instances;
  instances.push_back(*BagCollection::Make(TwoBagExample()));
  for (size_t n : {3u, 4u}) {
    BagGenOptions options;
    options.domain_size = 3;
    options.support_size = 6;
    instances.push_back(*MakeGloballyConsistentCollection(*MakeCycle(n), options, &rng));
  }
  // 3DCT triangles (Lemma 6), feasible and perturbed.
  for (int trial = 0; trial < 4; ++trial) {
    ThreeDctInstance inst = MakeFeasibleInstance(2 + trial % 2, 3, &rng);
    instances.push_back(*ToTriangleBags(inst));
    instances.push_back(*ToTriangleBags(PerturbInstance(inst, 1, &rng)));
  }
  // Tseitin collections: pairwise consistent, globally inconsistent, so
  // the search exhausts its tree.
  for (size_t n : {3u, 4u, 5u}) {
    instances.push_back(*BagCollection::Make(*MakeTseitinCollection(*MakeCycle(n))));
  }
  instances.push_back(*BagCollection::Make(*MakeTseitinCollection(*MakeHn(3))));
  // One step of the Lemma 6 cycle chain.
  std::vector<Bag> cycle_bags;
  {
    BagGenOptions options;
    options.domain_size = 2;
    options.support_size = 4;
    BagCollection c3 = *MakeGloballyConsistentCollection(*MakeCycle(3), options, &rng);
    for (size_t i = 0; i < 3; ++i) {
      Schema want{{static_cast<AttrId>(i), static_cast<AttrId>((i + 1) % 3)}};
      for (const Bag& b : c3.bags()) {
        if (b.schema() == want) cycle_bags.push_back(b);
      }
    }
  }
  CycleInstance cycle = *MakeCycleInstance(cycle_bags);
  instances.push_back(*ToCollection(*ExtendCycle(cycle)));
  for (size_t i = 0; i < instances.size(); ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    ExpectLpMatchesOracle(instances[i].bags());
    ExpectSameEngineAnswers(instances[i]);
  }
}

TEST(LpTest, FullProductCycleIsRefusedBeforeTheJoinIsBuilt) {
  // Four pairwise consistent 48 x 48 full products on C4: J would hold
  // 48^4 > 2^22 tuples. The second fold step's pair count is past the
  // cap, so the builder refuses from group sizes alone.
  std::vector<Bag> bags;
  Hypergraph c4 = *MakeCycle(4);
  for (const Schema& edge : c4.edges()) {
    BagBuilder builder(edge);
    for (Value a = 0; a < 48; ++a) {
      for (Value b = 0; b < 48; ++b) ASSERT_TRUE(builder.Add(Tuple{{a, b}}, 1).ok());
    }
    bags.push_back(*builder.Build());
  }
  Result<ConsistencyLp> lp = BuildConsistencyLp(bags);
  ASSERT_EQ(lp.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(lp.status().message(), "join support exceeds cap (4194304)");
  ConsistencyEngine engine = *ConsistencyEngine::Make(*BagCollection::Make(bags));
  EXPECT_EQ(engine.Global().status().code(), StatusCode::kResourceExhausted);
}

TEST(IntegerFeasibilityTest, DeepProgramSolvesOnADefaultStackThread) {
  // A consistent C4 with 2^17 rows per bag: over 2^17 variables, one
  // search frame each. A recursive search overflows a default 8 MB
  // thread stack well before this depth.
  Rng rng(2205);
  BagGenOptions options;
  options.support_size = size_t{1} << 17;
  options.domain_size = size_t{1} << 17;
  options.max_multiplicity = 8;
  BagCollection c = *MakeGloballyConsistentCollection(*MakeCycle(4), options, &rng);
  size_t vars = 0;
  bool solved = false;
  bool global = false;
  std::thread worker([&] {
    ConsistencyLp lp = *BuildConsistencyLp(c.bags());
    vars = lp.variables.size();
    solved = SolveIntegerFeasibility(lp)->has_value();
    global = *ConsistencyEngine::Make(c)->Global();
  });
  worker.join();
  EXPECT_GE(vars, size_t{1} << 17);
  EXPECT_TRUE(solved);
  EXPECT_TRUE(global);
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
    for (size_t k = 0; k < lp.rows.size(); ++k) {
      uint64_t sum = 0;
      for (uint32_t v : lp.rows.VarsOf(k)) sum += (*solution)[v];
      EXPECT_EQ(sum, lp.rows.rhs[k]);
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
