// Unit tests for the join, the LP builder, the exact integer-feasibility
// solver, and the rational closed-form solution of Lemma 2, plus the
// program oracle: the leapfrog join against a nested-loop join, the CSR
// program against a test-local Tuple-at-a-time builder (per-row
// projections), and the per-component search against a recursive search
// with the same variable order and value order, run on each component's
// sub-program for the node counts and on the whole program for the first
// solution.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "bag/bag.h"
#include "core/collection.h"
#include "core/global.h"
#include "core/tseitin.h"
#include "core/two_bag.h"
#include "engine/consistency_engine.h"
#include "generators/workloads.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/families.h"
#include "hypergraph/hypergraph.h"
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

TEST(LpTest, PinnedProgramSolvesOverTheFreeVariables) {
  // J = {(1,2,1), (1,2,2), (2,2,1), (2,2,2)}. Pinning all but the two
  // tuples of the paper's witness T1 leaves exactly T1.
  ConsistencyLp lp = *BuildConsistencyLp(TwoBagExample());
  ASSERT_EQ(lp.variables.size(), 4u);
  EXPECT_EQ(lp.variables.RowAt(1), Tuple({1, 2, 2}));
  EXPECT_EQ(lp.variables.RowAt(2), Tuple({2, 2, 1}));
  std::vector<bool> pinned = {true, false, false, true};
  SolveStats stats;
  auto solution = *SolveIntegerFeasibility(lp, {}, &stats, &pinned);
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(*solution, std::vector<uint64_t>({0, 1, 1, 0}));
  // The free variables share no row: two components of one variable.
  EXPECT_EQ(stats.components, 2u);
  EXPECT_EQ(stats.nodes, 2u);
  // Pinning a row's every variable leaves it uncovered.
  pinned = {true, true, false, false};
  stats = {};
  EXPECT_FALSE(SolveIntegerFeasibility(lp, {}, &stats, &pinned)->has_value());
  EXPECT_EQ(stats.components, 0u);
  EXPECT_EQ(stats.nodes, 0u);
}

TEST(LpTest, PinMaskOfTheWrongSizeIsRejected) {
  ConsistencyLp lp = *BuildConsistencyLp(TwoBagExample());
  std::vector<bool> pinned(lp.variables.size() - 1, false);
  EXPECT_EQ(SolveIntegerFeasibility(lp, {}, nullptr, &pinned).status().code(),
            StatusCode::kInvalidArgument);
}

// The join oracle: a nested-loop fold, in bag order, of attribute ->
// value assignments, read out as tuples over the union schema and sorted.
std::vector<Tuple> NestedLoopJoin(const std::vector<Bag>& bags) {
  std::vector<std::map<AttrId, ValueId>> acc = {{}};
  for (const Bag& bag : bags) {
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
  }
  std::vector<Tuple> out;
  for (const std::map<AttrId, ValueId>& assignment : acc) {
    std::vector<ValueId> ids;
    for (const auto& [attr, id] : assignment) ids.push_back(id);
    out.push_back(Tuple::OfIds(std::move(ids)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Schema UnionSchema(const std::vector<Bag>& bags) {
  std::vector<Schema> schemas;
  for (const Bag& b : bags) schemas.push_back(b.schema());
  return Schema::UnionAll(schemas);
}

// The most bindings one level of the leapfrog walk makes: the largest of
// the joins of the supports' projections onto each prefix of the joined
// schema's attributes, the whole schema's being J. Zero when a bag is
// empty (J is then empty without a walk).
size_t WidestPrefixJoin(const std::vector<Bag>& bags) {
  const Schema joined = UnionSchema(bags);
  size_t widest = 0;
  for (const Bag& bag : bags) {
    if (bag.IsEmpty()) return 0;
  }
  for (size_t d = 0; d < joined.arity(); ++d) {
    std::vector<Bag> prefix;
    for (const Bag& bag : bags) {
      std::vector<AttrId> attrs;
      for (AttrId a : bag.schema().attrs()) {
        if (a <= joined.at(d)) attrs.push_back(a);
      }
      prefix.push_back(*bag.Marginal(Schema(attrs)));
    }
    widest = std::max(widest, NestedLoopJoin(prefix).size());
  }
  return widest;
}

// The cap bounds every level of the walk, not only J: `build` succeeds at
// the widest level's size and fails with ResourceExhausted one below it.
template <class Build>
void ExpectCapAtWidestLevel(const std::vector<Bag>& bags, Build build) {
  const size_t widest = WidestPrefixJoin(bags);
  EXPECT_TRUE(build(widest).ok());
  if (widest > 0) {
    EXPECT_EQ(build(widest - 1).status().code(), StatusCode::kResourceExhausted);
  }
}

// The leapfrog join equals the nested-loop one: the same tuples in Tuple
// order, each joining the support row its provenance names in every bag,
// and the cap refuses exactly past the widest level of the walk.
void ExpectJoinMatchesOracle(const std::vector<Bag>& bags) {
  std::vector<Tuple> want = NestedLoopJoin(bags);
  Result<JoinProvenance> join = JoinSupports(bags);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join->joined, UnionSchema(bags));
  ASSERT_EQ(join->size, want.size());
  ASSERT_EQ(join->rows.size(), bags.size() * want.size());
  std::vector<uint32_t> all(join->size);
  std::iota(all.begin(), all.end(), 0u);
  ColumnStore columns = GatherJoinRows(bags, *join, all);
  for (size_t v = 0; v < want.size(); ++v) {
    ASSERT_EQ(columns.RowAt(v), want[v]) << "tuple " << v;
    for (size_t i = 0; i < bags.size(); ++i) {
      Projector proj = *Projector::Make(join->joined, bags[i].schema());
      ASSERT_LT(join->RowsOf(v)[i], bags[i].SupportSize());
      EXPECT_EQ(bags[i].RowAt(join->RowsOf(v)[i]), want[v].Project(proj))
          << "tuple " << v << " bag " << i;
    }
  }
  ExpectCapAtWidestLevel(bags, [&](size_t cap) { return JoinSupports(bags, cap); });
}

TEST(LpTest, LeapfrogJoinMatchesNestedLoopOracle) {
  Rng rng(2206);
  // Bags of random rows over small domains. Kind 0 holds dense direct ids
  // (a bag's first column then gets a run-start table); kind 1 puts a
  // third of the values in the side table, whose ids do not sort by
  // value; kind 2 spreads direct ids too far apart for a table.
  auto random_bag = [&](const Schema& x, size_t rows, int kind) {
    BagBuilder builder(x);
    for (size_t row = 0; row < rows; ++row) {
      std::vector<Value> values(x.arity());
      for (Value& v : values) {
        v = static_cast<Value>(rng.Below(3));
        if (kind == 1 && rng.Chance(1, 3)) v = -v - 1;
        if (kind == 2) v *= 997;
      }
      EXPECT_TRUE(builder.Add(Tuple{values}, 1 + rng.Below(4)).ok());
    }
    return *builder.Build();
  };
  const std::vector<std::vector<Schema>> shapes = {
      // Cycles and a cartesian product.
      {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{0, 2}}},
      {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{2, 3}}, Schema{{0, 3}}},
      {Schema{{0, 1}}, Schema{{2}}, Schema{{3, 4}}},
      // Two bags over one schema: J is the supports' intersection.
      {Schema{{0, 1}}, Schema{{0, 1}}},
      {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{0, 1}}},
      // A schema nested in another, leading, trailing or inside it.
      {Schema{{0, 1, 2}}, Schema{{0, 1}}},
      {Schema{{0, 1, 2}}, Schema{{1, 2}}, Schema{{0, 2}}},
      {Schema{{1}}, Schema{{0, 1, 2}}, Schema{{2, 3}}},
      // Attributes that only one bag has, between shared ones.
      {Schema{{0, 2, 4}}, Schema{{1, 2, 3}}, Schema{{3, 4}}}};
  for (size_t s = 0; s < shapes.size(); ++s) {
    for (int trial = 0; trial < 6; ++trial) {
      SCOPED_TRACE("shape " + std::to_string(s) + " trial " + std::to_string(trial));
      std::vector<Bag> bags;
      for (const Schema& x : shapes[s]) {
        bags.push_back(random_bag(x, 4 + 3 * static_cast<size_t>(trial), trial % 3));
      }
      ExpectJoinMatchesOracle(bags);
      // An empty bag empties J.
      std::vector<Bag> with_empty = bags;
      with_empty[static_cast<size_t>(trial) % bags.size()] =
          Bag(bags[static_cast<size_t>(trial) % bags.size()].schema());
      EXPECT_EQ(JoinSupports(with_empty)->size, 0u);
      ExpectJoinMatchesOracle(with_empty);
    }
  }
  // A bag over the empty schema holding the empty tuple joins everything.
  std::vector<Bag> with_unit = {random_bag(Schema{{0, 1}}, 6, 0),
                                *MakeBag(Schema(), {{{}, 2}})};
  ExpectJoinMatchesOracle(with_unit);
  EXPECT_EQ(JoinSupports(with_unit)->size, with_unit[0].SupportSize());
}

// R1(a0,a1) = {(i,0)}, R2(a1,a2) = {(0,j)}, R3(a2,a3) = {(j,j)} and
// R4(a0,a3) = {(i,i)} for i, j < n, each row once: pairwise consistent,
// with J = {(i,0,i,i)} of n tuples under n^2 bindings (i,0,j) of the
// walk's third level.
std::vector<Bag> WidePrefixCycle(Value n) {
  std::vector<Bag> bags;
  const std::vector<Schema> schemas = {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{2, 3}},
                                       Schema{{0, 3}}};
  for (size_t b = 0; b < schemas.size(); ++b) {
    BagBuilder builder(schemas[b]);
    for (Value i = 0; i < n; ++i) {
      const Tuple row = b == 0 ? Tuple{{i, 0}} : b == 1 ? Tuple{{0, i}} : Tuple{{i, i}};
      EXPECT_TRUE(builder.Add(row, 1).ok());
    }
    bags.push_back(*builder.Build());
  }
  return bags;
}

TEST(LpTest, WideLevelIsRefusedThoughJIsSmall) {
  std::vector<Bag> small = WidePrefixCycle(64);
  ExpectJoinMatchesOracle(small);
  EXPECT_EQ(JoinSupports(small)->size, 64u);
  EXPECT_EQ(WidestPrefixJoin(small), 64u * 64u);
  // At n = 4096, J's 4,096 tuples fit a cap of 8,192 but the third
  // level's 2^24 bindings do not: the walk stops after 8,193 of them.
  std::vector<Bag> wide = WidePrefixCycle(4096);
  EXPECT_EQ(JoinSupports(wide, 8192).status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(BuildConsistencyLp(wide, 8192).status().code(), StatusCode::kResourceExhausted);
}

TEST(LpTest, LargeJoinIsCountedThenWritten) {
  // Past a quarter over the largest support the join is counted before
  // it is written. Full
  // products over 0..16 keep J checkable without a nested loop: J holds
  // 17^4 tuples and tuple v is v written in base 17. The shapes end on
  // one, two and three bags sharing the last attribute.
  constexpr Value kDomain = 17;
  constexpr size_t kSize = 17 * 17 * 17 * 17;
  auto full = [&](const Schema& x) {
    BagBuilder builder(x);
    std::vector<Value> values(x.arity(), 0);
    while (true) {
      EXPECT_TRUE(builder.Add(Tuple{values}, 1).ok());
      size_t c = x.arity();
      while (c > 0 && values[c - 1] == kDomain - 1) values[--c] = 0;
      if (c == 0) break;
      ++values[c - 1];
    }
    return *builder.Build();
  };
  const std::vector<std::vector<Schema>> shapes = {
      {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{0, 2}}, Schema{{2, 3}}},
      {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{2, 3}}, Schema{{0, 3}}},
      {Schema{{0, 1, 2}}, Schema{{0, 3}}, Schema{{1, 3}}, Schema{{2, 3}}}};
  for (size_t s = 0; s < shapes.size(); ++s) {
    SCOPED_TRACE("shape " + std::to_string(s));
    std::vector<Bag> bags;
    for (const Schema& x : shapes[s]) bags.push_back(full(x));
    Result<JoinProvenance> join = JoinSupports(bags);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    ASSERT_EQ(join->size, kSize);
    std::vector<uint32_t> sample;
    for (uint32_t v = 0; v < kSize; v += 7) sample.push_back(v);
    ColumnStore columns = GatherJoinRows(bags, *join, sample);
    for (size_t k = 0; k < sample.size(); ++k) {
      std::vector<Value> want(4);
      for (size_t c = 4, v = sample[k]; c > 0; --c, v /= kDomain) want[c - 1] = v % kDomain;
      ASSERT_EQ(columns.RowAt(k), Tuple{want}) << "tuple " << sample[k];
      for (size_t i = 0; i < bags.size(); ++i) {
        Projector proj = *Projector::Make(join->joined, bags[i].schema());
        ASSERT_EQ(bags[i].RowAt(join->RowsOf(sample[k])[i]), Tuple{want}.Project(proj));
      }
    }
    EXPECT_TRUE(JoinSupports(bags, kSize).ok());
    EXPECT_EQ(JoinSupports(bags, kSize - 1).status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(JoinSupports(bags, 1000).status().code(), StatusCode::kResourceExhausted);
  }
}

// ---- The program oracle ----

// The row rules, one Tuple at a time: per bag, one row per support tuple
// holding the variables that project onto it. Every variable is a tuple of
// J (or of a subset of J), so each projects into every support.
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
    EXPECT_TRUE(by_key.empty()) << "a variable outside J";
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
    EXPECT_EQ(bags[row.bag].RowAt(got.rows.support_row[k]), row.marginal);
  }
}

// The recursive search over an oracle program: variables in index
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

// The oracle program's components: variables that share a row, by a
// test-local union-find, in order of their least variable. Each is a
// sub-program over its own variables (ascending) and rows (in program
// order); vars maps its variables back into the program.
struct OracleComponent {
  OracleLp lp;
  std::vector<uint32_t> vars;
};

std::vector<OracleComponent> OracleComponents(const OracleLp& lp) {
  const size_t n = lp.variables.size();
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<size_t(size_t)> find = [&](size_t v) {
    return parent[v] == v ? v : parent[v] = find(parent[v]);
  };
  for (const OracleRow& row : lp.rows) {
    for (uint32_t v : row.vars) {
      const size_t a = find(row.vars[0]);
      const size_t b = find(v);
      parent[std::max(a, b)] = std::min(a, b);
    }
  }
  std::map<size_t, OracleComponent> by_root;
  std::vector<uint32_t> local(n);
  for (size_t v = 0; v < n; ++v) {
    OracleComponent& c = by_root[find(v)];
    local[v] = static_cast<uint32_t>(c.vars.size());
    c.vars.push_back(static_cast<uint32_t>(v));
    c.lp.joined = lp.joined;
    c.lp.variables.push_back(lp.variables[v]);
  }
  for (const OracleRow& row : lp.rows) {
    if (row.vars.empty()) continue;
    OracleRow sub = row;
    for (uint32_t& v : sub.vars) v = local[v];
    by_root[find(row.vars[0])].lp.rows.push_back(std::move(sub));
  }
  std::vector<OracleComponent> out;
  for (auto& [root, c] : by_root) out.push_back(std::move(c));
  return out;
}

// What the per-component search should report on an oracle program: no
// component searched when a row without variables has rhs > 0, else the
// recursive search over each component in turn, under what is left of the
// node budget, until one is infeasible or out of nodes.
struct OracleOutcome {
  bool finished = true;
  std::optional<std::vector<uint64_t>> first;
  uint64_t nodes = 0;
  uint64_t components = 0;
};

OracleOutcome OracleByComponents(const OracleLp& lp, const SolveOptions& options) {
  OracleOutcome out;
  for (const OracleRow& row : lp.rows) {
    if (row.vars.empty() && row.rhs != 0) return out;
  }
  std::vector<uint64_t> x(lp.variables.size(), 0);
  for (const OracleComponent& c : OracleComponents(lp)) {
    SolveOptions budget = options;
    budget.node_limit = options.node_limit - out.nodes;
    OracleSearch search(c.lp, budget);
    std::optional<std::vector<uint64_t>> first;
    out.finished = search.Run([&](const std::vector<uint64_t>& y) {
      first = y;
      return true;
    });
    out.nodes += search.nodes();
    ++out.components;
    if (!out.finished || !first.has_value()) return out;
    for (size_t k = 0; k < c.vars.size(); ++k) x[c.vars[k]] = (*first)[k];
  }
  out.first = std::move(x);
  return out;
}

// The per-component search agrees with the recursive oracle, in both value
// orders: the node and component counts with the oracle run on each
// component's sub-program, and the first solution with the oracle's
// whole-program first solution. `want` is the program over the free
// variables: J's, or with `pinned` those of J that are not pinned. Without
// pins, the whole-program enumeration and count agree too.
void ExpectSameSearch(const ConsistencyLp& got, const OracleLp& want,
                      const std::vector<bool>* pinned = nullptr) {
  // free[k] is want's variable k's index in J.
  std::vector<uint32_t> free;
  for (size_t v = 0; v < got.variables.size(); ++v) {
    if (pinned == nullptr || !(*pinned)[v]) free.push_back(static_cast<uint32_t>(v));
  }
  ASSERT_EQ(free.size(), want.variables.size());
  for (bool descend : {true, false}) {
    SCOPED_TRACE(descend ? "descending" : "ascending");
    SolveOptions options;
    options.descend_values = descend;
    options.node_limit = 200'000;
    OracleOutcome components = OracleByComponents(want, options);
    SolveStats stats;
    Result<std::optional<std::vector<uint64_t>>> solved =
        SolveIntegerFeasibility(got, options, &stats, pinned);
    ASSERT_EQ(solved.ok(), components.finished) << solved.status().ToString();
    EXPECT_EQ(stats.nodes, components.nodes);
    EXPECT_EQ(stats.components, components.components);
    if (!components.finished) continue;
    ASSERT_EQ(solved->has_value(), components.first.has_value());
    if (components.first.has_value()) {
      std::vector<uint64_t> embedded(got.variables.size(), 0);
      for (size_t k = 0; k < free.size(); ++k) embedded[free[k]] = (*components.first)[k];
      EXPECT_EQ(**solved, embedded);
    }
    // Concatenating the components' first solutions gives the
    // whole-program search's first solution.
    OracleSearch whole(want, options);
    std::optional<std::vector<uint64_t>> first;
    if (whole.Run([&](const std::vector<uint64_t>& x) {
          first = x;
          return true;
        })) {
      EXPECT_EQ(first, components.first);
    }
  }
  if (pinned != nullptr) return;
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

// The greedy Theorem 3(3) minimization over restricted programs, as
// MinimizeWitnessSupport ran before pins: drop each support tuple in turn,
// keep the drop when the oracle program over the rest is feasible (taking
// its first solution), and rescan from the start.
Bag OracleMinimize(const std::vector<Bag>& bags, const Bag& witness) {
  std::vector<Tuple> support;
  std::vector<uint64_t> current;
  for (size_t e = 0; e < witness.SupportSize(); ++e) {
    support.push_back(witness.RowAt(e));
    current.push_back(witness.MultiplicityAt(e));
  }
  size_t i = 0;
  while (i < support.size()) {
    std::vector<Tuple> reduced = support;
    reduced.erase(reduced.begin() + static_cast<std::ptrdiff_t>(i));
    std::optional<std::vector<uint64_t>> first;
    OracleSearch(OracleProgram(bags, reduced), {}).Run([&](const std::vector<uint64_t>& x) {
      first = x;
      return true;
    });
    if (first.has_value()) {
      support = std::move(reduced);
      current = std::move(*first);
      i = 0;
    } else {
      ++i;
    }
  }
  BagBuilder builder(witness.schema());
  for (size_t k = 0; k < support.size(); ++k) {
    if (current[k] > 0) {
      EXPECT_TRUE(builder.Add(support[k], current[k]).ok());
    }
  }
  return *builder.Build();
}

// The program and the search through the engine: SolveGlobalExact's
// witness bytes equal the oracle's first solution read out through a
// BagBuilder and pass IsWitness, the minimal witness pruned from it
// equals the oracle's, Global() agrees, and KWISE reports the oracle's
// first failing subset for every k.
void ExpectSameEngineAnswers(const BagCollection& c) {
  ConsistencyEngine engine = *ConsistencyEngine::Make(c);
  const std::vector<Bag>& bags = c.bags();
  auto oracle_feasible = [&](const std::vector<Bag>& sub) -> std::optional<Bag> {
    OracleLp lp = OracleProgram(sub, NestedLoopJoin(sub));
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
    EXPECT_TRUE(*c.IsWitness(*got));
    EXPECT_EQ(*MinimizeWitnessSupport(c, *got), OracleMinimize(bags, *got));
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
// field, the join and the search agree, and the cap fails exactly past
// the widest level of the join's walk.
void ExpectLpMatchesOracle(const std::vector<Bag>& bags) {
  std::vector<Tuple> join = NestedLoopJoin(bags);
  OracleLp want = OracleProgram(bags, join);
  Result<ConsistencyLp> got = BuildConsistencyLp(bags);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->variables.size(), join.size());
  ExpectJoinMatchesOracle(bags);
  ExpectSameProgram(*got, want, bags);
  ExpectSameSearch(*got, want);
  ExpectCapAtWidestLevel(bags, [&](size_t cap) { return BuildConsistencyLp(bags, cap); });
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
  // J's program with some variables pinned to 0 against the oracle
  // program over the others: random pins on random and consistent
  // cycles, and pins outside a witness's support, so feasible restricted
  // programs appear too.
  Rng rng(2203);
  BagGenOptions options;
  options.domain_size = 3;
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    options.support_size = 3 + static_cast<size_t>(trial % 6);
    Hypergraph cycle = *MakeCycle(3 + trial % 2);
    std::vector<Bag> bags;
    if (trial % 2 == 0) {
      for (const Schema& edge : cycle.edges()) {
        bags.push_back(*MakeRandomBag(edge, options, &rng));
      }
    } else {
      bags = MakeGloballyConsistentCollection(cycle, options, &rng)->bags();
    }
    ConsistencyLp lp = *BuildConsistencyLp(bags);
    std::vector<std::vector<bool>> masks;
    for (int pick = 0; pick < 3; ++pick) {
      std::vector<bool> pinned(lp.variables.size());
      for (size_t v = 0; v < pinned.size(); ++v) pinned[v] = rng.Chance(1, 1 + pick);
      masks.push_back(std::move(pinned));
    }
    if (auto x = *SolveIntegerFeasibility(lp)) {
      std::vector<bool> pinned(x->size());
      for (size_t v = 0; v < x->size(); ++v) pinned[v] = (*x)[v] == 0;
      masks.push_back(std::move(pinned));
    }
    for (const std::vector<bool>& pinned : masks) {
      std::vector<Tuple> free;
      for (size_t v = 0; v < pinned.size(); ++v) {
        if (!pinned[v]) free.push_back(lp.variables.RowAt(v));
      }
      ExpectSameSearch(lp, OracleProgram(bags, free), &pinned);
    }
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

TEST(ProgramOracleTest, MinimizingTwoWitnessesSummedMatchesOracle) {
  // The first solutions in both value orders, summed, witness the
  // collection with every multiplicity doubled, and usually have rows to
  // spare: MinimizeWitnessSupport drops the same rows as the oracle.
  Rng rng(2207);
  BagGenOptions options;
  options.domain_size = 2;
  options.max_multiplicity = 3;
  size_t shrunk = 0;
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    options.support_size = 3 + static_cast<size_t>(trial % 4);
    BagCollection c =
        *MakeGloballyConsistentCollection(*MakeCycle(3 + trial % 2), options, &rng);
    GlobalSolveOptions ascending;
    ascending.search.descend_values = false;
    std::optional<Bag> high = *SolveGlobalConsistencyExact(c);
    std::optional<Bag> low = *SolveGlobalConsistencyExact(c, ascending);
    ASSERT_TRUE(high.has_value() && low.has_value());
    BagBuilder sum(high->schema());
    for (const Bag* w : {&*high, &*low}) {
      for (size_t e = 0; e < w->SupportSize(); ++e) {
        ASSERT_TRUE(sum.Add(w->RowAt(e), w->MultiplicityAt(e)).ok());
      }
    }
    Bag fat = *sum.Build();
    std::vector<Bag> doubled;
    for (const Bag& bag : c.bags()) {
      BagBuilder twice(bag.schema());
      for (size_t e = 0; e < bag.SupportSize(); ++e) {
        ASSERT_TRUE(twice.Add(bag.RowAt(e), 2 * bag.MultiplicityAt(e)).ok());
      }
      doubled.push_back(*twice.Build());
    }
    BagCollection c2 = *BagCollection::Make(doubled);
    ASSERT_TRUE(*c2.IsWitness(fat));
    Bag minimal = *MinimizeWitnessSupport(c2, fat);
    EXPECT_EQ(minimal, OracleMinimize(doubled, fat));
    EXPECT_TRUE(*c2.IsWitness(minimal));
    shrunk += minimal.SupportSize() < fat.SupportSize();
  }
  EXPECT_GT(shrunk, 0u);
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
  // 48^4 > 2^22 tuples. The join's counting pass passes the cap and
  // refuses before any row of J is written.
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

TEST(IntegerFeasibilityTest, TseitinCollectionsAreRefutedBeforeAnySearch) {
  // Every in-tree Tseitin collection is pairwise consistent with an empty
  // J, so each support row is uncovered: INCONSISTENT with no component
  // searched and no node, and no program row laid out on the way.
  std::vector<Hypergraph> shapes;
  for (size_t n = 3; n <= 24; ++n) shapes.push_back(*MakeCycle(n));
  for (size_t n = 3; n <= 7; ++n) shapes.push_back(*MakeHn(n));
  for (size_t n = 5; n <= 9; ++n) shapes.push_back(*MakeCirculant(n, 3));
  for (const Hypergraph& h : shapes) {
    SCOPED_TRACE(std::to_string(h.num_edges()) + " edges, arity " +
                 std::to_string(h.edges()[0].arity()));
    BagCollection c = *BagCollection::Make(*MakeTseitinCollection(h));
    JoinProvenance join = *JoinSupports(c.bags());
    EXPECT_EQ(join.size, 0u);
    SolveStats stats;
    EXPECT_FALSE(*SolveJoinProgram(c.bags(), join, {}, &stats));
    EXPECT_EQ(stats.nodes, 0u);
    EXPECT_EQ(stats.components, 0u);
    ConsistencyEngine engine = *ConsistencyEngine::Make(c);
    EXPECT_TRUE(engine.PairwiseAll()->consistent);
    EXPECT_FALSE(*engine.Global());
  }
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
