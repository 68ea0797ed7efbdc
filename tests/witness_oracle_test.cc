// Differential oracle for two-bag witnesses (paper §3, §5.3, Corollary 4).
// Every witness the library builds — FindWitness, FindMinimalWitness, the
// engine's (served) Witness and each step of the Theorem 6 fold — must
//   - marginalize onto both bags;
//   - have ||W||supp <= ||R||supp + ||S||supp − (number of Z-groups);
//   - be inclusion-minimal: no witness has a support strictly inside it.
// Minimality is checked two independent ways: a rank check (the support's
// constraint columns of P(R, S) are independent iff its cells form a
// forest over R rows ∪ S rows) and the §5.3 exclusion test (for each cell,
// a fresh max-flow over N(R, S) restricted to the other cells must not
// saturate). Verdicts are cross-checked against Lemma 2(2) and against a
// saturated flow of the full N(R, S).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "core/global.h"
#include "core/two_bag.h"
#include "engine/consistency_engine.h"
#include "flow/consistency_network.h"
#include "flow/network.h"
#include "generators/workloads.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/families.h"
#include "tuple/value_dictionary.h"
#include "util/random.h"

namespace bagc {
namespace {

// For each support row of `w`, the row index of its projection in `side`.
std::vector<size_t> SideRows(const Bag& w, const Bag& side) {
  std::map<Tuple, size_t> index;
  for (size_t i = 0; i < side.SupportSize(); ++i) index[side.RowAt(i)] = i;
  Projector proj = *Projector::Make(w.schema(), side.schema());
  std::vector<size_t> rows;
  for (size_t e = 0; e < w.SupportSize(); ++e) {
    rows.push_back(index.at(w.RowAt(e).Project(proj)));
  }
  return rows;
}

// Number of distinct projections of R's support onto Z = X ∩ Y (counted
// without summing multiplicities, which may overflow).
size_t ZGroups(const Bag& r, const Bag& s) {
  Schema z = Schema::Intersect(r.schema(), s.schema());
  Projector proj = *Projector::Make(r.schema(), z);
  std::set<Tuple> groups;
  for (size_t i = 0; i < r.SupportSize(); ++i) groups.insert(r.RowAt(i).Project(proj));
  return groups.size();
}

// Rank check: cell (r, s) of P(R, S) has a 1 in R row r's equation and S
// row s's. A set of such columns is dependent iff its cells contain a
// cycle in the bipartite graph on R rows ∪ S rows.
bool SupportIsForest(const std::vector<size_t>& r_rows,
                     const std::vector<size_t>& s_rows, size_t nr, size_t ns) {
  std::vector<size_t> parent(nr + ns);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](size_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (size_t e = 0; e < r_rows.size(); ++e) {
    size_t a = find(r_rows[e]);
    size_t b = find(nr + s_rows[e]);
    if (a == b) return false;
    parent[a] = b;
  }
  return true;
}

// The §5.3 exclusion test, one fresh network per cell: a witness with
// support inside supp(W) \ {cell} exists iff N(R, S) restricted to those
// middle edges has a saturated flow.
bool NoCellIsRedundant(const std::vector<size_t>& r_rows,
                       const std::vector<size_t>& s_rows, const Bag& r,
                       const Bag& s) {
  const size_t nr = r.SupportSize();
  const size_t ns = s.SupportSize();
  uint64_t total = 0;
  for (size_t i = 0; i < nr; ++i) total += r.MultiplicityAt(i);
  for (size_t skip = 0; skip < r_rows.size(); ++skip) {
    FlowNetwork net(2 + nr + ns);
    const size_t sink = 1 + nr + ns;
    for (size_t i = 0; i < nr; ++i) EXPECT_TRUE(net.AddEdge(0, 1 + i, r.MultiplicityAt(i)).ok());
    for (size_t j = 0; j < ns; ++j) {
      EXPECT_TRUE(net.AddEdge(1 + nr + j, sink, s.MultiplicityAt(j)).ok());
    }
    for (size_t e = 0; e < r_rows.size(); ++e) {
      if (e == skip) continue;
      EXPECT_TRUE(
          net.AddEdge(1 + r_rows[e], 1 + nr + s_rows[e], FlowNetwork::kUnbounded).ok());
    }
    if (*net.Solve(0, sink) == total) return false;
  }
  return true;
}

// Every property a built witness of (R, S) must have. `flow_oracle` runs
// the max-flow exclusion test (multiplicities must fit its capacities).
void ExpectMinimalWitness(const Bag& w, const Bag& r, const Bag& s,
                          bool flow_oracle) {
  ASSERT_EQ(w.schema(), Schema::Union(r.schema(), s.schema()));
  ASSERT_EQ(*w.Marginal(r.schema()), r);
  ASSERT_EQ(*w.Marginal(s.schema()), s);
  const size_t nr = r.SupportSize();
  const size_t ns = s.SupportSize();
  EXPECT_LE(w.SupportSize() + ZGroups(r, s), nr + ns);
  EXPECT_LE(w.MultiplicityBound(), std::max(r.MultiplicityBound(), s.MultiplicityBound()));
  std::vector<size_t> r_rows = SideRows(w, r);
  std::vector<size_t> s_rows = SideRows(w, s);
  EXPECT_TRUE(SupportIsForest(r_rows, s_rows, nr, ns)) << "support is not a vertex";
  if (flow_oracle) {
    EXPECT_TRUE(NoCellIsRedundant(r_rows, s_rows, r, s)) << "a cell can be dropped";
  }
}

// Checks every witness entry point on (R, S): the single-shot pair, the
// engine's served Witness both ways round, the Lemma 2(2) verdict and the
// full network's saturation. Returns whether the pair was consistent.
// `flow_oracle` as for ExpectMinimalWitness (one max-flow per cell).
bool CheckPair(const Bag& r, const Bag& s, bool flow_oracle = true) {
  const bool consistent = *AreConsistent(r, s);
  ConsistencyNetwork network = *ConsistencyNetwork::Make(r, s);
  EXPECT_EQ(*network.HasSaturatedFlow(), consistent);
  std::optional<Bag> plain = *FindWitness(r, s);
  std::optional<Bag> minimal = *FindMinimalWitness(r, s);
  ConsistencyEngine engine = *ConsistencyEngine::Make(*BagCollection::Make({r, s}));
  std::optional<Bag> served = *engine.Witness(0, 1);
  std::optional<Bag> served_back = *engine.Witness(1, 0);
  EXPECT_EQ(plain.has_value(), consistent);
  EXPECT_EQ(minimal.has_value(), consistent);
  EXPECT_EQ(served.has_value(), consistent);
  EXPECT_EQ(served_back.has_value(), consistent);
  if (!consistent) return false;
  ExpectMinimalWitness(*plain, r, s, flow_oracle);
  ExpectMinimalWitness(*served_back, s, r, flow_oracle);
  // One construction behind every entry point, independent of which side
  // drives it.
  EXPECT_EQ(*minimal, *plain);
  EXPECT_EQ(*served, *plain);
  EXPECT_EQ(*served_back, *plain);
  return true;
}

struct Layout {
  const char* name;
  Schema x;
  Schema y;
};

// R's slots lead the joined layout, S's lead, neither (interleaved), a
// product (empty Z), and Z = X = Y.
const std::vector<Layout>& Layouts() {
  static const std::vector<Layout> layouts = {
      {"r_leads", Schema{{0, 1}}, Schema{{1, 2}}},
      {"r_leads_wide", Schema{{0, 1, 2}}, Schema{{2, 3}}},
      {"s_leads", Schema{{1, 2}}, Schema{{0, 1}}},
      {"interleaved", Schema{{0, 2}}, Schema{{1, 2}}},
      {"product", Schema{{0}}, Schema{{1}}},
      {"product_s_leads", Schema{{1}}, Schema{{0}}},
      {"equal", Schema{{0, 1}}, Schema{{0, 1}}},
  };
  return layouts;
}

TEST(WitnessOracleTest, SeededPairsGetMinimalVertexWitnesses) {
  size_t consistent = 0;
  size_t inconsistent = 0;
  for (const Layout& layout : Layouts()) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      SCOPED_TRACE(std::string(layout.name) + " seed " + std::to_string(seed));
      Rng rng(9000 + seed);
      BagGenOptions options;
      options.support_size = 1 + rng.Below(12);
      options.domain_size = 2 + rng.Below(3);
      options.max_multiplicity = 1 + rng.Below(9);
      auto [r, s] = *MakeConsistentPair(layout.x, layout.y, options, &rng);
      consistent += CheckPair(r, s);
      auto [br, bs] = *MakeInconsistentPair(layout.x, layout.y, options, &rng);
      inconsistent += !CheckPair(br, bs);
    }
  }
  EXPECT_EQ(consistent, Layouts().size() * 40);
  EXPECT_EQ(inconsistent, Layouts().size() * 40);
}

TEST(WitnessOracleTest, EmptyBags) {
  for (const Layout& layout : Layouts()) {
    SCOPED_TRACE(layout.name);
    Bag r(layout.x);
    Bag s(layout.y);
    EXPECT_TRUE(CheckPair(r, s));
    std::optional<Bag> w = *FindWitness(r, s);
    ASSERT_TRUE(w.has_value());
    EXPECT_TRUE(w->IsEmpty());
    EXPECT_EQ(w->schema(), Schema::Union(layout.x, layout.y));
    // Against a nonempty bag either way round: inconsistent.
    Rng rng(17);
    Bag nonempty = *MakeRandomBag(layout.y, BagGenOptions{}, &rng);
    EXPECT_FALSE(CheckPair(r, nonempty));
    EXPECT_FALSE(CheckPair(*MakeRandomBag(layout.x, BagGenOptions{}, &rng), s));
  }
}

// Values outside [0, 2^31) live in the process-global side table, whose
// ids compare through ValueIdLess rather than as raw integers; the
// witness must still come out in Tuple order.
TEST(WitnessOracleTest, SideTableValues) {
  auto remap = [](const Bag& bag) {
    std::vector<std::pair<std::vector<Value>, uint64_t>> rows;
    for (size_t i = 0; i < bag.SupportSize(); ++i) {
      std::vector<Value> values = bag.RowAt(i).values();
      for (Value& v : values) {
        v = v % 2 == 0 ? -(v + 3) : v + (Value{1} << 40);
      }
      rows.emplace_back(std::move(values), bag.MultiplicityAt(i));
    }
    return *MakeBag(bag.schema(), rows);
  };
  for (const Layout& layout : Layouts()) {
    for (uint64_t seed = 0; seed < 10; ++seed) {
      SCOPED_TRACE(std::string(layout.name) + " seed " + std::to_string(seed));
      Rng rng(9500 + seed);
      BagGenOptions options;
      options.support_size = 2 + rng.Below(10);
      options.domain_size = 3;
      auto [r, s] = *MakeConsistentPair(layout.x, layout.y, options, &rng);
      Bag wide_r = remap(r);
      Bag wide_s = remap(s);
      EXPECT_TRUE(CheckPair(wide_r, wide_s));
      std::optional<Bag> w = *FindWitness(wide_r, wide_s);
      ASSERT_TRUE(w.has_value());
      for (size_t e = 1; e < w->SupportSize(); ++e) {
        EXPECT_TRUE(w->RowAt(e - 1) < w->RowAt(e)) << "row " << e;
      }
    }
  }
}

// Multiplicities whose group totals exceed 2^64 − 1: the corner rule never
// forms a sum, so the witness is still built (and still minimal) where the
// Lemma 2(2) marginals overflow and N(R, S) rejects its capacities.
TEST(WitnessOracleTest, MultiplicitiesNearTheOverflowLimit) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  constexpr uint64_t kHalf = uint64_t{1} << 63;
  for (const Layout& layout : Layouts()) {
    SCOPED_TRACE(layout.name);
    // Two R rows and two S rows per Z-group: R gives (kMax, 1), S gives
    // (kHalf, kHalf). Each group's total is 2^64.
    std::vector<std::pair<std::vector<Value>, uint64_t>> r_rows, s_rows;
    auto rows_for = [](const Schema& side, const Schema& shared, Value z,
                       Value other) {
      std::vector<Value> values;
      for (AttrId a : side.attrs()) values.push_back(shared.Contains(a) ? z : other);
      return values;
    };
    Schema z = Schema::Intersect(layout.x, layout.y);
    bool x_has_own = layout.x.arity() > z.arity();
    bool y_has_own = layout.y.arity() > z.arity();
    if (!x_has_own || !y_has_own) {
      // Z = X = Y: one row per group on each side; take the largest
      // representable multiplicity.
      Bag r = *MakeBag(layout.x, {{rows_for(layout.x, z, 0, 0), kMax},
                                  {rows_for(layout.x, z, 1, 0), kMax - 1}});
      std::optional<Bag> w = *FindWitness(r, r);
      ASSERT_TRUE(w.has_value());
      ExpectMinimalWitness(*w, r, r, /*flow_oracle=*/false);
      continue;
    }
    for (Value g = 0; g < (z.empty() ? 1 : 2); ++g) {
      r_rows.push_back({rows_for(layout.x, z, g, 0), kMax});
      r_rows.push_back({rows_for(layout.x, z, g, 1), 1});
      s_rows.push_back({rows_for(layout.y, z, g, 0), kHalf});
      s_rows.push_back({rows_for(layout.y, z, g, 1), kHalf});
    }
    Bag r = *MakeBag(layout.x, r_rows);
    Bag s = *MakeBag(layout.y, s_rows);
    EXPECT_FALSE(AreConsistent(r, s).ok());  // the marginal sum overflows
    EXPECT_FALSE(ConsistencyNetwork::Make(r, s).ok());
    for (const auto& [a, b] : {std::pair<const Bag*, const Bag*>{&r, &s}, {&s, &r}}) {
      std::optional<Bag> w = *FindWitness(*a, *b);
      ASSERT_TRUE(w.has_value());
      ExpectMinimalWitness(*w, *a, *b, /*flow_oracle=*/false);
      EXPECT_EQ(*FindMinimalWitness(*a, *b), w);
    }
    // One unit short in one S row: the group's rows run out unevenly.
    s_rows[1].second = kHalf - 1;
    Bag short_s = *MakeBag(layout.y, s_rows);
    EXPECT_FALSE(FindWitness(r, short_s)->has_value());
    EXPECT_FALSE(FindWitness(short_s, r)->has_value());
  }
}

// The inputs whose served WITNESS bytes ServerSessionTest.
// WitnessReplyBytesMatchGolden pins: the golden may only move to bytes
// this oracle accepts.
TEST(WitnessOracleTest, GoldenReplyInputs) {
  EXPECT_TRUE(CheckPair(
      *MakeBag(Schema{{0, 2}}, {{{0, 1}, 1}, {{0, 2}, 2}, {{1, 1}, 3}, {{2, 2}, 1}}),
      *MakeBag(Schema{{1, 2}}, {{{5, 1}, 1}, {{3, 2}, 2}, {{7, 1}, 3}, {{4, 2}, 1}})));
  EXPECT_TRUE(CheckPair(*MakeBag(Schema{{0, 1}}, {{{-7, 3000000000}, 1},
                                                  {{5, -2}, 2},
                                                  {{3000000001, -2}, 1},
                                                  {{-1, 9}, 2}}),
                        *MakeBag(Schema{{1, 2}}, {{{3000000000, -1}, 1},
                                                  {{-2, 4}, 1},
                                                  {{-2, 4000000000}, 2},
                                                  {{9, -3}, 2}})));
  {
    Rng rng(16);
    BagGenOptions options;
    options.support_size = 60;
    options.domain_size = 4;
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    EXPECT_TRUE(CheckPair(r, s));
  }
  // The 8-bag, 4,096-rows-per-bag path, interned through dictionaries as
  // the golden does. Too big for one max-flow per cell; the rank check
  // covers it.
  Hypergraph path = *MakePath(9);
  Schema all = Schema::UnionAll(path.edges());
  Rng rng(2021);
  BagGenOptions options;
  options.support_size = 4096;
  options.domain_size = 4096;
  options.max_multiplicity = 8;
  Bag numeric = *MakeRandomBag(all, options, &rng);
  DictionarySet dicts;
  BagBuilder builder(all);
  std::vector<std::string> tokens(all.arity());
  for (size_t e = 0; e < numeric.SupportSize(); ++e) {
    Tuple t = numeric.RowAt(e);
    for (size_t c = 0; c < all.arity(); ++c) tokens[c] = "v" + std::to_string(t.at(c));
    ASSERT_TRUE(builder.AddExternal(tokens, numeric.MultiplicityAt(e), &dicts).ok());
  }
  Bag joint = *builder.Build();
  for (size_t i = 0; i + 1 < path.edges().size(); ++i) {
    EXPECT_TRUE(CheckPair(*joint.Marginal(path.edges()[i]),
                          *joint.Marginal(path.edges()[i + 1]), /*flow_oracle=*/false));
  }
}

// Theorem 6: replays the engine's fold along the RIP listing, checks every
// step's two-bag witness, and checks that the replay lands on the
// engine's (and the single-shot wrapper's) global witness.
TEST(WitnessOracleTest, TheoremSixFoldStepsAreMinimalWitnesses) {
  size_t steps = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(9700 + seed);
    Hypergraph h = seed % 3 == 0   ? *MakeStar(2 + rng.Below(3))
                   : seed % 3 == 1 ? *MakePath(3 + rng.Below(3))
                                   : *MakeRandomAcyclic(3 + rng.Below(3), 3, &rng);
    BagGenOptions options;
    options.support_size = 2 + rng.Below(8);
    options.domain_size = 2 + rng.Below(2);
    options.max_multiplicity = 1 + rng.Below(5);
    BagCollection c = *MakeGloballyConsistentCollection(h, options, &rng);
    std::vector<size_t> rip = *RunningIntersectionOrder(c.hypergraph());
    const std::vector<Schema>& edges = c.hypergraph().edges();
    auto bag_of = [&](size_t e) -> const Bag& {
      for (const Bag& b : c.bags()) {
        if (b.schema() == edges[e]) return b;
      }
      ADD_FAILURE() << "edge without a bag";
      return c.bag(0);
    };
    Bag acc = bag_of(rip[0]);
    for (size_t i = 1; i < rip.size(); ++i) {
      const Bag& next = bag_of(rip[i]);
      std::optional<Bag> step = *FindWitness(acc, next);
      ASSERT_TRUE(step.has_value());
      ExpectMinimalWitness(*step, acc, next, /*flow_oracle=*/true);
      acc = std::move(*step);
      ++steps;
    }
    ConsistencyEngine engine = *ConsistencyEngine::Make(c);
    std::optional<Bag> folded = *engine.SolveGlobalAcyclic();
    ASSERT_TRUE(folded.has_value());
    EXPECT_EQ(*folded, acc);
    EXPECT_EQ(*SolveGlobalConsistencyAcyclic(c), folded);
    EXPECT_TRUE(*c.IsWitness(acc));
    size_t total_support = 0;
    for (const Bag& b : c.bags()) total_support += b.SupportSize();
    EXPECT_LE(acc.SupportSize(), total_support);
  }
  EXPECT_GT(steps, 100u);
}

}  // namespace
}  // namespace bagc
