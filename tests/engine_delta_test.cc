// Delta-vs-reseal differential harness (the correctness obligation of the
// streaming-mutation path): on 200 generated collections × randomized
// INSERT/DELETE streams, an engine maintained incrementally through
// ConsistencyEngine::MakeDeltaBatch must stay *bit-identical* to
// (a) a from-scratch full seal of the mutated collection and (b) the
// string-keyed std::map oracle that recomputes every marginal from the
// external tokens. Covers:
//
//   - pairwise / two-bag / global verdicts and the lexicographically
//     first failing pair after every commit;
//   - witness multiplicities: every two-bag witness of the delta engine
//     equals the reseal engine's, bag for bag;
//   - dirty-pair minimality: a delta to bag R never invalidates a pair
//     not involving R, and a projection under which the nets cancel
//     keeps its pairs clean;
//   - delta commutativity where it must hold: insert x then delete x in
//     one stream is a structural no-op (modulo the generation handle);
//   - marginal_fills() exactness: a delta generation fills exactly its
//     dirty slots — reuse-adopted slots are never counted;
//   - worker invariance: the delta engine agrees with from-scratch seals
//     at 1, 2, and 8 workers;
//   - the one representation: on bags of ~28–36 rows (both sides of the
//     32-row small-grouping cutoff) every commit leaves the mutated bag
//     as sorted columns with positive multiplicities, and every check
//     above still holds.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/consistency_engine.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "util/random.h"

namespace bagc {
namespace {

// External token for (attribute, numeric value) — the oracle never
// interns anything; only string equality structure survives.
std::string Tok(AttrId a, Value v) {
  return "attr" + std::to_string(a) + "_val_" + std::to_string(v);
}

std::vector<std::string> TokensOf(const Schema& schema, const Tuple& t) {
  std::vector<std::string> out(schema.arity());
  for (size_t i = 0; i < schema.arity(); ++i) out[i] = Tok(schema.at(i), t.at(i));
  return out;
}

using StringBag = std::map<std::vector<std::string>, uint64_t>;

// The string-keyed oracle's marginal of Equation (2), recomputed from
// scratch on every call — no incremental state to share bugs with.
StringBag OracleMarginal(const Bag& bag, const Schema& z) {
  Projector proj = *Projector::Make(bag.schema(), z);
  StringBag out;
  for (size_t r = 0; r < bag.SupportSize(); ++r) {
    std::vector<std::string> row = TokensOf(bag.schema(), bag.RowAt(r));
    std::vector<std::string> projected(proj.arity());
    for (size_t i = 0; i < proj.arity(); ++i) projected[i] = row[proj.SourceIndex(i)];
    out[projected] += bag.MultiplicityAt(r);
  }
  return out;
}

struct OracleVerdict {
  bool consistent = true;
  std::pair<size_t, size_t> first_failing{0, 0};
};

OracleVerdict OraclePairwise(const BagCollection& c) {
  for (size_t i = 0; i < c.size(); ++i) {
    for (size_t j = i + 1; j < c.size(); ++j) {
      Schema z = Schema::Intersect(c.bag(i).schema(), c.bag(j).schema());
      if (OracleMarginal(c.bag(i), z) != OracleMarginal(c.bag(j), z)) {
        return {false, {i, j}};
      }
    }
  }
  return {};
}

// Bumps one row's multiplicity (or adds a row to an empty bag), so the
// collection is no longer consistent by construction.
void Perturb(std::vector<Bag>* bags, Rng* rng) {
  Bag& victim = (*bags)[rng->Below(bags->size())];
  if (victim.IsEmpty()) {
    std::vector<Value> zeros(victim.schema().arity(), 0);
    EXPECT_TRUE(victim.Set(Tuple{zeros}, 1).ok());
  } else {
    size_t pick = rng->Below(victim.SupportSize());
    EXPECT_TRUE(
        victim.Set(victim.RowAt(pick), victim.MultiplicityAt(pick) + 1).ok());
  }
}

// Same workload shapes as the other differential harnesses: rotating
// hypergraph families, consistent by construction, perturbed half the
// time so both verdicts appear.
Result<BagCollection> MakeWorkload(uint64_t seed) {
  Rng rng(seed * 2654435761u + 17);
  BagGenOptions options;
  options.support_size = 2 + rng.Below(8);
  options.domain_size = 2 + rng.Below(3);
  options.max_multiplicity = 5;
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
  BAGC_ASSIGN_OR_RETURN(BagCollection c,
                        MakeGloballyConsistentCollection(h, options, &rng));
  if (rng.Chance(1, 2)) {
    std::vector<Bag> bags = c.bags();
    Perturb(&bags, &rng);
    return BagCollection::Make(std::move(bags));
  }
  return c;
}

// Mid-size bags: marginals of a hidden joint of 28 to 36 rows, so the
// delta streams below move bags and their marginals across the 32-row
// small-grouping cutoff in both directions. The joint's domain is wide
// enough that few of its rows share a projection: about nine bags in ten
// keep 28 to 36 rows, the rest 21 to 27.
Result<BagCollection> MakeMidSizeWorkload(uint64_t seed) {
  Rng rng(seed * 2654435761u + 29);
  BagGenOptions options;
  options.support_size = 28 + rng.Below(9);
  options.domain_size = 64;
  options.max_multiplicity = 5;
  Hypergraph h = [&] {
    switch (seed % 3) {
      case 0:
        return *MakePath(2 + seed % 4);
      case 1:
        return *MakeStar(2 + seed % 4);
      default:
        return *MakeRandomAcyclic(3 + seed % 3, 3, &rng);
    }
  }();
  BAGC_ASSIGN_OR_RETURN(BagCollection c,
                        MakeGloballyConsistentCollection(h, options, &rng));
  std::vector<Bag> bags = c.bags();
  if (rng.Chance(1, 2)) Perturb(&bags, &rng);
  return BagCollection::Make(std::move(bags));
}

// A commit keeps the one representation: the bag is its sorted columns
// with positive multiplicities.
void CheckColumns(const Bag& bag) {
  ColumnView view = bag.Columns();
  ASSERT_EQ(view.num_rows(), bag.SupportSize());
  ASSERT_EQ(view.arity(), bag.schema().arity());
  for (size_t r = 0; r < view.num_rows(); ++r) {
    if (r > 0) {
      EXPECT_LT(view.CompareRows(r - 1, view, r), 0) << "row " << r;
    }
    EXPECT_GT(bag.MultiplicityData()[r], 0u) << "row " << r;
  }
}

// A randomized INSERT/DELETE stream against `bag`: multiplicity bumps of
// known rows, deletes (including deletes to zero, which remove the row),
// brand-new rows, and the occasional insert+delete of the same row that
// must cancel before validation. Tracks the pending net per row so the
// stream is always valid — deletes never net below the current
// multiplicity (the invalid case has its own dedicated test).
std::vector<BagDelta> MakeStream(const Bag& bag, Rng* rng) {
  std::vector<BagDelta> deltas;
  std::map<Tuple, int64_t> net;
  auto available = [&](const Tuple& t) {
    return static_cast<int64_t>(bag.Multiplicity(t)) + net[t];
  };
  size_t n = 1 + rng->Below(4);
  for (size_t d = 0; d < n; ++d) {
    switch (rng->Below(4)) {
      case 0: {  // new (or existing) random row: insert
        std::vector<Value> vals(bag.schema().arity());
        for (Value& v : vals) v = rng->Below(5);
        int64_t amount = static_cast<int64_t>(1 + rng->Below(3));
        Tuple t{vals};
        net[t] += amount;
        deltas.push_back({std::move(t), amount});
        break;
      }
      case 1: {  // known row: bump
        if (bag.IsEmpty()) break;
        Tuple t = bag.RowAt(rng->Below(bag.SupportSize()));
        int64_t amount = static_cast<int64_t>(1 + rng->Below(3));
        net[t] += amount;
        deltas.push_back({t, amount});
        break;
      }
      case 2: {  // known row: delete up to what the stream leaves of it
        if (bag.IsEmpty()) break;
        Tuple t = bag.RowAt(rng->Below(bag.SupportSize()));
        int64_t left = available(t);
        if (left <= 0) break;
        int64_t drop =
            1 + static_cast<int64_t>(rng->Below(static_cast<uint64_t>(left)));
        net[t] -= drop;
        deltas.push_back({t, -drop});
        break;
      }
      default: {  // opposed pair on one (possibly absent) row: cancels
        std::vector<Value> vals(bag.schema().arity());
        for (Value& v : vals) v = rng->Below(5);
        int64_t amount = static_cast<int64_t>(1 + rng->Below(3));
        deltas.push_back({Tuple{vals}, amount});
        deltas.push_back({Tuple{vals}, -amount});
        break;
      }
    }
  }
  return deltas;
}

// A one-bag delta generation: the batch form of a single INSERT/DELETE.
DeltaBatch OneBag(size_t bag_index, std::vector<BagDelta> deltas) {
  DeltaBatch batch(1);
  batch[0].bag_index = bag_index;
  batch[0].deltas = std::move(deltas);
  return batch;
}

// Every pair the outcome reports dirty must involve the mutated bag.
void CheckDirtyPairMinimality(const DeltaOutcome& outcome, size_t mutated) {
  for (const auto& [i, j] : outcome.dirty_pairs) {
    EXPECT_TRUE(i == mutated || j == mutated)
        << "delta to bag " << mutated << " invalidated pair (" << i << ","
        << j << ")";
  }
}

// The full bit-identity check: delta-maintained engine vs a from-scratch
// seal of the same (mutated) collection vs the string oracle.
void CheckAgainstReseal(ConsistencyEngine& delta_engine) {
  BagCollection mutated(delta_engine.collection());
  ConsistencyEngine reseal = *ConsistencyEngine::Make(mutated);

  OracleVerdict oracle = OraclePairwise(mutated);
  PairwiseVerdict dv = *delta_engine.PairwiseAll();
  PairwiseVerdict rv = *reseal.PairwiseAll();
  EXPECT_EQ(dv.consistent, oracle.consistent);
  EXPECT_EQ(rv.consistent, oracle.consistent);
  if (!oracle.consistent) {
    EXPECT_EQ(dv.witness_pair, oracle.first_failing);
    EXPECT_EQ(rv.witness_pair, oracle.first_failing);
  }

  for (size_t i = 0; i < mutated.size(); ++i) {
    for (size_t j = i + 1; j < mutated.size(); ++j) {
      Schema z = Schema::Intersect(mutated.bag(i).schema(),
                                   mutated.bag(j).schema());
      bool pair_oracle =
          OracleMarginal(mutated.bag(i), z) == OracleMarginal(mutated.bag(j), z);
      EXPECT_EQ(*delta_engine.TwoBag(i, j), pair_oracle);
      EXPECT_EQ(*reseal.TwoBag(i, j), pair_oracle);

      // Witness multiplicities: the delta engine's witness is the reseal
      // engine's witness, multiplicity for multiplicity.
      std::optional<Bag> dw = *delta_engine.Witness(i, j);
      std::optional<Bag> rw = *reseal.Witness(i, j);
      ASSERT_EQ(dw.has_value(), rw.has_value());
      if (dw.has_value()) {
        EXPECT_EQ(*dw, *rw);
      }
    }
  }

  EXPECT_EQ(*delta_engine.Global(), *reseal.Global());
}

TEST(EngineDeltaTest, MatchesResealAndOracleOn200Collections) {
  // Each commit replaces the engine with its derived generation, so the
  // previous generation is destroyed while the new one still shares its
  // bags and marginals. Both workloads: small bags, and mid-size bags
  // around the small-grouping cutoff.
  for (uint64_t seed = 0; seed < 400; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const bool mid_size = seed >= 200;
    Rng rng(5'000'000 + seed);
    BagCollection start =
        mid_size ? *MakeMidSizeWorkload(seed) : *MakeWorkload(seed);
    ConsistencyEngine engine = *ConsistencyEngine::Make(start);

    size_t commits = 1 + rng.Below(3);
    for (size_t c = 0; c < commits; ++c) {
      size_t r = rng.Below(engine.collection().size());
      Bag before = engine.collection().bag(r);
      std::vector<BagDelta> deltas = MakeStream(before, &rng);
      DeltaOutcome outcome;
      Result<ConsistencyEngine> derived = ConsistencyEngine::MakeDeltaBatch(
          engine, OneBag(r, deltas), &outcome);
      ASSERT_TRUE(derived.ok()) << derived.status().message();
      engine = *std::move(derived);
      CheckDirtyPairMinimality(outcome, r);
      CheckColumns(engine.collection().bag(r));
      CheckAgainstReseal(engine);
    }
  }
}

TEST(EngineDeltaTest, MakeDeltaGenerationsMatchResealOn200Collections) {
  // The generation-chain variant the server uses: every commit derives a
  // NEW engine via MakeDeltaBatch (identity reuse of the previous
  // generation) while the previous one stays live and untouched. Both
  // workloads, as above.
  for (uint64_t seed = 0; seed < 400; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const bool mid_size = seed >= 200;
    Rng rng(6'000'000 + seed);
    BagCollection start =
        mid_size ? *MakeMidSizeWorkload(seed) : *MakeWorkload(seed);
    std::vector<ConsistencyEngine> chain;
    chain.reserve(5);  // references into the chain survive every push_back
    chain.push_back(*ConsistencyEngine::Make(start));

    size_t commits = 1 + rng.Below(3);
    for (size_t c = 0; c < commits; ++c) {
      ConsistencyEngine& prev = chain.back();
      size_t r = rng.Below(prev.collection().size());
      std::vector<BagDelta> deltas = MakeStream(prev.collection().bag(r), &rng);
      StringBag prev_rows =
          OracleMarginal(prev.collection().bag(r), prev.collection().bag(r).schema());

      DeltaOutcome outcome;
      Result<ConsistencyEngine> derived =
          ConsistencyEngine::MakeDeltaBatch(prev, OneBag(r, deltas), &outcome);
      ASSERT_TRUE(derived.ok()) << derived.status().message();
      chain.push_back(*std::move(derived));
      ConsistencyEngine& next = chain.back();

      CheckDirtyPairMinimality(outcome, r);
      CheckColumns(next.collection().bag(r));
      // The delta generation fills exactly its dirty slots — adopted
      // slots (every other bag, and the mutated bag's clean projections)
      // are never counted (the marginal_fills() exactness regression).
      EXPECT_EQ(next.marginal_fills(), outcome.changed_slots);
      // The previous generation is immutable: its bag kept its rows.
      EXPECT_EQ(OracleMarginal(prev.collection().bag(r),
                               prev.collection().bag(r).schema()),
                prev_rows);

      CheckAgainstReseal(next);
    }
  }
}

TEST(EngineDeltaTest, InsertThenDeleteIsNoOp) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BagCollection start = *MakeWorkload(seed);
    ConsistencyEngine engine = *ConsistencyEngine::Make(start);
    uint64_t fills_before = engine.marginal_fills();
    PairwiseVerdict before = *engine.PairwiseAll();
    bool global_before = *engine.Global();

    const Bag& bag = engine.collection().bag(0);
    std::vector<Value> vals(bag.schema().arity(), 1);
    Tuple x{vals};
    std::vector<BagDelta> stream = {{x, +3}, {x, -3}};
    DeltaOutcome outcome;
    ConsistencyEngine next =
        *ConsistencyEngine::MakeDeltaBatch(engine, OneBag(0, stream), &outcome);

    // Structural no-op: a fresh generation (modulo the generation handle
    // itself) with no slot changed, no pair dirtied, no fill counted, and
    // the bag's rows untouched; the previous generation is unchanged.
    EXPECT_EQ(outcome.changed_slots, 0u);
    EXPECT_TRUE(outcome.dirty_pairs.empty());
    EXPECT_EQ(next.marginal_fills(), 0u);
    EXPECT_EQ(engine.marginal_fills(), fills_before);
    EXPECT_EQ(next.collection().bag(0), start.bag(0));

    PairwiseVerdict after = *next.PairwiseAll();
    EXPECT_EQ(after.consistent, before.consistent);
    if (!before.consistent) {
      EXPECT_EQ(after.witness_pair, before.witness_pair);
    }
    EXPECT_EQ(*next.Global(), global_before);
  }
}

TEST(EngineDeltaTest, IdenticalVerdictsAcrossWorkerCounts) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(7'000'000 + seed);
    BagCollection start = *MakeWorkload(seed);
    ConsistencyEngine start_engine = *ConsistencyEngine::Make(start);
    size_t r = rng.Below(start.size());
    std::vector<BagDelta> deltas = MakeStream(start.bag(r), &rng);
    Result<ConsistencyEngine> derived =
        ConsistencyEngine::MakeDeltaBatch(start_engine, OneBag(r, deltas));
    ASSERT_TRUE(derived.ok()) << derived.status().message();
    ConsistencyEngine& engine = *derived;
    PairwiseVerdict delta_verdict = *engine.PairwiseAll();

    for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
      EngineOptions opts;
      opts.num_threads = workers;
      ConsistencyEngine reseal =
          *ConsistencyEngine::Make(BagCollection(engine.collection()), opts);
      PairwiseVerdict v = *reseal.PairwiseAll();
      EXPECT_EQ(v.consistent, delta_verdict.consistent) << workers << " workers";
      if (!v.consistent) {
        EXPECT_EQ(v.witness_pair, delta_verdict.witness_pair);
      }
      EXPECT_EQ(*reseal.Global(), *engine.Global()) << workers << " workers";
    }
  }
}

TEST(EngineDeltaTest, DeleteBelowZeroLeavesEngineIntact) {
  BagCollection start = *MakeWorkload(3);
  ConsistencyEngine engine = *ConsistencyEngine::Make(start);
  PairwiseVerdict before = *engine.PairwiseAll();
  uint64_t fills_before = engine.marginal_fills();

  const Bag& bag = engine.collection().bag(0);
  ASSERT_FALSE(bag.IsEmpty());
  Tuple victim = bag.RowAt(0);
  uint64_t have = bag.MultiplicityAt(0);
  std::vector<BagDelta> stream = {
      {victim, -static_cast<int64_t>(have) - 1}};  // one too many
  Result<ConsistencyEngine> failed =
      ConsistencyEngine::MakeDeltaBatch(engine, OneBag(0, stream));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kOutOfRange);

  // Nothing moved: rows, fills, and verdicts are bit-identical.
  EXPECT_EQ(engine.collection().bag(0), start.bag(0));
  EXPECT_EQ(engine.marginal_fills(), fills_before);
  PairwiseVerdict after = *engine.PairwiseAll();
  EXPECT_EQ(after.consistent, before.consistent);

  // And the engine still takes a valid delta afterwards.
  std::vector<BagDelta> ok_stream = {{victim, -static_cast<int64_t>(have)}};
  DeltaOutcome outcome;
  ConsistencyEngine next =
      *ConsistencyEngine::MakeDeltaBatch(engine, OneBag(0, ok_stream), &outcome);
  EXPECT_EQ(next.collection().bag(0).Multiplicity(victim), 0u);
  CheckDirtyPairMinimality(outcome, 0);
  CheckAgainstReseal(next);
}

TEST(EngineDeltaTest, MakeDeltaBatchGuardRails) {
  BagCollection start = *MakeWorkload(5);
  ConsistencyEngine engine = *ConsistencyEngine::Make(start);

  // Bag index out of range.
  EXPECT_FALSE(
      ConsistencyEngine::MakeDeltaBatch(engine, OneBag(start.size() + 7, {}))
          .ok());
}

// The one delta step behind MakeDeltaBatch and a session's staged
// commit: a bag listed twice nets as one stream, the applied nets come
// back ascending with cancelled rows gone, an unlisted bag keeps its row
// store, and a failure in any bag leaves every bag as it was.
TEST(EngineDeltaTest, ApplyBatchToBagsNetsEachBagOnceAndIsAllOrNothing) {
  Bag r(Schema{{0, 1}});
  ASSERT_TRUE(r.Set(Tuple{{1, 1}}, 2).ok());
  Bag s(Schema{{1}});
  ASSERT_TRUE(s.Set(Tuple{{1}}, 2).ok());
  std::vector<Bag> bags = {r, s};

  DeltaBatch batch = {{0, {{Tuple{{2, 2}}, 1}, {Tuple{{1, 1}}, -1}}},
                      {0, {{Tuple{{2, 2}}, -1}, {Tuple{{0, 3}}, 4}}}};
  Result<std::vector<RowDeltas>> applied = ApplyBatchToBags(batch, &bags);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_EQ(applied->size(), 2u);
  EXPECT_EQ((*applied)[0], (RowDeltas{{Tuple{{0, 3}}, 4}, {Tuple{{1, 1}}, -1}}));
  EXPECT_TRUE((*applied)[1].empty());
  EXPECT_EQ(bags[0].Multiplicity(Tuple{{0, 3}}), 4u);
  EXPECT_EQ(bags[0].Multiplicity(Tuple{{1, 1}}), 1u);
  EXPECT_EQ(bags[0].SupportSize(), 2u);
  EXPECT_TRUE(bags[1].SharesRowsWith(s));

  // The last bag's delete underflows, or a bag index is out of range:
  // neither bag moves.
  const std::vector<Bag> before = bags;
  DeltaBatch underflow = {{0, {{Tuple{{2, 2}}, 5}}}, {1, {{Tuple{{1}}, -3}}}};
  EXPECT_EQ(ApplyBatchToBags(underflow, &bags).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ApplyBatchToBags({{2, {}}}, &bags).status().code(), StatusCode::kOutOfRange);
  ASSERT_EQ(bags.size(), before.size());
  for (size_t b = 0; b < bags.size(); ++b) {
    EXPECT_TRUE(bags[b].SharesRowsWith(before[b])) << "bag " << b;
  }
}

// The engine half of the COMMIT contract: a multi-bag batch whose LAST
// entry is invalid builds nothing and leaves the previous generation's
// bags, fills and verdict untouched even though the earlier bags' own
// deltas were individually fine; and a valid batch's marginal fills land
// on exactly its dirty slot count.
TEST(EngineDeltaTest, BatchFailureInLastBagLeavesEveryBagUntouched) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(9'000'000 + seed);
    BagCollection start = *MakeWorkload(seed);
    ConsistencyEngine engine = *ConsistencyEngine::Make(start);
    const size_t m = engine.collection().size();
    if (m < 2) continue;  // atomicity across bags needs at least two
    PairwiseVerdict before = *engine.PairwiseAll();
    uint64_t fills_before = engine.marginal_fills();

    size_t victim_bag = m;
    for (size_t r = 0; r < m; ++r) {
      if (!engine.collection().bag(r).IsEmpty()) {
        victim_bag = r;
        break;
      }
    }
    ASSERT_LT(victim_bag, m);
    DeltaBatch batch;
    for (size_t r = 0; r < m; ++r) {
      if (r == victim_bag) continue;
      batch.push_back({r, MakeStream(engine.collection().bag(r), &rng)});
    }
    const Bag& victim = engine.collection().bag(victim_bag);
    Tuple row = victim.RowAt(0);
    uint64_t have = victim.MultiplicityAt(0);
    batch.push_back(
        {victim_bag, {{row, -static_cast<int64_t>(have) - 1}}});  // underflow

    Result<ConsistencyEngine> derived =
        ConsistencyEngine::MakeDeltaBatch(engine, batch);
    ASSERT_FALSE(derived.ok());
    EXPECT_EQ(derived.status().code(), StatusCode::kOutOfRange);
    for (size_t r = 0; r < m; ++r) {
      EXPECT_EQ(engine.collection().bag(r), start.bag(r)) << "bag " << r;
    }
    EXPECT_EQ(engine.marginal_fills(), fills_before);
    PairwiseVerdict after = *engine.PairwiseAll();
    EXPECT_EQ(after.consistent, before.consistent);
    if (!before.consistent) {
      EXPECT_EQ(after.witness_pair, before.witness_pair);
    }

    // Drop the poisoned tail: the remaining all-valid batch derives one
    // generation whose fills are exactly the batch's dirty slots.
    batch.pop_back();
    if (batch.empty()) continue;
    DeltaOutcome outcome;
    Result<ConsistencyEngine> next =
        ConsistencyEngine::MakeDeltaBatch(engine, batch, &outcome);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(next->marginal_fills(), outcome.changed_slots);
    CheckAgainstReseal(*next);
  }
}

}  // namespace
}  // namespace bagc
