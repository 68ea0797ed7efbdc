#include "engine/consistency_engine.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>

#include "engine/two_bag_solver.h"
#include "hypergraph/acyclicity.h"
#include "solver/integer_feasibility.h"
#include "solver/lp.h"

namespace bagc {

namespace {

// Canonicalizes every dictionary of `dicts` (id order == sorted external
// order) and rewrites the collection's rows through the remaps, re-sealing
// each bag so entries are sorted under the new ids. Every row id must have
// been issued by `dicts` (the uniform-sealing precondition of
// value_dictionary.h): numeric-codec rows have no dictionary to define an
// external order — side-table ids in particular are NOT value-ordered —
// so they are rejected rather than silently passed through.
Result<BagCollection> CanonicalizeCollection(const BagCollection& collection,
                                             DictionarySet* dicts) {
  std::vector<std::vector<ValueId>> remaps = dicts->CanonicalizeAll();
  std::vector<Bag> rewritten;
  rewritten.reserve(collection.size());
  for (const Bag& b : collection.bags()) {
    BagBuilder builder(b.schema());
    builder.Reserve(b.SupportSize());
    const size_t arity = b.schema().arity();
    for (size_t e = 0; e < b.SupportSize(); ++e) {
      std::vector<ValueId> ids(arity);
      for (size_t s = 0; s < arity; ++s) {
        AttrId a = b.schema().at(s);
        ValueId id = b.IdAt(e, s);
        if (a >= remaps.size() || id >= remaps[a].size()) {
          return Status::InvalidArgument(
              "canonicalize_dictionaries: a row id was not issued by the "
              "engine's dictionary set");
        }
        ids[s] = remaps[a][id];
      }
      BAGC_RETURN_NOT_OK(builder.Add(Tuple::OfIds(std::move(ids)), b.MultiplicityAt(e)));
    }
    BAGC_ASSIGN_OR_RETURN(Bag sealed, builder.Build());
    rewritten.push_back(std::move(sealed));
  }
  return BagCollection::Make(std::move(rewritten));
}

}  // namespace

Result<ConsistencyEngine> ConsistencyEngine::Make(BagCollection collection,
                                                  EngineOptions options,
                                                  const ConsistencyEngine* previous) {
  ConsistencyEngine engine;
  engine.options_ = options;
  if (options.canonicalize_dictionaries) {
    if (options.dictionaries == nullptr) {
      return Status::InvalidArgument(
          "canonicalize_dictionaries requires a dictionary set");
    }
    BAGC_ASSIGN_OR_RETURN(
        collection, CanonicalizeCollection(collection, options.dictionaries.get()));
  }
  engine.collection_ = std::make_shared<const BagCollection>(std::move(collection));
  if (options.num_threads > 1) {
    engine.pool_ = std::make_unique<ThreadPool>(options.num_threads);
  }
  BAGC_RETURN_NOT_OK(engine.Seal(previous));
  return engine;
}

Status ConsistencyEngine::Seal(const ConsistencyEngine* previous) {
  size_t m = collection_->size();
  cache_.assign(m, {});

  // Pass 1: compute each unordered pair's shared schema exactly once and
  // collect the distinct schemas per bag (by pointer into pair_schema,
  // which is pre-reserved so the pointers stay stable); one
  // CachedProjection slot per (bag, shared schema), schema-sorted per bag
  // so lookups binary-search.
  std::vector<Schema> pair_schema;
  pair_schema.reserve(m * (m - 1) / 2);
  std::vector<std::vector<const Schema*>> per_bag(m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      pair_schema.push_back(Schema::Intersect(collection_->bag(i).schema(),
                                              collection_->bag(j).schema()));
      per_bag[i].push_back(&pair_schema.back());
      per_bag[j].push_back(&pair_schema.back());
    }
  }
  auto deref_less = [](const Schema* a, const Schema* b) { return *a < *b; };
  auto deref_eq = [](const Schema* a, const Schema* b) { return *a == *b; };
  for (size_t i = 0; i < m; ++i) {
    std::vector<const Schema*>& schemas = per_bag[i];
    std::sort(schemas.begin(), schemas.end(), deref_less);
    schemas.erase(std::unique(schemas.begin(), schemas.end(), deref_eq),
                  schemas.end());
    cache_[i].resize(schemas.size());
    for (size_t k = 0; k < schemas.size(); ++k) {
      cache_[i][k].schema = *schemas[k];
    }
  }

  // Pass 2: resolve the pair list against the now-stable cache storage.
  pairs_.reserve(pair_schema.size());
  size_t pair_index = 0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      const Schema& z = pair_schema[pair_index++];
      CachedProjection* left = FindProjection(i, z);
      CachedProjection* right = FindProjection(j, z);
      if (left == nullptr || right == nullptr) {
        return Status::Internal("sealed cache is missing a pairwise marginal");
      }
      pairs_.push_back({i, j, left, right});
    }
  }

  // Incremental reuse: a bag sharing its row store with a bag of the
  // previous generation has that bag's marginals (Eq. (2) reads only the
  // rows), so it adopts every cached slot whose shared schema survived. A
  // slot whose schema is new (the partner bag changed shape) misses the
  // lookup and is filled below, so a re-seal that changed k of m bags
  // fills O(k·m) slots, not O(m²). Shared pointers keep the marginals
  // alive across either generation's destruction.
  constexpr size_t kFresh = static_cast<size_t>(-1);
  std::vector<size_t> prev_of(m, kFresh);
  if (previous != nullptr) {
    const std::vector<Bag>& prev_bags = previous->collection_->bags();
    for (size_t i = 0; i < m; ++i) {
      const Bag& bag = collection_->bag(i);
      auto match = std::find_if(prev_bags.begin(), prev_bags.end(),
                                [&bag](const Bag& p) { return bag.SharesRowsWith(p); });
      if (match == prev_bags.end()) continue;
      prev_of[i] = static_cast<size_t>(match - prev_bags.begin());
      ++reused_bags_;
      for (CachedProjection& slot : cache_[i]) {
        const CachedProjection* prev_slot =
            previous->FindProjection(prev_of[i], slot.schema);
        // Adopted slots are already filled: EnsureFilled skips them, so no
        // fresh fill is counted.
        if (prev_slot != nullptr) slot.marginal = prev_slot->marginal;
      }
    }
  }

  // Pass 3: fill the slots. Each slot is written by exactly one task, so
  // the parallel fill shares nothing but disjoint slots.
  std::vector<std::pair<size_t, size_t>> slots;  // (bag, cache index)
  for (size_t i = 0; i < m; ++i) {
    for (size_t k = 0; k < cache_[i].size(); ++k) slots.emplace_back(i, k);
  }
  std::vector<Status> statuses(slots.size());
  if (pool_ != nullptr) {
    for (size_t t = 0; t < slots.size(); ++t) {
      pool_->Submit([this, &statuses, &slots, t] {
        statuses[t] =
            EnsureFilled(&cache_[slots[t].first][slots[t].second], slots[t].first);
      });
    }
    pool_->WaitIdle();
  } else {
    for (size_t t = 0; t < slots.size(); ++t) {
      statuses[t] =
          EnsureFilled(&cache_[slots[t].first][slots[t].second], slots[t].first);
    }
  }
  for (const Status& st : statuses) BAGC_RETURN_NOT_OK(st);

  // Pass 4: decide every pair. A pair whose two bags were both adopted
  // from the previous generation carries that generation's verdict (two
  // bags adopted from one previous bag are equal, hence consistent);
  // every other pair compares its two shared marginals (Lemma 2(2)).
  pair_consistent_.assign(pairs_.size(), 0);
  std::vector<size_t> to_compare;
  to_compare.reserve(pairs_.size());
  for (size_t idx = 0; idx < pairs_.size(); ++idx) {
    size_t pi = prev_of[pairs_[idx].i];
    size_t pj = prev_of[pairs_[idx].j];
    if (pi == kFresh || pj == kFresh) {
      to_compare.push_back(idx);
    } else if (pi == pj) {
      pair_consistent_[idx] = 1;
    } else {
      pair_consistent_[idx] = previous->pair_consistent_[previous->PairIndex(
          std::min(pi, pj), std::max(pi, pj))];
    }
  }
  ComparePairs(to_compare);
  DecidePairwise();
  return Status::OK();
}

void ConsistencyEngine::ComparePairs(const std::vector<size_t>& pair_indices) {
  auto compare = [this, &pair_indices](size_t lo, size_t hi) {
    for (size_t t = lo; t < hi; ++t) {
      const PairTask& p = pairs_[pair_indices[t]];
      pair_consistent_[pair_indices[t]] = *p.left->marginal == *p.right->marginal;
    }
  };
  if (pool_ == nullptr || pair_indices.size() < 2) {
    compare(0, pair_indices.size());
    return;
  }
  // Contiguous chunks write disjoint pair_consistent_ bytes. Every pair
  // is compared (no early exit), so the verdicts — and the first failing
  // pair DecidePairwise reads off them — are identical for every worker
  // count.
  size_t num_chunks = std::min(pair_indices.size(), 4 * pool_->num_threads());
  size_t chunk = (pair_indices.size() + num_chunks - 1) / num_chunks;
  for (size_t lo = 0; lo < pair_indices.size(); lo += chunk) {
    size_t hi = std::min(pair_indices.size(), lo + chunk);
    pool_->Submit([&compare, lo, hi] { compare(lo, hi); });
  }
  // Drain before returning: in-flight tasks reference this stack frame.
  pool_->WaitIdle();
}

void ConsistencyEngine::DecidePairwise() {
  pairwise_verdict_ = PairwiseVerdict{};
  auto first = std::find(pair_consistent_.begin(), pair_consistent_.end(), 0);
  if (first != pair_consistent_.end()) {
    const PairTask& p = pairs_[static_cast<size_t>(first - pair_consistent_.begin())];
    pairwise_verdict_.consistent = false;
    pairwise_verdict_.witness_pair = {p.i, p.j};
  }
}

Status ConsistencyEngine::EnsureFilled(CachedProjection* slot, size_t bag_index) {
  if (slot->marginal != nullptr) return Status::OK();
  BAGC_ASSIGN_OR_RETURN(Bag marginal,
                        collection_->bag(bag_index).Marginal(slot->schema));
  slot->marginal = std::make_shared<const Bag>(std::move(marginal));
  marginal_fills_->fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

ConsistencyEngine::CachedProjection* ConsistencyEngine::FindProjection(
    size_t i, const Schema& z) {
  return const_cast<CachedProjection*>(
      static_cast<const ConsistencyEngine*>(this)->FindProjection(i, z));
}

const ConsistencyEngine::CachedProjection* ConsistencyEngine::FindProjection(
    size_t i, const Schema& z) const {
  const std::vector<CachedProjection>& row = cache_[i];
  auto it = std::lower_bound(
      row.begin(), row.end(), z,
      [](const CachedProjection& p, const Schema& key) { return p.schema < key; });
  if (it == row.end() || it->schema != z) return nullptr;
  return &*it;
}

Result<bool> ConsistencyEngine::TwoBag(size_t i, size_t j) const {
  size_t m = collection_->size();
  if (i >= m || j >= m) return Status::OutOfRange("bag index out of range");
  if (i == j) return true;  // a bag always agrees with its own marginals
  if (i > j) std::swap(i, j);
  return pair_consistent_[PairIndex(i, j)] == 1;
}

Result<bool> ConsistencyEngine::Global() const {
  // Theorem 2: local-to-global holds, so pairwise consistency decides.
  if (IsAcyclic(collection_->hypergraph())) return pairwise_verdict_.consistent;
  // Pairwise consistency is necessary; it is also a cheap filter before
  // the exponential search. The verdict is whether a solution exists, so
  // no witness bag is read out.
  if (!pairwise_verdict_.consistent) return false;
  const std::vector<Bag>& bags = collection_->bags();
  BAGC_ASSIGN_OR_RETURN(JoinProvenance join,
                        JoinSupports(bags, options_.global.max_join_support));
  return SolveJoinProgram(bags, join, options_.global.search);
}

Result<bool> ConsistencyEngine::KWiseConsistent(
    size_t k, std::optional<std::vector<size_t>>* failing_subset) const {
  if (k < 2) return Status::InvalidArgument("k-wise consistency needs k >= 2");
  if (failing_subset != nullptr) failing_subset->reset();
  size_t m = collection_->size();
  // Subsets of size < k are covered by subsets of size k whenever m >= k
  // (global consistency of a superset implies it for subsets, since the
  // witness marginalizes down). When m < k, test the whole collection.
  size_t size = std::min(k, m);
  // Lexicographic combination enumeration, as in the historical
  // single-shot path, so the reported first failing subset is unchanged.
  std::vector<size_t> idx(size);
  for (size_t i = 0; i < size; ++i) idx[i] = i;
  while (true) {
    // Pairwise precheck from the verdicts decided at seal (idx is
    // increasing, so every pair is already ordered).
    bool subset_ok = true;
    for (size_t a = 0; a < size && subset_ok; ++a) {
      for (size_t b = a + 1; b < size && subset_ok; ++b) {
        subset_ok = pair_consistent_[PairIndex(idx[a], idx[b])] == 1;
      }
    }
    if (subset_ok) {
      // Pairwise consistency decides acyclic subsets (Theorem 2). Only a
      // cyclic subset needs the exact feasibility search — and its
      // pairwise prefilter is already done, so go straight to the LP.
      std::vector<Schema> edges;
      edges.reserve(size);
      for (size_t i : idx) edges.push_back(collection_->bag(i).schema());
      BAGC_ASSIGN_OR_RETURN(Hypergraph sub_h, Hypergraph::FromEdges(std::move(edges)));
      if (!IsAcyclic(sub_h)) {
        std::vector<Bag> sub_bags;
        sub_bags.reserve(size);
        for (size_t i : idx) sub_bags.push_back(collection_->bag(i));
        BAGC_ASSIGN_OR_RETURN(
            JoinProvenance join,
            JoinSupports(sub_bags, options_.global.max_join_support));
        BAGC_ASSIGN_OR_RETURN(subset_ok,
                              SolveJoinProgram(sub_bags, join, options_.global.search));
      }
    }
    if (!subset_ok) {
      if (failing_subset != nullptr) *failing_subset = idx;
      return false;
    }
    // Next combination.
    size_t i = size;
    bool advanced = false;
    while (i > 0) {
      --i;
      if (idx[i] != i + m - size) {
        ++idx[i];
        for (size_t j = i + 1; j < size; ++j) idx[j] = idx[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) return true;
  }
}

Result<std::optional<Bag>> ConsistencyEngine::Witness(size_t i, size_t j) const {
  BAGC_ASSIGN_OR_RETURN(bool consistent, TwoBag(i, j));
  if (!consistent) return std::optional<Bag>();
  // Per-call state only, so concurrent witness queries never contend; the
  // construction is deterministic.
  return TransportationWitness(collection_->bag(i), collection_->bag(j));
}

Result<std::optional<Bag>> ConsistencyEngine::SolveGlobalAcyclic() const {
  const Hypergraph& h = collection_->hypergraph();
  BAGC_ASSIGN_OR_RETURN(std::vector<size_t> rip_order, RunningIntersectionOrder(h));

  // Pairwise-consistency prefilter (by Theorem 2, for acyclic schemas this
  // already decides global consistency).
  if (!pairwise_verdict_.consistent) return std::optional<Bag>();

  // The hypergraph's canonical edges may merge duplicate schemas; map each
  // edge to the bags carrying it. Pairwise-consistent bags with the same
  // schema are *equal* (consistency on the full shared schema), so any
  // representative works.
  const std::vector<Schema>& edges = h.edges();
  std::vector<const Bag*> edge_bag(edges.size(), nullptr);
  for (const Bag& b : collection_->bags()) {
    for (size_t e = 0; e < edges.size(); ++e) {
      if (edges[e] == b.schema()) {
        edge_bag[e] = &b;
        break;
      }
    }
  }
  for (const Bag* p : edge_bag) {
    if (p == nullptr) return Status::Internal("edge without a bag");
  }

  // Theorem 6: fold minimal two-bag witnesses (northwest-corner vertices)
  // along the RIP listing. Each step's construction is its own Lemma 2(2)
  // check: it returns nullopt exactly when the accumulator's marginal on
  // the step's shared attributes differs from the next bag's, which Step 1
  // of Theorem 2 rules out for pairwise consistent bags along a RIP
  // listing. The fold is sequential (the accumulator feeds the next step)
  // and deterministic.
  Bag acc = *edge_bag[rip_order[0]];
  for (size_t i = 1; i < rip_order.size(); ++i) {
    BAGC_ASSIGN_OR_RETURN(std::optional<Bag> ti,
                          TransportationWitness(acc, *edge_bag[rip_order[i]]));
    if (!ti.has_value()) {
      return Status::Internal(
          "pairwise consistent acyclic collection hit an inconsistent fold step");
    }
    acc = std::move(*ti);
  }
  return std::optional<Bag>(std::move(acc));
}

Result<std::optional<Bag>> ConsistencyEngine::SolveGlobalExact() const {
  // Pairwise consistency is necessary; it is also a cheap filter before
  // the exponential search.
  if (!pairwise_verdict_.consistent) return std::optional<Bag>();
  const std::vector<Bag>& bags = collection_->bags();
  BAGC_ASSIGN_OR_RETURN(JoinProvenance join,
                        JoinSupports(bags, options_.global.max_join_support));
  std::vector<uint64_t> x;
  BAGC_ASSIGN_OR_RETURN(bool feasible,
                        SolveJoinProgram(bags, join, options_.global.search, nullptr, &x));
  if (!feasible) return std::optional<Bag>();
  // The witness is the variables with a positive value: a subsequence of
  // J's sorted tuples, gathered through the provenance.
  std::vector<uint64_t> mults;
  std::vector<uint32_t> rows;
  for (size_t v = 0; v < x.size(); ++v) {
    if (x[v] == 0) continue;
    rows.push_back(static_cast<uint32_t>(v));
    mults.push_back(x[v]);
  }
  BAGC_ASSIGN_OR_RETURN(Bag witness,
                        Bag::FromColumnar(join.joined, GatherJoinRows(bags, join, rows),
                                          std::move(mults)));
  return std::optional<Bag>(std::move(witness));
}

Result<DeltaOutcome> ConsistencyEngine::ApplyDeltaBatch(
    const DeltaBatch& batch) {
  size_t m = collection_->size();

  // Net change per bag per row, keyed in sorted tuple order. A bag
  // listed twice nets as one stream, and opposed rows within the batch
  // cancel before validation, so "insert x; delete x" is a structural
  // no-op even when x was never in the bag.
  std::map<size_t, std::map<Tuple, int64_t>> nets;
  for (const BagDeltas& bd : batch) {
    if (bd.bag_index >= m) return Status::OutOfRange("bag index out of range");
    const size_t arity = collection_->bag(bd.bag_index).schema().arity();
    std::map<Tuple, int64_t>& net = nets[bd.bag_index];
    for (const BagDelta& d : bd.deltas) {
      if (d.row.arity() != arity) {
        return Status::InvalidArgument(
            "delta row arity does not match the bag schema");
      }
      int64_t& acc = net[d.row];
      if (__builtin_add_overflow(acc, d.delta, &acc)) {
        return Status::OutOfRange("delta net overflows int64 for row " +
                                  d.row.ToString());
      }
    }
  }
  for (auto bit = nets.begin(); bit != nets.end();) {
    std::map<Tuple, int64_t>& net = bit->second;
    for (auto it = net.begin(); it != net.end();) {
      it = it->second == 0 ? net.erase(it) : std::next(it);
    }
    bit = net.empty() ? nets.erase(bit) : std::next(bit);
  }
  DeltaOutcome outcome;
  if (nets.empty()) return outcome;
  outcome.rows_changed = true;

  // This engine is a fresh generation that MakeDeltaBatch discards on any
  // error, and it shares bags and marginals with the previous generation
  // only as immutable shared pointers. So each bag is mutated and its
  // slots replaced as soon as they validate: a failure in the last bag
  // leaves nothing of the previous generation touched.
  std::vector<Bag> bags = collection_->bags();
  std::vector<const CachedProjection*> dirty_slots;
  for (const auto& [bag_index, net] : nets) {
    const Bag& bag = collection_->bag(bag_index);
    // Row-level validation (a delete below zero → OutOfRange, an insert
    // overflow) is the bag layer's. COW: the previous generation keeps
    // the old bag.
    Bag& mutated = bags[bag_index];
    BAGC_RETURN_NOT_OK(mutated
                           .ApplyRowDeltas(std::vector<std::pair<Tuple, int64_t>>(
                               net.begin(), net.end()))
                           .status());

    // Adjust each cached marginal of the bag from the *projected* nets
    // (Equation (2) is linear in multiplicities): the marginal takes the
    // projected net as row deltas — a known group's net is a multiplicity
    // bump, a new group appends, an adjustment to zero removes the group.
    // A projection under which the nets cancel is clean and keeps its
    // slot untouched. Row nets fit in int64 but their projected sum may
    // not; such a slot is refilled from the mutated bag instead.
    for (CachedProjection& slot : cache_[bag_index]) {
      BAGC_ASSIGN_OR_RETURN(Projector proj,
                            Projector::Make(bag.schema(), slot.schema));
      std::map<Tuple, int64_t> pnet;
      bool refill = false;
      for (const auto& [t, d] : net) {
        int64_t& acc = pnet[t.Project(proj)];
        if (__builtin_add_overflow(acc, d, &acc)) {
          refill = true;
          break;
        }
      }
      Bag next;
      if (refill) {
        BAGC_ASSIGN_OR_RETURN(next, mutated.Marginal(slot.schema));
        if (next == *slot.marginal) continue;
      } else {
        // A group cannot drop below zero: its new count is a sum of the
        // new (validated, non-negative) row multiplicities.
        // ApplyRowDeltas guards the invariant anyway.
        next = *slot.marginal;
        BAGC_ASSIGN_OR_RETURN(size_t changed,
                              next.ApplyRowDeltas(
                                  std::vector<std::pair<Tuple, int64_t>>(
                                      pnet.begin(), pnet.end())));
        if (changed == 0) continue;
      }
      slot.marginal = std::make_shared<const Bag>(std::move(next));
      dirty_slots.push_back(&slot);
      // An in-place adjustment is this generation's fill of the slot.
      marginal_fills_->fetch_add(1, std::memory_order_relaxed);
    }
  }
  outcome.changed_slots = dirty_slots.size();

  // Rebuild the owned collection around the mutated bags (schemas — and
  // hence the hypergraph, the pair list, and every cache slot pointer —
  // are unchanged; untouched bags are refcount bumps).
  BAGC_ASSIGN_OR_RETURN(BagCollection next_collection,
                        BagCollection::Make(std::move(bags)));
  collection_ = std::make_shared<const BagCollection>(std::move(next_collection));

  // Minimal invalidation: exactly the pairs whose shared-attribute
  // marginal changed are re-compared (identified by the pre-resolved slot
  // pointers); clean pairs — including every pair not involving a mutated
  // bag — keep their verdicts. A pair between two mutated bags is dirty
  // from either side. pairs_ is lexicographic, so dirty_pairs comes out
  // sorted and deduplicated.
  std::vector<size_t> dirty;
  for (size_t idx = 0; idx < pairs_.size(); ++idx) {
    const PairTask& p = pairs_[idx];
    if (std::find(dirty_slots.begin(), dirty_slots.end(), p.left) ==
            dirty_slots.end() &&
        std::find(dirty_slots.begin(), dirty_slots.end(), p.right) ==
            dirty_slots.end()) {
      continue;
    }
    outcome.dirty_pairs.emplace_back(p.i, p.j);
    dirty.push_back(idx);
  }
  ComparePairs(dirty);
  DecidePairwise();
  return outcome;
}

Result<ConsistencyEngine> ConsistencyEngine::MakeDeltaBatch(
    const ConsistencyEngine& previous, const DeltaBatch& batch,
    DeltaOutcome* outcome) {
  if (previous.options_.canonicalize_dictionaries) {
    return Status::FailedPrecondition(
        "MakeDeltaBatch cannot apply deltas to a canonicalized generation: "
        "canonicalization remapped the row ids the delta speaks");
  }
  // Every bag of the copied collection shares its row store with
  // `previous`, so the seal adopts them all: zero marginal fills, zero
  // pair compares, shared marginal slots. The batch below then adjusts
  // only the mutated bags' dirty slots, so marginal_fills() of the new
  // engine lands on exactly that count.
  EngineOptions options = previous.options_;
  options.num_threads = 1;  // residual work is O(dirty pairs); no pool
  BAGC_ASSIGN_OR_RETURN(ConsistencyEngine engine,
                        Make(previous.collection(), options, &previous));
  BAGC_ASSIGN_OR_RETURN(DeltaOutcome out, engine.ApplyDeltaBatch(batch));
  if (outcome != nullptr) *outcome = std::move(out);
  return engine;
}

size_t ConsistencyEngine::ApproxSealedBytes() const {
  // Bag::ApproxBytes charges each bag's owned column store +
  // multiplicity array. The budget accounting only needs a monotone,
  // deterministic measure.
  size_t total = 0;
  for (const Bag& b : collection_->bags()) total += b.ApproxBytes();
  for (const std::vector<CachedProjection>& row : cache_) {
    for (const CachedProjection& slot : row) {
      total += slot.marginal->ApproxBytes();
    }
  }
  return total;
}

const Bag* ConsistencyEngine::CachedMarginal(size_t i, const Schema& z) const {
  if (i >= cache_.size()) return nullptr;
  const CachedProjection* p = FindProjection(i, z);
  return p == nullptr ? nullptr : p->marginal.get();
}

}  // namespace bagc
