// ConsistencyEngine: the batch consistency API. By Lemma 2(2) of
// Atserias–Kolaitis (PODS 2021), whether two bags are consistent is a pure
// function of their marginals on the shared attributes, and by Theorem 2
// those pairwise verdicts decide global consistency of acyclic schemas. So
// the engine does all pairwise work once, when it seals a collection:
//
//   - Make computes, for every pair of bags, the marginals on their shared
//     attributes (deduplicated per bag and keyed by attribute set),
//     optionally sharded across a work-stealing thread pool;
//   - the same seal compares every pair's two marginals in one sharded
//     pass and records each verdict, together with the lexicographically
//     first inconsistent pair;
//   - TwoBag, PairwiseAll, KWiseConsistent and Witness are then const
//     reads of that sealed state, safe for any number of concurrent
//     callers;
//   - Global() dispatches on schema acyclicity (Theorem 2) and, on a
//     cyclic schema, runs the exact solver (the server's snapshots
//     remember its verdict);
//   - a Make handed the previous generation adopts the sealed state of
//     every bag whose immutable row store it still holds, so a re-seal
//     pays only for the bags that changed;
//   - MakeDeltaBatch derives the next generation from row deltas,
//     adjusting only the changed marginals and re-comparing only the
//     pairs they touch.
//
// The single-shot entry points in core/{pairwise,global}.cc are thin
// wrappers that seal a throwaway engine per call.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "core/global.h"
#include "tuple/value_dictionary.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace bagc {

/// Tuning for a ConsistencyEngine.
struct EngineOptions {
  /// Worker threads for sealing (marginal fills and pair comparisons);
  /// 1 runs inline (no pool is created).
  size_t num_threads = 1;
  /// Tuning for the exact (cyclic-schema) global path.
  GlobalSolveOptions global;
  /// The dictionary set the collection's rows were interned through, when
  /// it was sealed from external (string) values. One set is shared by
  /// the whole collection, so shared-attribute ids are comparable across
  /// bags and no query ever re-interns or touches an external value. The
  /// engine only holds it (for decoding results and for callers sharing
  /// it onward); row algebra is dictionary-oblivious — except under
  /// canonicalize_dictionaries, which rewrites the set at seal time.
  std::shared_ptr<DictionarySet> dictionaries;
  /// Canonicalize `dictionaries` at seal time (ValueDictionary::
  /// Canonicalize per attribute) and rewrite the engine's copy of the
  /// collection through the remaps, so id order == external sorted
  /// order: ordered entry scans then decode to lexicographically sorted
  /// external rows, enabling range queries over external values. Requires
  /// a non-null dictionary set and a fully dictionary-sealed collection
  /// (numeric-codec rows have no external order to canonicalize to and
  /// are rejected); the set is mutated, so it must not encode rows for
  /// bags outside this collection.
  bool canonicalize_dictionaries = false;
};

/// Pairwise consistency of a whole collection.
struct PairwiseVerdict {
  bool consistent = true;
  /// Valid iff !consistent: the lexicographically first pair (i, j), i < j,
  /// whose shared marginals disagree. Deterministic for every thread count.
  std::pair<size_t, size_t> witness_pair{0, 0};
};

class ConsistencyEngine;

/// One row-level mutation of one bag: `delta` > 0 inserts copies of the
/// row, `delta` < 0 deletes them. A stream of these is a *delta*: the
/// incremental-maintenance unit of ConsistencyEngine::MakeDeltaBatch and
/// the server's INSERT/DELETE verbs. Rows carry the same interned ids as
/// the bag they mutate (dictionary or codec ids).
struct BagDelta {
  Tuple row;
  int64_t delta = 0;
};

/// One bag's share of an atomic multi-bag commit.
struct BagDeltas {
  size_t bag_index = 0;
  std::vector<BagDelta> deltas;
};

/// An atomic delta generation: every listed bag's deltas publish
/// together or not at all (MakeDeltaBatch). Listing the same bag twice
/// is allowed — its deltas net as one stream.
using DeltaBatch = std::vector<BagDeltas>;

/// What a delta actually touched: the pairs whose shared-attribute
/// marginals changed (they were re-compared; every other pair kept its
/// verdict) and the number of cached marginal slots that were adjusted.
/// A delta whose row changes cancel out under a projection leaves that
/// projection's slot — and its pairs — clean.
struct DeltaOutcome {
  /// Dirty pairs (i, j), i < j, in lexicographic order. Every pair
  /// involves a mutated bag (dirty-pair minimality).
  std::vector<std::pair<size_t, size_t>> dirty_pairs;
  /// Cached marginal slots of the mutated bags that were adjusted in
  /// place. Each adjustment counts as one marginal fill.
  size_t changed_slots = 0;
  /// False when every row's net cancelled: the new generation's bags are
  /// the previous generation's, so even a cyclic global verdict carries.
  bool rows_changed = false;
};

/// \brief Sealed bag collection plus its pairwise verdicts.
///
/// Every engine is fully sealed when Make returns: every cached marginal
/// is filled and every pair is decided. The query surface (TwoBag,
/// PairwiseAll, KWiseConsistent, Witness, CachedMarginal) is const and
/// safe for any number of concurrent callers on one engine — the
/// substrate of the bagcd server's shared snapshots
/// (src/server/engine_snapshot.h). Global, SolveGlobalAcyclic and
/// SolveGlobalExact are const too; the pool serves only the seal.
/// Movable, not copyable (owns the pool).
class ConsistencyEngine {
 public:
  /// Seals `collection`: computes the pairwise shared-attribute marginals
  /// and every pair's verdict, in parallel when options.num_threads > 1.
  /// Bags are already columnar (BagBuilder seals straight to columns), so
  /// the seal adopts them as-is; a copied collection shares its bags' row
  /// stores.
  ///
  /// Incremental re-seal: with a non-null `previous` (which need only live
  /// through this call), each bag that shares its row store with a bag of
  /// `previous` (Bag::SharesRowsWith: a copy of it, or both empty over one
  /// schema) adopts the first such bag's cached marginals — by Lemma 2(2)
  /// and Eq. (2) they depend on the rows alone — and a pair of two adopted
  /// bags carries its previous verdict (two bags adopted from one previous
  /// bag are equal, hence consistent). So a re-seal that changed k of m
  /// bags fills only the O(k·m) slots involving a changed bag and compares
  /// only the pairs involving one. Equal rows in a new store do not match:
  /// they are refilled. reused_bags() reports how many bags were adopted.
  static Result<ConsistencyEngine> Make(BagCollection collection,
                                        EngineOptions options = {},
                                        const ConsistencyEngine* previous = nullptr);

  /// Builds the next generation of `previous` with an atomic multi-bag
  /// delta batch applied. Every untouched bag adopts the previous
  /// generation's bag, cached marginals and pair verdicts
  /// (shared pointers, no fills, no compares). Each mutated bag's cached
  /// marginal R[Z] is *adjusted* rather than recomputed: the projected net
  /// of the delta rows is added onto a copy of the old marginal (a known
  /// row's insert is a multiplicity bump, a new row appends, a delete to
  /// zero removes the row), since Equation (2) is linear in
  /// multiplicities. A projection under which the nets cancel keeps its
  /// slot. Each adjusted slot counts as one marginal fill, so
  /// marginal_fills() of the new engine lands on exactly the batch's
  /// dirty slot count. Exactly the pairs whose shared marginal changed on
  /// either side are re-compared before this returns.
  ///
  /// All-or-nothing: a failed batch (bag index out of range, arity
  /// mismatch, a DELETE below zero multiplicity → OutOfRange, overflow)
  /// builds nothing, and `previous` is never modified. Listing a bag twice
  /// nets its deltas as one stream; a batch whose nets cancel to zero
  /// yields an unchanged generation with an empty outcome. `previous` must
  /// not have canonicalized its dictionaries (the delta's ids would not be
  /// comparable) and must outlive this call. The new engine runs inline
  /// (no worker pool): a delta generation's residual work is
  /// O(dirty pairs), not O(m²).
  static Result<ConsistencyEngine> MakeDeltaBatch(
      const ConsistencyEngine& previous, const DeltaBatch& batch,
      DeltaOutcome* outcome = nullptr);

  ConsistencyEngine(ConsistencyEngine&&) = default;
  ConsistencyEngine& operator=(ConsistencyEngine&&) = default;
  ConsistencyEngine(const ConsistencyEngine&) = delete;
  ConsistencyEngine& operator=(const ConsistencyEngine&) = delete;

  const BagCollection& collection() const { return *collection_; }
  /// Number of seal workers (1 when running inline).
  size_t num_threads() const { return pool_ ? pool_->num_threads() : 1; }

  /// Joins and destroys the worker pool. For owners that used threads
  /// only for the seal and will serve the rest of the engine's life
  /// through the const query surface (the server's snapshots): a
  /// long-lived generation should not park N idle worker threads. No-op
  /// without a pool.
  void ReleaseWorkers() { pool_.reset(); }

  /// The shared dictionary set the collection was interned through, or
  /// nullptr for numerically built collections.
  const DictionarySet* dictionaries() const { return options_.dictionaries.get(); }
  /// The same, shareable (e.g. to hand to a sub-engine or writer).
  std::shared_ptr<const DictionarySet> shared_dictionaries() const {
    return options_.dictionaries;
  }

  /// Number of bags whose sealed state Make adopted from `previous` (a
  /// MakeDeltaBatch generation adopts every bag before its deltas apply).
  size_t reused_bags() const { return reused_bags_; }

  /// Number of marginal computations performed by this engine (cache
  /// fills at seal, slot adjustments under MakeDeltaBatch). Queries never
  /// add to it, which regression tests assert.
  uint64_t marginal_fills() const {
    return marginal_fills_->load(std::memory_order_relaxed);
  }

  /// Approximate resident bytes of the sealed state: collection bags and
  /// cached marginals (dictionaries excluded — the owner accounts those). An upper bound under incremental reuse:
  /// shared slots are counted in every generation holding them, which is
  /// the conservative direction for an eviction budget.
  size_t ApproxSealedBytes() const;

  /// Lemma 2(2) on bags i and j: the verdict decided at seal time.
  Result<bool> TwoBag(size_t i, size_t j) const;

  /// The pairwise verdict decided at seal time, reporting the
  /// lexicographically first inconsistent pair (deterministic for every
  /// thread count).
  Result<PairwiseVerdict> PairwiseAll() const { return pairwise_verdict_; }

  /// K-wise consistency (paper §4): every size-min(k, m) subcollection is
  /// globally consistent. Subsets are enumerated lexicographically and the
  /// first failing one is reported. Each subset's pairwise precheck reads
  /// the sealed pair verdicts, acyclic subsets are then decided outright by
  /// Theorem 2, and only cyclic subsets pay a local exact feasibility
  /// search. No bag is copied for acyclic subsets, nothing is re-interned,
  /// and no engine state is written.
  Result<bool> KWiseConsistent(
      size_t k,
      std::optional<std::vector<size_t>>* failing_subset = nullptr) const;

  /// Witness of consistency for bags i and j: the northwest-corner vertex
  /// of P(R, S), which is minimal (Corollary 4) — see
  /// engine/two_bag_solver.h. nullopt when inconsistent. The Lemma 2(2)
  /// pre-check reads the sealed verdict and the construction keeps only
  /// per-call state, so concurrent witness queries never contend; the
  /// construction is deterministic.
  Result<std::optional<Bag>> Witness(size_t i, size_t j) const;

  /// Global consistency: acyclic schemas read the pairwise verdict
  /// (Theorem 2); cyclic schemas join the supports and decide P(R1..Rm)
  /// from J's provenance on every call — an uncovered support row answers
  /// at once, else one search per component — without laying out the
  /// program's rows (solver/integer_feasibility.h). Nothing outlives the
  /// call.
  Result<bool> Global() const;

  /// Theorem 6 witness construction for acyclic schemas, folding minimal
  /// two-bag witnesses (northwest-corner vertices) along a RIP listing.
  Result<std::optional<Bag>> SolveGlobalAcyclic() const;

  /// Exact decision for arbitrary schemas via integer feasibility of
  /// P(R1..Rm), with the pairwise verdict as a prefilter; the witness is
  /// the components' first solutions, gathered through J's provenance.
  Result<std::optional<Bag>> SolveGlobalExact() const;

  /// Cached marginal of bag i onto z, or nullptr when (i, z) is not a
  /// sealed projection.
  const Bag* CachedMarginal(size_t i, const Schema& z) const;

 private:
  // One sealed projection of one bag: Z and Ri[Z]. The marginal is null
  // only while Seal is filling the cache. It is held by shared_ptr so an
  // incremental re-seal shares unchanged bags' slots with the previous
  // generation — whichever engine dies first, the bag survives.
  struct CachedProjection {
    Schema schema;
    std::shared_ptr<const Bag> marginal;
  };
  // One pairwise comparison, with the two cache slots pre-resolved. The
  // pointers target heap storage owned by cache_, which is stable after
  // Seal() (and across moves of the engine).
  struct PairTask {
    size_t i, j;
    CachedProjection* left;
    CachedProjection* right;
  };

  ConsistencyEngine() = default;

  // Builds cache_ and pairs_, computes the marginals and then every
  // pair's verdict (both sharded over the pool). A non-null `previous`
  // pre-fills the slots and pair verdicts of bags sharing its row stores.
  Status Seal(const ConsistencyEngine* previous);
  Status EnsureFilled(CachedProjection* slot, size_t bag_index);
  // Compares the two marginals of each listed pair (indices into pairs_)
  // and records the verdicts, sharded over the pool when there is one.
  void ComparePairs(const std::vector<size_t>& pair_indices);
  // Sets pairwise_verdict_ from pair_consistent_.
  void DecidePairwise();
  // The private step of MakeDeltaBatch: applies `batch` to this freshly
  // derived generation, adjusting the dirty slots and re-comparing the
  // dirty pairs. On error the caller discards the engine.
  Result<DeltaOutcome> ApplyDeltaBatch(const DeltaBatch& batch);
  CachedProjection* FindProjection(size_t i, const Schema& z);
  const CachedProjection* FindProjection(size_t i, const Schema& z) const;
  // Index of pair (i, j), i < j, in pairs_: the list is lexicographic, so
  // the offset is closed-form — no schema intersection or lookup.
  size_t PairIndex(size_t i, size_t j) const {
    size_t m = collection_->size();
    return i * (2 * m - i - 1) / 2 + (j - i - 1);
  }

  std::shared_ptr<const BagCollection> collection_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  std::vector<std::vector<CachedProjection>> cache_;  // per bag, schema-sorted
  std::vector<PairTask> pairs_;  // all (i, j), i < j, lexicographic
  // Per-pair verdict aligned with pairs_ (1 consistent, 0 not), decided
  // at seal. The parallel compare writes disjoint bytes.
  std::vector<uint8_t> pair_consistent_;
  PairwiseVerdict pairwise_verdict_;
  size_t reused_bags_ = 0;
  // Counts actual cache fills (see marginal_fills()). Heap storage keeps
  // the engine movable while pool tasks increment it concurrently during
  // sealing.
  std::unique_ptr<std::atomic<uint64_t>> marginal_fills_ =
      std::make_unique<std::atomic<uint64_t>>(0);
};

}  // namespace bagc
