// Shared immutable engine snapshots for the bagcd server. A SEAL builds
// one EngineSnapshot — an eagerly sealed ConsistencyEngine plus the
// catalog/dictionary state needed to decode results back to external
// values — and publishes it in the server's CollectionRegistry (see
// collection_registry.h). Sessions answering queries take shared
// ownership of the current snapshot for the duration of one query, so a
// concurrent RESET or re-SEAL swaps the registry pointer atomically
// while every in-flight query finishes on the snapshot it started with;
// the old engine is destroyed when the last such query releases it.
//
// Thread-safety: every query method on EngineSnapshot is const and safe
// for any number of concurrent callers. TwoBag/Pairwise/KWise/Witness
// ride the engine's const sealed surface (see consistency_engine.h);
// Global() runs the possibly-exponential cyclic decision at most once,
// under a private mutex, and KnownGlobal() reads its verdict lock-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/consistency_engine.h"
#include "tuple/attribute.h"
#include "tuple/value_dictionary.h"
#include "util/result.h"

namespace bagc {

/// \brief One sealed, immutable serving generation of the bagcd server.
class EngineSnapshot {
 public:
  /// Everything a SEAL carries out of a session. Bags/names are aligned
  /// (names[i] names bags[i]); `dicts` must be a clone private to this
  /// snapshot (the session keeps interning into its own live set).
  struct BuildInputs {
    std::vector<std::string> names;
    std::vector<Bag> bags;
    AttributeCatalog catalog;
    std::shared_ptr<DictionarySet> dicts;
    /// Seal-time worker threads (marginal fills + pair comparisons).
    size_t num_threads = 1;
    /// Canonicalize the snapshot's dictionary clone at seal
    /// (EngineOptions::canonicalize_dictionaries). The session's live
    /// dictionaries — and hence the ids a client streams — are untouched.
    bool canonicalize = false;
    /// Incremental re-seal: the previous generation whose sealed state
    /// this build may reuse. Every bag still holding one of its row stores
    /// adopts that bag's marginals and pair verdicts (ConsistencyEngine::
    /// Make); the rest are sealed afresh. The previous generation only
    /// needs to live through Build: adopted marginals are shared_ptr
    /// slots the new engine then co-owns.
    std::shared_ptr<const EngineSnapshot> previous;
  };

  /// Seals the engine (every pair decided) and returns the snapshot ready
  /// for lock-free concurrent queries. `seq` is the
  /// registry-assigned generation number surfaced in STATS.
  static Result<std::shared_ptr<const EngineSnapshot>> Build(BuildInputs inputs,
                                                             uint64_t seq);

  /// Derives the next generation from `previous` by an atomic batch of
  /// per-bag delta streams (ConsistencyEngine::MakeDeltaBatch): every
  /// untouched bag's sealed state — its bag, marginal slots, cached
  /// pair verdicts — is adopted by refcount bump, each mutated bag's
  /// dirty marginal slots are adjusted in place, and only the dirty pairs
  /// are re-compared. Catalog, names, and the
  /// dictionary clone are shared with `previous` (the caller must
  /// guarantee no value was interned in between). `outcome`, when
  /// non-null, receives the dirty pair set and changed-slot count.
  /// `previous` is untouched: readers mid-query on it finish
  /// bit-identically. A failure in any bag builds nothing (a DELETE below
  /// zero multiplicity is OutOfRange). This is the INSERT/DELETE/COMMIT
  /// builder and the WAL replay unit — one WAL record becomes one call.
  static Result<std::shared_ptr<const EngineSnapshot>> BuildDeltaBatch(
      const std::shared_ptr<const EngineSnapshot>& previous,
      const DeltaBatch& batch, uint64_t seq, DeltaOutcome* outcome = nullptr);

  /// Resolves a wire bag reference: a digits-only token is an index,
  /// anything else a LOAD-time bag name.
  Result<size_t> ResolveBag(const std::string& token) const;

  /// Lemma 2(2) for bags i and j: the verdict decided at seal.
  Result<bool> TwoBag(size_t i, size_t j) const;

  /// The pairwise verdict (decided once at Build).
  PairwiseVerdict Pairwise() const { return *engine_->PairwiseAll(); }

  /// Global consistency; the cyclic-schema decision runs at most once
  /// (under a mutex — concurrent callers block, later ones read). A
  /// ResourceExhausted failure (join cap or node limit) is memoized the
  /// same way: later callers on this generation get the same error
  /// without re-running the decision.
  Result<bool> Global() const;

  /// Test-only: how many times Global() has run the cyclic decision on
  /// this generation (0 or 1 unless a non-budget error was returned), so
  /// a test can see the failure memo hold. No server path reads it.
  uint64_t global_solves() const;

  /// The global verdict when it needs no solve: always on an acyclic
  /// schema (Theorem 2, the pairwise verdict decided at build), and on a
  /// cyclic one once Global() has solved this generation or a no-op
  /// delta carried the previous verdict. Lock-free: never waits on an
  /// in-flight Global().
  std::optional<bool> KnownGlobal() const;

  /// K-wise consistency with the first failing subset, from the sealed
  /// cache (paper §4).
  Result<bool> KWise(size_t k,
                     std::optional<std::vector<size_t>>* failing_subset) const;

  /// Two-bag witness: the northwest-corner vertex of P(R, S), which is
  /// already minimal (Corollary 4), so `minimal` (the wire's MINIMAL)
  /// changes neither the answer nor its cost. nullopt when inconsistent.
  /// Each call keeps only per-call state, so concurrent witness queries
  /// never contend.
  Result<std::optional<Bag>> Witness(size_t i, size_t j, bool minimal) const;

  /// Serializes a result bag in the bag IO format, decoding ids through
  /// the snapshot's dictionaries.
  std::string WriteBagText(const Bag& bag) const;

  uint64_t seq() const { return seq_; }
  /// The seq of the generation BuildDeltaBatch derived this one from (0
  /// for a seal): the registry publishes a delta only onto its base.
  uint64_t base_seq() const { return base_seq_; }
  /// The catalog/dictionaries the snapshot decodes results through —
  /// for the session's witness responses, which mirror WriteBagText.
  const AttributeCatalog& catalog() const { return catalog_; }
  const DictionarySet* dictionaries() const { return engine_->dictionaries(); }
  size_t num_bags() const { return names_.size(); }
  const std::string& bag_name(size_t i) const { return names_[i]; }
  /// Total support rows across the sealed collection.
  size_t support_rows() const { return support_rows_; }
  /// Distinct dictionary values the snapshot can decode.
  size_t dict_values() const {
    return dictionaries() == nullptr ? 0 : dictionaries()->total_size();
  }
  uint64_t marginal_fills() const { return engine_->marginal_fills(); }
  /// Approximate resident bytes the snapshot owns: the sealed engine
  /// plus its dictionaries' owned bytes (registry budget / eviction
  /// accounting; stable across identical rebuilds). Borrowed columns
  /// and value tables live in the page cache and are not charged.
  size_t approx_bytes() const { return approx_bytes_; }
  /// The engine's own sealed-state bytes (bags, marginal caches, column
  /// stores) without the dictionaries — the STATS `sealed_bytes` key.
  size_t sealed_bytes() const { return engine_->ApproxSealedBytes(); }
  /// The sealed engine — the reuse source for an incremental re-seal.
  const ConsistencyEngine* engine() const { return &*engine_; }

 private:
  EngineSnapshot() = default;

  uint64_t seq_ = 0;
  uint64_t base_seq_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<std::string, size_t> name_index_;
  AttributeCatalog catalog_;
  size_t support_rows_ = 0;
  size_t approx_bytes_ = 0;
  std::optional<ConsistencyEngine> engine_;
  // Theorem 2 applies: GLOBAL is the pairwise verdict. Deltas never
  // change a schema, so a delta generation inherits it.
  bool acyclic_ = false;
  // KnownGlobal(): -1 unknown, else the verdict. Set at build, or by
  // Global() under global_mu_, which single-flights the cyclic solve.
  mutable std::atomic<int8_t> known_global_{-1};
  mutable std::mutex global_mu_;
  // Under global_mu_: the memoized budget failure, and the solve count.
  mutable Status global_failure_;
  mutable uint64_t global_solves_ = 0;
};

/// A BAGCSEG segment ingested for serving: its bags in segment order, the
/// value dictionaries they were validated against, and the fingerprint
/// of the mapping they came from (SegmentReader::fingerprint).
struct SegmentBags {
  uint64_t fingerprint = 0;
  /// attrs[a] is the catalog id segment attribute a interned to; `dicts`
  /// holds exactly those attributes' dictionaries.
  std::vector<AttrId> attrs;
  DictionarySet dicts;
  std::vector<std::string> names;
  std::vector<Bag> bags;
};

/// The one segment loader, behind LOADSEG and the registry's reload:
/// maps `path` (docs/SEGMENT.md), interns its attribute names into
/// `catalog` in table order, borrows each attribute's value table from
/// the mapping (ValueDictionary::Borrow; only the index is built), and
/// builds every bag over the mapped columns in place, falling back to
/// the copying ingest for layouts the strict borrow rejects. The
/// dictionaries and bags pin the mapping. Refuses attribute names and
/// values the wire cannot carry (WireValidateValue), duplicate values,
/// and index-like bag names (InvalidArgument), and a bag name the
/// segment repeats (FailedPrecondition). On error `catalog` may have
/// grown: a caller that must stay unchanged passes a copy.
Result<SegmentBags> LoadSegmentBags(const std::string& path,
                                    AttributeCatalog* catalog);

}  // namespace bagc
