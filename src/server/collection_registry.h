// Multi-tenant snapshot registry for the bagcd server. A *collection* is
// one named tenant: its own generation chain of sealed EngineSnapshots
// (seq numbers, publish high-water mark), its own STATS counters, and an
// optional BAGCSEG segment it can be rebuilt from. Sessions bind to a
// collection with ATTACH (every session starts on "default"), SEAL
// publishes into the bound collection's chain, and queries read its
// current snapshot. The registry is the only owner of a generation:
// sessions keep just the seq of the one they last produced, so dropping
// the head (RESET, eviction) is what frees it.
//
// The registry enforces a global memory budget: when the resident bytes
// of all published snapshots exceed it, the coldest collections (LRU by
// last query/publish) are evicted — their snapshot pointer is dropped,
// in-flight queries finish on the shared_ptr they already hold. An
// evicted collection that registered a segment reloads lazily on the
// next query (Acquire); one with no segment answers E_STATE until it is
// sealed again. Admission caps (max collections, per-collection byte
// ceiling) bound what any one tenant can take before eviction triggers.
//
// Concurrency: one registry-wide mutex guards the collection map, every
// collection's published state, the LRU clock, and the byte accounting.
// Snapshot *builds* (SEAL, lazy reload) run outside the lock; only the
// publish/install step takes it. A lazy reload is single-flight: while
// one runs for a collection, every other Acquire of it waits (outside the
// lock) for that reload's result instead of rebuilding. Per-chain seq issuance is atomic and
// lock-free, preserving the single-generation registry's race rule: a
// SEAL that loses to a newer generation (or to a RESET that happened
// after it took its seq), and a delta whose base is no longer the head,
// are refused at publish with a retryable error.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/engine_snapshot.h"
#include "tuple/wal.h"
#include "util/result.h"

namespace bagc {

/// Name every session is bound to before its first ATTACH.
inline constexpr const char* kDefaultCollectionName = "default";

/// A collection's lazy reload source: the BAGCSEG file at `path` and the
/// fingerprint (SegmentReader::fingerprint) of the mapping the served
/// bags came from. The WAL is keyed to that fingerprint, and a reload
/// that maps other bytes at `path` is refused. An empty path is none.
struct SegmentSource {
  std::string path;
  uint64_t fingerprint = 0;
};

/// \brief Named multi-tenant registry of sealed engine generations, with
/// LRU eviction under a global memory budget.
class CollectionRegistry {
 public:
  struct Options {
    /// Global ceiling on resident snapshot bytes; 0 = unlimited. The
    /// most-recently published/queried collection is exempt from its own
    /// eviction pass, so one oversized tenant degrades to single-tenant
    /// caching instead of thrashing to zero.
    size_t mem_budget_bytes = 0;
    /// Maximum number of named collections (ATTACH refuses beyond it,
    /// counting "default"); 0 = unlimited.
    size_t max_collections = 0;
    /// Per-collection ceiling on one snapshot's bytes (publish refuses
    /// larger seals outright); 0 = unlimited.
    size_t max_collection_bytes = 0;
    /// Directory for per-collection delta WALs (bagcd --wal-dir); empty
    /// disables durability. A collection whose base was sealed from a
    /// segment gets a WAL keyed to that segment's fingerprint: every
    /// PublishDelta appends one fdatasynced record, a full-seal Publish
    /// resets the log (new base epoch), and Restore / lazy reload
    /// replays the log over the base so committed generations survive a
    /// daemon restart.
    std::string wal_dir;
  };

  /// Point-in-time per-collection counters (STATS <name>).
  struct CollectionStats {
    bool resident = false;       ///< a snapshot is currently published
    bool reloadable = false;     ///< a segment reload source is registered
    uint64_t bytes = 0;          ///< resident snapshot's approximate bytes
    uint64_t generation = 0;     ///< seq of the current publication (0 = none)
    uint64_t last_access = 0;    ///< LRU clock tick of the last touch
    uint64_t hits = 0;           ///< queries answered from the resident snapshot
    uint64_t evictions = 0;      ///< times this collection's snapshot was evicted
    uint64_t reloads = 0;        ///< lazy segment rebuilds after eviction
  };

  /// One named tenant. Handles are shared_ptr so a DETACHed/evicted
  /// collection a session still points at stays valid; all mutable state
  /// except seq issuance is guarded by the owning registry's mutex.
  class Collection {
   public:
    const std::string& name() const { return name_; }

    /// Next SEAL generation number in this collection's chain (1-based,
    /// monotone, lock-free).
    uint64_t NextSeq() { return next_seq_.fetch_add(1, std::memory_order_relaxed); }

   private:
    friend class CollectionRegistry;
    explicit Collection(std::string name) : name_(std::move(name)) {}

    const std::string name_;
    std::atomic<uint64_t> next_seq_{1};
    // ---- WAL state (wal_ stays null without a wal_dir) ----
    // wal_mu_ serializes delta publishes (chain publish + record append,
    // so file order equals seq order), full-seal WAL resets, and replay.
    // Lock order: wal_mu_ is taken BEFORE the registry's mu_, never
    // while holding it.
    std::mutex wal_mu_;
    std::unique_ptr<WalWriter> wal_;     // guarded by wal_mu_
    uint64_t wal_fingerprint_ = 0;       // guarded by wal_mu_
    // True after a WAL append failed for a PUBLISHED generation: the
    // log is missing acked in-memory state, so delta commits and
    // reload-folds refuse until a full SEAL starts a fresh epoch.
    bool wal_poisoned_ = false;          // guarded by wal_mu_
    // Lock-free mirrors of the writer's accounting for STATS.
    std::atomic<uint64_t> wal_records_{0};
    std::atomic<uint64_t> wal_bytes_{0};
    std::atomic<uint64_t> replayed_{0};
    // ---- everything below is guarded by the registry's mu_ ----
    std::shared_ptr<const EngineSnapshot> current_;
    uint64_t published_high_water_ = 0;
    SegmentSource segment_;      // lazy reload source; empty path = none
    bool reload_canonical_ = false;
    uint64_t bytes_ = 0;
    uint64_t generation_ = 0;
    uint64_t last_access_ = 0;
    uint64_t hits_ = 0;
    uint64_t evictions_ = 0;
    uint64_t reloads_ = 0;
    // The in-flight lazy reload (invalid when none runs): the one
    // rebuild every concurrent Acquire of this collection waits on.
    std::shared_future<Result<std::shared_ptr<const EngineSnapshot>>> reload_;
  };

  CollectionRegistry() : CollectionRegistry(Options()) {}
  explicit CollectionRegistry(Options options);

  const Options& options() const { return options_; }

  /// The pre-created "default" collection.
  std::shared_ptr<Collection> Default() const { return default_; }

  /// Create-or-get a named collection. Refuses creation (not lookup)
  /// with FailedPrecondition once max_collections is reached.
  Result<std::shared_ptr<Collection>> Attach(const std::string& name);

  /// The named collection, or nullptr (STATS lookups; never creates).
  std::shared_ptr<Collection> Find(const std::string& name) const;

  /// The collection's current snapshot for a query: bumps the LRU clock
  /// and hit counter; an evicted collection with a registered segment is
  /// rebuilt here (outside the lock) and re-published with a fresh seq.
  /// One rebuild (and WAL fold) runs per collection at a time: concurrent
  /// Acquires wait for it and receive the snapshot it produced, even if
  /// that snapshot was evicted again before they woke.
  /// OK(nullptr) when nothing was ever published (or a RESET emptied the
  /// chain); FailedPrecondition when the collection was evicted and has
  /// no segment to reload from, or its segment reload failed.
  Result<std::shared_ptr<const EngineSnapshot>> Acquire(Collection* c);

  /// The current snapshot without any side effects (STATS reporting):
  /// no LRU touch, no hit count, never triggers a reload.
  std::shared_ptr<const EngineSnapshot> Peek(const Collection* c) const;

  /// Publishes a sealed snapshot into `c`'s chain. Refuses with
  /// OutOfRange when the snapshot exceeds the per-collection byte
  /// ceiling, and with FailedPrecondition (retryable: take a new seq and
  /// rebuild) when a newer generation already won the chain — the same
  /// high-water rule as the single-generation registry. On success,
  /// `segment` (empty path = none) becomes the collection's lazy reload
  /// source — and, with a wal_dir, the key of a fresh WAL — with
  /// `canonical` as its re-seal flag, and colder collections are evicted
  /// until the global budget holds (never `c` itself).
  Status Publish(Collection* c, std::shared_ptr<const EngineSnapshot> snapshot,
                 SegmentSource segment, bool canonical);

  /// Publishes a delta generation (COMMIT / INSERT / DELETE): the same
  /// chain rules as Publish, and only while `snapshot`'s base (base_seq())
  /// is still `c`'s current generation, checked under the lock — else
  /// FailedPrecondition (retryable), nothing published or logged. When a
  /// WAL is attached, the collection's
  /// existing reload source is PRESERVED (the delta chain is replayable
  /// on top of the base segment) and `batch` is appended as one durable
  /// record — fdatasynced before OK is returned, in publish order. The
  /// record is encoded (and size-checked) BEFORE the publish, so a
  /// batch the log cannot carry refuses the commit with nothing
  /// published. An append failure after the publish POISONS the
  /// collection's durability: the error is surfaced, and every further
  /// PublishDelta (and reload-fold) answers FailedPrecondition until a
  /// full-seal Publish starts a new epoch — the log must never ack
  /// commits over a gap it is missing. Without a WAL the reload source
  /// is dropped: the segment no longer matches the published rows and
  /// must not quietly serve pre-delta state after an eviction.
  Status PublishDelta(Collection* c,
                      std::shared_ptr<const EngineSnapshot> snapshot,
                      const DeltaBatch& batch);

  /// Startup restore (bagcd --preload-seg): runs the lazy-reload body on
  /// `segment_path` — build from the segment with a fresh catalog, fold
  /// the collection's WAL (when the registry has a wal_dir), install —
  /// and registers the mapping it built from as `c`'s reload source, so
  /// a restart serves exactly what a post-eviction reload would. `c` must never have been
  /// published. Records one seal (not a reload) and returns the number
  /// of WAL generations replayed. A log written against a different
  /// base, or damaged mid-file, is refused with FailedPrecondition;
  /// idempotent across restarts: the same log over the same base
  /// recovers the same state.
  Result<uint64_t> Restore(Collection* c, const std::string& segment_path);

  /// Unpublishes `c`'s current generation (RESET): in-flight queries
  /// finish on it, the high-water mark advances past every issued seq so
  /// in-flight seals AND reloads of the old state are refused, and the
  /// reload source is dropped — no engine until the next SEAL.
  void Clear(Collection* c);

  CollectionStats Stats(const Collection* c) const;

  /// Test hook for the publish-race path: raises `c`'s high-water mark to
  /// its next unissued seq, so exactly the next SEAL loses (deterministic
  /// stand-in for a concurrent seal winning mid-build); the retry wins.
  void MarkNextSealSupersededForTest(Collection* c);

  /// Test hook for the reload race: while set, every lazy reload evicts
  /// its collection right after installing the rebuilt snapshot and
  /// before Acquire returns (deterministic stand-in for another tenant's
  /// publish evicting it in that window).
  void SetEvictAfterReloadForTest(bool on) {
    evict_after_reload_for_test_.store(on, std::memory_order_relaxed);
  }

  /// Test hook for the durability-loss path: marks `c`'s WAL poisoned,
  /// exactly as a failed append for a published generation does
  /// (deterministic stand-in for an I/O error mid-epoch).
  void PoisonWalForTest(Collection* c);

  // ---- registry-wide STATS ----
  size_t num_collections() const;
  size_t resident_bytes() const;
  uint64_t evictions_total() const { return evictions_total_.load(std::memory_order_relaxed); }
  /// Records / bytes across every attached WAL (STATS wal_records /
  /// wal_bytes), and generations recovered by replay since startup.
  uint64_t wal_records_total() const;
  uint64_t wal_bytes_total() const;
  uint64_t replayed_generations_total() const {
    return replayed_total_.load(std::memory_order_relaxed);
  }

  // ---- global session counters (relaxed; reporting, not synchronization).
  void SessionOpened() { sessions_.fetch_add(1, std::memory_order_relaxed); }
  void SessionClosed() { sessions_.fetch_sub(1, std::memory_order_relaxed); }
  void RecordSeal() { seals_.fetch_add(1, std::memory_order_relaxed); }
  void RecordReset() { resets_.fetch_add(1, std::memory_order_relaxed); }
  void RecordQuery() { queries_.fetch_add(1, std::memory_order_relaxed); }
  /// One committed INSERT/DELETE delta (staged or published).
  void RecordDelta() { deltas_.fetch_add(1, std::memory_order_relaxed); }
  size_t sessions_active() const { return sessions_.load(std::memory_order_relaxed); }
  uint64_t seals_total() const { return seals_.load(std::memory_order_relaxed); }
  uint64_t resets_total() const { return resets_.load(std::memory_order_relaxed); }
  uint64_t queries_total() const { return queries_.load(std::memory_order_relaxed); }
  uint64_t deltas_total() const { return deltas_.load(std::memory_order_relaxed); }

 private:
  // Swap `snapshot` in as c's resident generation (byte accounting + LRU
  // touch). Caller holds mu_.
  void InstallLocked(Collection* c,
                     std::shared_ptr<const EngineSnapshot> snapshot,
                     uint64_t bytes);
  // Drop the coldest resident snapshots (never `exempt`) until the
  // global budget holds. Caller holds mu_.
  void EvictToBudgetLocked(const Collection* exempt);
  // Drops c's resident snapshot. Caller holds mu_.
  void EvictLocked(Collection* c);
  // The body of a lazy reload and of Restore: rebuilds c from
  // `source.path` outside mu_, folds its WAL (adding the replayed
  // generations to `*replayed`), and installs the result under the chain
  // rules, registering the mapping as c's reload source. A mapping whose
  // fingerprint is not `source.fingerprint` is refused (FailedPrecondition);
  // fingerprint 0 accepts the file as it is now (Restore). Returns the
  // snapshot it installed (or the one a concurrent SEAL installed
  // first), null when a RESET won.
  Result<std::shared_ptr<const EngineSnapshot>> Reload(Collection* c,
                                                       const SegmentSource& source,
                                                       bool canonical, uint64_t seq,
                                                       uint64_t* replayed);
  // OutOfRange when one snapshot of `bytes` exceeds the per-collection
  // ceiling (max_collection_bytes).
  Status CheckCeiling(uint64_t bytes) const;
  // The shared publish body: chain rules + install + eviction, under
  // mu_. A null `segment` keeps the existing reload source (delta
  // publishes); non-null replaces it (full seals).
  Status PublishChain(Collection* c,
                      std::shared_ptr<const EngineSnapshot> snapshot,
                      const SegmentSource* segment, bool canonical);
  // c's WAL file path under options_.wal_dir (collection name encoded
  // filesystem-safe).
  std::string WalPathFor(const std::string& name) const;
  // Drops and deletes c's WAL, then (unless `segment.path` is empty)
  // starts a fresh one keyed to `segment.fingerprint`. Caller holds
  // c->wal_mu_.
  Status ResetWalLocked(Collection* c, const SegmentSource& segment);
  // Reads c's WAL, validates it against `segment.fingerprint`,
  // folds every record over `base`, attaches the writer, and bumps
  // next_seq_ past the logged generations. Returns the folded snapshot
  // (== base when the log is empty) and adds the replay count to
  // `*replayed`. Caller holds c->wal_mu_ and must NOT hold mu_.
  Result<std::shared_ptr<const EngineSnapshot>> FoldWalLocked(
      Collection* c, std::shared_ptr<const EngineSnapshot> base,
      const SegmentSource& segment, uint64_t* replayed);

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Collection>> collections_;
  std::shared_ptr<Collection> default_;
  uint64_t lru_clock_ = 0;      // guarded by mu_
  uint64_t resident_bytes_ = 0; // guarded by mu_
  std::atomic<uint64_t> evictions_total_{0};
  std::atomic<uint64_t> replayed_total_{0};
  std::atomic<bool> evict_after_reload_for_test_{false};
  std::atomic<size_t> sessions_{0};
  std::atomic<uint64_t> seals_{0};
  std::atomic<uint64_t> resets_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> deltas_{0};
};

}  // namespace bagc
