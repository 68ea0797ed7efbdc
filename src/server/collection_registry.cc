#include "server/collection_registry.h"

#include <unistd.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "tuple/segment.h"
#include "util/sync_dir.h"

namespace bagc {

namespace {

// One committed batch as the WAL logs it: raw per-bag signed row
// deltas, exactly what the session staged (the replay feeds them back
// through BuildDeltaBatch, which nets them identically).
WalRecord RecordFromBatch(const EngineSnapshot& snapshot,
                          const DeltaBatch& batch, uint64_t generation,
                          uint64_t fingerprint) {
  WalRecord record;
  record.generation = generation;
  record.base_fingerprint = fingerprint;
  record.bags.reserve(batch.size());
  for (const BagDeltas& bd : batch) {
    if (bd.deltas.empty()) continue;  // zero-count rows netted to nothing
    WalBagBlock block;
    block.bag_index = static_cast<uint32_t>(bd.bag_index);
    block.arity = static_cast<uint32_t>(
        snapshot.engine()->collection().bag(bd.bag_index).schema().arity());
    block.ids.reserve(bd.deltas.size() * block.arity);
    block.deltas.reserve(bd.deltas.size());
    for (const BagDelta& d : bd.deltas) {
      for (size_t c = 0; c < d.row.arity(); ++c) block.ids.push_back(d.row.id(c));
      block.deltas.push_back(d.delta);
    }
    record.bags.push_back(std::move(block));
  }
  return record;
}

// The inverse: one logged record back into the batch BuildDeltaBatch
// replays. Validates the record against the live collection shape —
// the log was written against this exact base, so a mismatch means the
// wrong log, not a recoverable tear.
Result<DeltaBatch> BatchFromRecord(const EngineSnapshot& snapshot,
                                   const WalRecord& record) {
  DeltaBatch batch;
  batch.reserve(record.bags.size());
  const BagCollection& collection = snapshot.engine()->collection();
  for (const WalBagBlock& block : record.bags) {
    if (block.bag_index >= collection.size()) {
      return Status::InvalidArgument(
          "WAL generation " + std::to_string(record.generation) +
          " targets bag index " + std::to_string(block.bag_index) +
          " but the base collection has " + std::to_string(collection.size()) +
          " bags");
    }
    size_t arity = collection.bag(block.bag_index).schema().arity();
    if (block.arity != arity) {
      return Status::InvalidArgument(
          "WAL generation " + std::to_string(record.generation) +
          " carries arity " + std::to_string(block.arity) + " rows for bag " +
          std::to_string(block.bag_index) + " (schema arity " +
          std::to_string(arity) + ")");
    }
    // Every id must be one the base's dictionary for its slot issued: a
    // row no dictionary decodes would otherwise be served as committed.
    const Schema& schema = collection.bag(block.bag_index).schema();
    const DictionarySet* dicts = snapshot.dictionaries();
    for (size_t slot = 0; slot < arity; ++slot) {
      const ValueDictionary* dict =
          dicts == nullptr ? nullptr : dicts->find_dict(schema.at(slot));
      const size_t issued = dict == nullptr ? 0 : dict->size();
      for (size_t r = 0; r < block.rows(); ++r) {
        const ValueId id = block.ids[r * arity + slot];
        if (id >= issued) {
          return Status::InvalidArgument(
              "WAL generation " + std::to_string(record.generation) +
              " carries value id " + std::to_string(id) + " for attribute '" +
              snapshot.catalog().Name(schema.at(slot)) + "' of bag " +
              std::to_string(block.bag_index) + ", which has only " +
              std::to_string(issued) + " values");
        }
      }
    }
    BagDeltas bd;
    bd.bag_index = block.bag_index;
    bd.deltas.reserve(block.rows());
    for (size_t r = 0; r < block.rows(); ++r) {
      std::vector<ValueId> ids(block.ids.begin() + r * arity,
                               block.ids.begin() + (r + 1) * arity);
      bd.deltas.push_back(BagDelta{Tuple::OfIds(std::move(ids)),
                                   block.deltas[r]});
    }
    batch.push_back(std::move(bd));
  }
  return batch;
}

// Seals a BAGCSEG segment with a fresh catalog: attributes intern in
// segment table order and the bags keep the segment's own dictionaries
// (moved in, not cloned), so the snapshot decodes and orders results
// bit-identically to a LOADSEG + SEAL of the segment in a fresh session.
// `canonical` replays the original seal's CANONICAL flag for the same
// reason. `*fingerprint` receives the fingerprint of the mapping.
Result<std::shared_ptr<const EngineSnapshot>> BuildSnapshotFromSegment(
    const std::string& path, bool canonical, uint64_t seq, uint64_t* fingerprint) {
  EngineSnapshot::BuildInputs inputs;
  BAGC_ASSIGN_OR_RETURN(SegmentBags loaded, LoadSegmentBags(path, &inputs.catalog));
  *fingerprint = loaded.fingerprint;
  inputs.names = std::move(loaded.names);
  inputs.bags = std::move(loaded.bags);
  inputs.dicts = std::make_shared<DictionarySet>(std::move(loaded.dicts));
  inputs.canonicalize = canonical;
  return EngineSnapshot::Build(std::move(inputs), seq);
}

}  // namespace

CollectionRegistry::CollectionRegistry(Options options)
    : options_(options),
      default_(std::shared_ptr<Collection>(
          new Collection(kDefaultCollectionName))) {
  collections_.emplace(default_->name(), default_);
}

Result<std::shared_ptr<CollectionRegistry::Collection>>
CollectionRegistry::Attach(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = collections_.find(name);
  if (it != collections_.end()) return it->second;
  if (options_.max_collections > 0 &&
      collections_.size() >= options_.max_collections) {
    return Status::FailedPrecondition(
        "collection limit reached (" +
        std::to_string(options_.max_collections) +
        "); DETACH is per-session, DROP or restart to free a name");
  }
  auto c = std::shared_ptr<Collection>(new Collection(name));
  collections_.emplace(name, c);
  return c;
}

std::shared_ptr<CollectionRegistry::Collection> CollectionRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second;
}

Result<std::shared_ptr<const EngineSnapshot>> CollectionRegistry::Acquire(
    Collection* c) {
  // Engaged only when this call leads a reload: a resident hit must not
  // pay for the promise's shared state.
  std::optional<std::promise<Result<std::shared_ptr<const EngineSnapshot>>>> flight;
  std::shared_future<Result<std::shared_ptr<const EngineSnapshot>>> running;
  SegmentSource source;
  bool canonical = false;
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (c->current_ != nullptr) {
      c->last_access_ = ++lru_clock_;
      ++c->hits_;
      return c->current_;
    }
    if (c->generation_ == 0) {
      // Nothing ever published (or a RESET emptied the chain): not an
      // eviction, just "no engine yet".
      return std::shared_ptr<const EngineSnapshot>();
    }
    if (c->reload_.valid()) {
      running = c->reload_;
    } else if (c->segment_.path.empty()) {
      return Status::FailedPrecondition(
          "collection '" + c->name_ +
          "' was evicted under the memory budget and has no segment to "
          "reload from; SEAL it again");
    } else {
      source = c->segment_;
      canonical = c->reload_canonical_;
      // The reload is a publication in the chain: it takes a seq under the
      // same high-water rule, so a RESET racing the rebuild wins.
      seq = c->NextSeq();
      c->reload_ = flight.emplace().get_future().share();
    }
  }
  // Another Acquire leads this collection's reload: serve what it
  // produces. current_ is not re-read — it may be evicted again already.
  if (running.valid()) return running.get();
  uint64_t replayed = 0;  // STATS counts it; only Restore reports it
  Result<std::shared_ptr<const EngineSnapshot>> reloaded =
      Reload(c, source, canonical, seq, &replayed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    c->reload_ = {};
    if (reloaded.ok() && *reloaded != nullptr) ++c->reloads_;
  }
  flight->set_value(reloaded);
  return reloaded;
}

Result<std::shared_ptr<const EngineSnapshot>> CollectionRegistry::Reload(
    Collection* c, const SegmentSource& source, bool canonical, uint64_t seq,
    uint64_t* replayed) {
  // Build outside the lock — reloads are as slow as seals.
  SegmentSource mapped{source.path, 0};
  Result<std::shared_ptr<const EngineSnapshot>> rebuilt =
      BuildSnapshotFromSegment(source.path, canonical, seq, &mapped.fingerprint);
  if (!rebuilt.ok()) {
    return Status::FailedPrecondition("collection '" + c->name_ +
                                      "' reload from segment failed: " +
                                      rebuilt.status().message());
  }
  if (source.fingerprint != 0 && mapped.fingerprint != source.fingerprint) {
    // The file at the path was replaced since the seal: its rows are not
    // the base the served generations (and the WAL) were built on.
    return Status::FailedPrecondition(
        "collection '" + c->name_ + "' reload refused: segment " + source.path +
        " was replaced since it was sealed (fingerprint " +
        std::to_string(source.fingerprint) + ", now " +
        std::to_string(mapped.fingerprint) + "); SEAL it again");
  }
  BAGC_RETURN_NOT_OK(CheckCeiling((*rebuilt)->approx_bytes()));
  if (!options_.wal_dir.empty()) {
    // The segment is only the BASE of the chain; the committed delta
    // generations live in the WAL. Fold them onto the rebuilt snapshot
    // BEFORE install — folding onto current_ after a racing delta landed
    // would apply that delta twice. If a concurrent publish wins the
    // install below, this folded snapshot is simply discarded.
    std::lock_guard<std::mutex> wal_lock(c->wal_mu_);
    Result<std::shared_ptr<const EngineSnapshot>> folded =
        FoldWalLocked(c, *std::move(rebuilt), mapped, replayed);
    if (!folded.ok()) {
      return Status::FailedPrecondition(
          "collection '" + c->name_ +
          "' reload succeeded but WAL replay failed: " +
          folded.status().message());
    }
    rebuilt = *std::move(folded);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (c->current_ != nullptr) {
    // A fresh SEAL landed first; serve that one.
    c->last_access_ = ++lru_clock_;
    ++c->hits_;
    return c->current_;
  }
  if (seq <= c->published_high_water_) {
    // RESET (or DROP) raced the rebuild: stay empty, per the chain rule.
    return std::shared_ptr<const EngineSnapshot>();
  }
  // A WAL fold advances the snapshot past `seq`; the mark must cover the
  // generation actually installed.
  std::shared_ptr<const EngineSnapshot> installed = *std::move(rebuilt);
  c->published_high_water_ = std::max(seq, installed->seq());
  // A lazy reload re-registers the source it read; Restore registers the
  // mapping it built from.
  c->segment_ = std::move(mapped);
  c->reload_canonical_ = canonical;
  InstallLocked(c, installed, installed->approx_bytes());
  EvictToBudgetLocked(c);
  if (evict_after_reload_for_test_.load(std::memory_order_relaxed)) EvictLocked(c);
  return installed;
}

std::shared_ptr<const EngineSnapshot> CollectionRegistry::Peek(
    const Collection* c) const {
  std::lock_guard<std::mutex> lock(mu_);
  return c->current_;
}

Status CollectionRegistry::PublishChain(
    Collection* c, std::shared_ptr<const EngineSnapshot> snapshot,
    const SegmentSource* segment, bool canonical) {
  const uint64_t bytes = snapshot->approx_bytes();
  BAGC_RETURN_NOT_OK(CheckCeiling(bytes));
  std::lock_guard<std::mutex> lock(mu_);
  // <= : seqs are unique per snapshot, and Clear() raises the mark TO the
  // highest issued seq precisely so a seal that began before a RESET is
  // refused too. The seq was taken before the (possibly slow) build, so
  // the slower build of an OLDER seq must not overwrite the newer engine.
  if (snapshot->seq() <= c->published_high_water_) {
    return Status::FailedPrecondition(
        "seal superseded by a newer generation; retry SEAL");
  }
  // A delta means "its base plus these rows" (Eq. (2)); over any other
  // head it would drop what that head added since.
  if (snapshot->base_seq() != 0 &&
      (c->current_ == nullptr || c->current_->seq() != snapshot->base_seq())) {
    return Status::FailedPrecondition("delta superseded: generation " +
                                      std::to_string(snapshot->base_seq()) +
                                      " it was built on is no longer current; retry");
  }
  c->published_high_water_ = snapshot->seq();
  if (segment != nullptr) {
    c->segment_ = *segment;
    c->reload_canonical_ = canonical;
  }
  InstallLocked(c, std::move(snapshot), bytes);
  EvictToBudgetLocked(c);
  return Status::OK();
}

Status CollectionRegistry::CheckCeiling(uint64_t bytes) const {
  if (options_.max_collection_bytes > 0 &&
      bytes > options_.max_collection_bytes) {
    return Status::OutOfRange(
        "sealed snapshot (~" + std::to_string(bytes) +
        " bytes) exceeds the per-collection ceiling (" +
        std::to_string(options_.max_collection_bytes) + " bytes)");
  }
  return Status::OK();
}

Status CollectionRegistry::Publish(
    Collection* c, std::shared_ptr<const EngineSnapshot> snapshot,
    SegmentSource segment, bool canonical) {
  if (options_.wal_dir.empty()) {
    return PublishChain(c, std::move(snapshot), &segment, canonical);
  }
  // A full seal starts a new base epoch: any logged deltas speak the OLD
  // base and must not replay over the new one, so the WAL resets with
  // the publish (both under wal_mu_, so no delta commit interleaves).
  std::lock_guard<std::mutex> wal_lock(c->wal_mu_);
  BAGC_RETURN_NOT_OK(PublishChain(c, std::move(snapshot), &segment, canonical));
  return ResetWalLocked(c, segment);
}

Status CollectionRegistry::PublishDelta(
    Collection* c, std::shared_ptr<const EngineSnapshot> snapshot,
    const DeltaBatch& batch) {
  std::lock_guard<std::mutex> wal_lock(c->wal_mu_);
  if (c->wal_ == nullptr) {
    // No WAL (no wal_dir, or no segment base to replay over): the
    // published rows silently diverge from any staged segment, so the
    // reload source is DROPPED (a later eviction answers E_STATE instead
    // of quietly reloading pre-delta state). With a WAL attached, the
    // base segment stays the replay anchor of the whole chain.
    const SegmentSource no_reload_source;
    return PublishChain(c, std::move(snapshot), &no_reload_source, false);
  }
  if (c->wal_poisoned_) {
    // A previous append failed AFTER its generation was published: the
    // log is missing an in-memory generation, so any further append
    // would replay to a state that silently skips it. Only a full SEAL
    // (new base epoch, fresh log) restores durability.
    return Status::FailedPrecondition(
        "collection '" + c->name_ +
        "' lost WAL durability after an append failure; SEAL to start a "
        "new epoch before committing deltas");
  }
  std::shared_ptr<const EngineSnapshot> kept = snapshot;
  WalRecord record =
      RecordFromBatch(*kept, batch, kept->seq(), c->wal_fingerprint_);
  // Encode — and size-check against kWalMaxRecordPayload — BEFORE
  // publishing: a batch that cannot be journaled must refuse the commit
  // with memory state untouched, not publish a generation the log can
  // never carry. (The session's cumulative transaction caps make this
  // unreachable from the wire; this is the last line of defense.)
  std::string encoded;
  if (!record.bags.empty()) {
    BAGC_ASSIGN_OR_RETURN(encoded, EncodeWalRecord(record));
  }
  BAGC_RETURN_NOT_OK(PublishChain(c, std::move(snapshot), nullptr, false));
  if (record.bags.empty()) {
    // A no-op commit (every row netted to zero) published a generation
    // but changed nothing; replay reconstructs equivalent state without
    // it, and the record grammar refuses empty blocks anyway.
    return Status::OK();
  }
  Status appended = c->wal_->AppendEncoded(record, encoded);
  if (!appended.ok()) {
    // The generation IS published — memory state moved on — but the
    // commit is not durable. Poison the log so no later commit can ack
    // durability over the gap, and surface the failure loudly.
    c->wal_poisoned_ = true;
    return Status::Internal(
        "delta published but WAL append failed (collection '" + c->name_ +
        "' is no longer durable; SEAL to start a new epoch): " +
        appended.message());
  }
  c->wal_records_.store(c->wal_->records(), std::memory_order_relaxed);
  c->wal_bytes_.store(c->wal_->bytes(), std::memory_order_relaxed);
  return Status::OK();
}

void CollectionRegistry::Clear(Collection* c) {
  // wal_mu_ before mu_ (the registry's lock order): a RESET also ends
  // the collection's durability epoch.
  std::unique_lock<std::mutex> wal_lock;
  if (!options_.wal_dir.empty()) {
    wal_lock = std::unique_lock<std::mutex>(c->wal_mu_);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t issued = c->next_seq_.load(std::memory_order_relaxed) - 1;
    if (issued > c->published_high_water_) c->published_high_water_ = issued;
    if (c->current_ != nullptr) {
      resident_bytes_ -= c->bytes_;
      c->current_ = nullptr;
      c->bytes_ = 0;
    }
    // RESET means "no engine until the next SEAL" — the reload source must
    // not resurrect the cleared generation, and generation_ = 0 marks the
    // chain empty (as opposed to evicted).
    c->segment_ = {};
    c->reload_canonical_ = false;
    c->generation_ = 0;
  }
  if (wal_lock.owns_lock()) {
    // The logged deltas chain onto the cleared state; drop them with it.
    ResetWalLocked(c, SegmentSource());
  }
}

std::string CollectionRegistry::WalPathFor(const std::string& name) const {
  // Filesystem-safe, injective encoding of the tenant name: anything
  // outside [A-Za-z0-9_.-] becomes %XX, including '%' itself and path
  // separators, so no name escapes wal_dir or collides with another.
  static const char* kHex = "0123456789ABCDEF";
  std::string encoded;
  encoded.reserve(name.size());
  for (char ch : name) {
    unsigned char u = static_cast<unsigned char>(ch);
    bool safe = (u >= 'A' && u <= 'Z') || (u >= 'a' && u <= 'z') ||
                (u >= '0' && u <= '9') || u == '_' || u == '.' || u == '-';
    if (safe) {
      encoded.push_back(ch);
    } else {
      encoded.push_back('%');
      encoded.push_back(kHex[u >> 4]);
      encoded.push_back(kHex[u & 0xf]);
    }
  }
  return options_.wal_dir + "/" + encoded + ".wal";
}

Status CollectionRegistry::ResetWalLocked(Collection* c,
                                          const SegmentSource& segment) {
  c->wal_.reset();
  c->wal_poisoned_ = false;  // a new epoch starts durable
  c->wal_fingerprint_ = 0;
  c->wal_records_.store(0, std::memory_order_relaxed);
  c->wal_bytes_.store(0, std::memory_order_relaxed);
  std::string wal_path = WalPathFor(c->name_);
  if (::unlink(wal_path.c_str()) == 0) {
    // Make the deletion durable before any new-epoch commit is acked:
    // a resurrected old-epoch log after power loss would replay stale
    // generations over the new base.
    BAGC_RETURN_NOT_OK(SyncParentDir(wal_path));
  }  // ENOENT is fine: no log yet
  if (segment.path.empty()) {
    // No segment base → no replay anchor → no WAL for this epoch.
    return Status::OK();
  }
  // Keyed to the mapping the sealed bags came from, not to whatever the
  // path names now.
  BAGC_ASSIGN_OR_RETURN(WalWriter writer, WalWriter::Open(wal_path));
  c->wal_fingerprint_ = segment.fingerprint;
  c->wal_records_.store(writer.records(), std::memory_order_relaxed);
  c->wal_bytes_.store(writer.bytes(), std::memory_order_relaxed);
  c->wal_ = std::make_unique<WalWriter>(std::move(writer));
  return Status::OK();
}

Result<std::shared_ptr<const EngineSnapshot>> CollectionRegistry::FoldWalLocked(
    Collection* c, std::shared_ptr<const EngineSnapshot> base,
    const SegmentSource& segment, uint64_t* replayed) {
  if (c->wal_poisoned_) {
    // The published chain holds a generation the log is missing (an
    // append failed mid-epoch); folding the log would serve a state
    // that silently rewinds past it. Only a fresh SEAL recovers.
    return Status::FailedPrecondition(
        "collection '" + c->name_ +
        "' lost WAL durability after an append failure; SEAL to start a "
        "new epoch before reloading");
  }
  std::string wal_path = WalPathFor(c->name_);
  std::vector<WalRecord> records;
  auto read = ReadWalFile(wal_path);
  if (read.ok()) {
    records = std::move(read->records);
  } else if (read.status().code() != StatusCode::kNotFound) {
    // Mid-file corruption or a foreign file: refuse to serve a state
    // that silently skips committed generations.
    return read.status();
  }
  if (!records.empty()) {
    if (base == nullptr) {
      return Status::FailedPrecondition(
          "collection '" + c->name_ +
          "' has logged generations but no resident base to replay over");
    }
    if (records.front().base_fingerprint != segment.fingerprint) {
      return Status::FailedPrecondition(
          "WAL " + wal_path + " was written against a different base segment "
          "(log fingerprint " +
          std::to_string(records.front().base_fingerprint) + ", segment " +
          segment.path + " has " + std::to_string(segment.fingerprint) +
          "); refusing to replay");
    }
    // Future appends must land past every logged generation; the logged
    // ids are a previous process's seqs, so push this chain past them.
    uint64_t want = records.back().generation + 1;
    uint64_t have = c->next_seq_.load(std::memory_order_relaxed);
    while (have < want &&
           !c->next_seq_.compare_exchange_weak(have, want,
                                               std::memory_order_relaxed)) {
    }
    for (const WalRecord& record : records) {
      BAGC_ASSIGN_OR_RETURN(DeltaBatch batch, BatchFromRecord(*base, record));
      BAGC_ASSIGN_OR_RETURN(
          base, EngineSnapshot::BuildDeltaBatch(base, batch, c->NextSeq()));
    }
    *replayed += records.size();
    c->replayed_.fetch_add(records.size(), std::memory_order_relaxed);
    replayed_total_.fetch_add(records.size(), std::memory_order_relaxed);
  }
  // Attach (and create, for an empty log) the writer; Open amputates a
  // torn tail so the file ends exactly at the last replayed record.
  BAGC_ASSIGN_OR_RETURN(WalWriter writer, WalWriter::Open(wal_path));
  c->wal_fingerprint_ = segment.fingerprint;
  c->wal_records_.store(writer.records(), std::memory_order_relaxed);
  c->wal_bytes_.store(writer.bytes(), std::memory_order_relaxed);
  c->wal_ = std::make_unique<WalWriter>(std::move(writer));
  return base;
}

Result<uint64_t> CollectionRegistry::Restore(Collection* c,
                                             const std::string& segment_path) {
  uint64_t replayed = 0;
  Result<std::shared_ptr<const EngineSnapshot>> restored =
      Reload(c, SegmentSource{segment_path, 0}, false, c->NextSeq(), &replayed);
  if (!restored.ok()) return restored.status();
  RecordSeal();
  return replayed;
}

uint64_t CollectionRegistry::wal_records_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [name, c] : collections_) {
    total += c->wal_records_.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t CollectionRegistry::wal_bytes_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [name, c] : collections_) {
    total += c->wal_bytes_.load(std::memory_order_relaxed);
  }
  return total;
}

CollectionRegistry::CollectionStats CollectionRegistry::Stats(
    const Collection* c) const {
  std::lock_guard<std::mutex> lock(mu_);
  CollectionStats s;
  s.resident = c->current_ != nullptr;
  s.reloadable = !c->segment_.path.empty();
  s.bytes = c->bytes_;
  s.generation = c->generation_;
  s.last_access = c->last_access_;
  s.hits = c->hits_;
  s.evictions = c->evictions_;
  s.reloads = c->reloads_;
  return s;
}

void CollectionRegistry::PoisonWalForTest(Collection* c) {
  std::lock_guard<std::mutex> wal_lock(c->wal_mu_);
  c->wal_poisoned_ = true;
}

void CollectionRegistry::MarkNextSealSupersededForTest(Collection* c) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t next = c->next_seq_.load(std::memory_order_relaxed);
  if (next > c->published_high_water_) c->published_high_water_ = next;
}

size_t CollectionRegistry::num_collections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return collections_.size();
}

size_t CollectionRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

void CollectionRegistry::InstallLocked(
    Collection* c, std::shared_ptr<const EngineSnapshot> snapshot,
    uint64_t bytes) {
  resident_bytes_ -= c->bytes_;
  c->current_ = std::move(snapshot);
  c->bytes_ = bytes;
  resident_bytes_ += bytes;
  c->generation_ = c->current_->seq();
  c->last_access_ = ++lru_clock_;
}

void CollectionRegistry::EvictToBudgetLocked(const Collection* exempt) {
  if (options_.mem_budget_bytes == 0) return;
  while (resident_bytes_ > options_.mem_budget_bytes) {
    Collection* coldest = nullptr;
    for (auto& [name, c] : collections_) {
      if (c.get() == exempt || c->current_ == nullptr) continue;
      if (coldest == nullptr || c->last_access_ < coldest->last_access_) {
        coldest = c.get();
      }
    }
    if (coldest == nullptr) break;  // only the exempt tenant is resident
    EvictLocked(coldest);
  }
}

void CollectionRegistry::EvictLocked(Collection* c) {
  resident_bytes_ -= c->bytes_;
  // Dropping the pointer is the whole eviction: in-flight queries keep
  // their shared_ptr and finish on the old engine. generation_ stays —
  // it distinguishes "evicted" from "never sealed" in Acquire.
  c->current_ = nullptr;
  c->bytes_ = 0;
  ++c->evictions_;
  evictions_total_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace bagc
