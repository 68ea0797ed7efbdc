#include "server/engine_snapshot.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "bag/bag_io.h"
#include "core/collection.h"
#include "hypergraph/acyclicity.h"
#include "server/protocol.h"
#include "tuple/segment.h"

namespace bagc {

namespace {

// Like Bag::ApproxBytes, charge only what the snapshot owns: a
// dictionary borrowed from a mapped segment costs its index alone.
size_t ApproxBytes(const ConsistencyEngine& engine, const DictionarySet* dicts) {
  return engine.ApproxSealedBytes() + (dicts == nullptr ? 0 : dicts->OwnedBytes());
}

}  // namespace

Result<std::shared_ptr<const EngineSnapshot>> EngineSnapshot::Build(
    BuildInputs inputs, uint64_t seq) {
  auto snapshot = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snapshot->seq_ = seq;
  snapshot->names_ = std::move(inputs.names);
  for (size_t i = 0; i < snapshot->names_.size(); ++i) {
    snapshot->name_index_.emplace(snapshot->names_[i], i);
  }
  snapshot->catalog_ = std::move(inputs.catalog);
  for (const Bag& b : inputs.bags) snapshot->support_rows_ += b.SupportSize();

  BAGC_ASSIGN_OR_RETURN(BagCollection collection,
                        BagCollection::Make(std::move(inputs.bags)));
  EngineOptions options;
  options.num_threads = inputs.num_threads;
  options.dictionaries = inputs.dicts;
  options.canonicalize_dictionaries = inputs.canonicalize;
  BAGC_ASSIGN_OR_RETURN(
      ConsistencyEngine engine,
      ConsistencyEngine::Make(std::move(collection), options,
                              inputs.previous ? inputs.previous->engine() : nullptr));
  snapshot->engine_.emplace(std::move(engine));
  // Make decided every pair; keep the pairwise verdict so every session
  // answers PAIRWISE from it.
  BAGC_ASSIGN_OR_RETURN(snapshot->pairwise_, snapshot->engine_->PairwiseAll());
  // The pool has done all it ever will for this generation (the seal);
  // the snapshot serves the rest of its life through the const surface,
  // so don't park idle worker threads per generation.
  snapshot->engine_->ReleaseWorkers();
  snapshot->acyclic_ = IsAcyclic(snapshot->engine_->collection().hypergraph());
  if (snapshot->acyclic_) snapshot->known_global_ = snapshot->pairwise_.consistent;
  snapshot->dicts_ = snapshot->engine_->shared_dictionaries();
  snapshot->approx_bytes_ = ApproxBytes(*snapshot->engine_, snapshot->dicts_.get());
  return std::shared_ptr<const EngineSnapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const EngineSnapshot>> EngineSnapshot::BuildDeltaBatch(
    const std::shared_ptr<const EngineSnapshot>& previous,
    const DeltaBatch& batch, uint64_t seq, DeltaOutcome* outcome) {
  auto snapshot = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snapshot->seq_ = seq;
  snapshot->names_ = previous->names_;
  snapshot->name_index_ = previous->name_index_;
  snapshot->catalog_ = previous->catalog_;
  DeltaOutcome local_outcome;
  if (outcome == nullptr) outcome = &local_outcome;
  // Lock-free on `previous`: a cyclic GLOBAL still solving there only
  // reads the engine this derives from, so the commit never waits on it.
  BAGC_ASSIGN_OR_RETURN(
      ConsistencyEngine engine,
      ConsistencyEngine::MakeDeltaBatch(*previous->engine_, batch, outcome));
  snapshot->engine_.emplace(std::move(engine));
  // MakeDeltaBatch re-compared only the delta's dirty pairs; clean pairs
  // carried their verdicts.
  BAGC_ASSIGN_OR_RETURN(snapshot->pairwise_, snapshot->engine_->PairwiseAll());
  snapshot->acyclic_ = previous->acyclic_;
  if (snapshot->acyclic_) {
    snapshot->known_global_ = snapshot->pairwise_.consistent;
  } else if (!outcome->rows_changed) {
    snapshot->known_global_ = previous->known_global_.load(std::memory_order_acquire);
  }
  snapshot->dicts_ = snapshot->engine_->shared_dictionaries();
  for (const Bag& b : snapshot->engine_->collection().bags()) {
    snapshot->support_rows_ += b.SupportSize();
  }
  snapshot->approx_bytes_ = ApproxBytes(*snapshot->engine_, snapshot->dicts_.get());
  return std::shared_ptr<const EngineSnapshot>(std::move(snapshot));
}

Result<size_t> EngineSnapshot::ResolveBag(const std::string& token) const {
  if (WireIsIndex(token)) {
    uint64_t index = 0;
    auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), index);
    if (ec != std::errc() || ptr != token.data() + token.size() ||
        index >= names_.size()) {
      return Status::OutOfRange("bag index " + token + " out of range (" +
                                std::to_string(names_.size()) + " bags sealed)");
    }
    return static_cast<size_t>(index);
  }
  auto it = name_index_.find(token);
  if (it == name_index_.end()) {
    return Status::NotFound("no sealed bag named '" + token + "'");
  }
  return it->second;
}

Result<bool> EngineSnapshot::TwoBag(size_t i, size_t j) const {
  return engine_->TwoBag(i, j);
}

Result<bool> EngineSnapshot::Global() const {
  if (std::optional<bool> known = KnownGlobal()) return *known;
  // Theorem 4: the cyclic solve may be exponential, so one caller runs it
  // and the ones queued behind it read its verdict.
  std::lock_guard<std::mutex> lock(global_mu_);
  if (std::optional<bool> known = KnownGlobal()) return *known;
  // A budget failure is as deterministic as a verdict on an immutable
  // generation: queued callers get it at once rather than re-running.
  if (!global_failure_.ok()) return global_failure_;
  ++global_solves_;
  Result<bool> verdict = engine_->Global();
  if (!verdict.ok()) {
    if (verdict.status().code() == StatusCode::kResourceExhausted) {
      global_failure_ = verdict.status();
    }
    return verdict.status();
  }
  known_global_.store(*verdict ? 1 : 0, std::memory_order_release);
  return *verdict;
}

uint64_t EngineSnapshot::global_solves() const {
  std::lock_guard<std::mutex> lock(global_mu_);
  return global_solves_;
}

std::optional<bool> EngineSnapshot::KnownGlobal() const {
  const int8_t known = known_global_.load(std::memory_order_acquire);
  if (known < 0) return std::nullopt;
  return known == 1;
}

Result<bool> EngineSnapshot::KWise(
    size_t k, std::optional<std::vector<size_t>>* failing_subset) const {
  return engine_->KWiseConsistent(k, failing_subset);
}

Result<std::optional<Bag>> EngineSnapshot::Witness(size_t i, size_t j,
                                                   bool /*minimal*/) const {
  return engine_->Witness(i, j);
}

std::string EngineSnapshot::WriteBagText(const Bag& bag) const {
  return WriteBag(bag, catalog_, dicts_.get());
}

Result<SegmentBags> LoadSegmentBags(const std::string& path,
                                    AttributeCatalog* catalog) {
  BAGC_ASSIGN_OR_RETURN(SegmentReader mapped, SegmentReader::Map(path));
  // Shared so each borrowed bag and dictionary pins the mapping: they
  // serve the mmap'd columns and values from the page cache, and the
  // reader dies with the last of them.
  auto reader = std::make_shared<SegmentReader>(std::move(mapped));
  SegmentBags out;
  out.attrs.reserve(reader->num_attrs());
  for (size_t a = 0; a < reader->num_attrs(); ++a) {
    std::string name(reader->attr_name(a));
    if (!WireValidateValue(name).ok()) {
      return Status::InvalidArgument(
          "segment attribute name is not representable on the wire");
    }
    out.attrs.push_back(catalog->Intern(name));
    ValueDictionary& dict = out.dicts.dict(out.attrs.back());
    BAGC_RETURN_NOT_OK(dict.Borrow(reader->attr_offsets(a),
                                   reader->attr_value_count(a),
                                   reader->attr_blob(a), reader));
    // Values enter from disk only here, so this is where the text
    // framing's rule (the one DICT enforces) is checked.
    Status valid = WireValidateValueTable(dict.offsets(), dict.size(), dict.blob());
    if (!valid.ok()) {
      return Status::InvalidArgument("segment attribute '" + name + "': " +
                                     valid.message());
    }
  }
  for (size_t b = 0; b < reader->num_bags(); ++b) {
    std::string name(reader->bag_name(b));
    if (name.empty() || WireIsIndex(name)) {
      return Status::InvalidArgument("bag name '" + name +
                                     "' must not be all digits (reserved for indices)");
    }
    if (std::find(out.names.begin(), out.names.end(), name) != out.names.end()) {
      return Status::FailedPrecondition("bag '" + name +
                                        "' appears twice in the segment");
    }
    std::vector<std::string> col_names;
    col_names.reserve(reader->bag_arity(b));
    for (size_t c = 0; c < reader->bag_arity(b); ++c) {
      col_names.emplace_back(reader->attr_name(reader->bag_attr(b, c)));
    }
    // Zero parse, zero copy: a segment EncodeSegment wrote is already in
    // sealed columnar shape. Segments the strict borrow validation
    // rejects (permuted columns, zero mults) fall back to the copying
    // ingest, which re-sorts and reports the precise error.
    ColumnStore columns = reader->Columns(b);
    Result<Bag> bag =
        BagBorrowU32Columns(col_names, columns.View(), reader->Mults(b),
                            catalog, out.dicts, reader);
    if (!bag.ok()) {
      bag = BagFromU32Columns(col_names, columns.View(), reader->Mults(b),
                              catalog, out.dicts);
    }
    if (!bag.ok()) return bag.status();
    out.names.push_back(std::move(name));
    out.bags.push_back(std::move(bag).value());
  }
  return out;
}

}  // namespace bagc
