#include "server/session.h"

#include <algorithm>
#include <charconv>
#include <future>
#include <limits>
#include <map>
#include <utility>

#include "bag/bag_io.h"
#include "util/short_copy.h"

namespace bagc {

namespace {

// Ceilings on one buffered request body (DICT/LOAD/LOADU32 block): line
// count AND total bytes — the byte cap is what actually bounds a
// session's memory (4M near-max-length lines would otherwise buffer
// terabytes). Same hardening class as the SEAL THREADS cap: no single request
// may take the daemon down. Overflowing blocks answer E_RANGE.
constexpr size_t kMaxBodyLines = size_t{1} << 22;  // ~4.2M rows per block
constexpr size_t kMaxBodyBytes = size_t{1} << 28;  // 256 MiB per block

// Cumulative ceilings on ONE open BEGIN/COMMIT transaction, enforced as
// each block buffers (E_RANGE before anything is staged). The body caps
// above are per block, so without these a transaction could buffer
// unbounded INSERT/DELETE blocks — per-session memory exhaustion, and a
// COMMIT whose single WAL record over-runs kWalMaxRecordPayload. The
// byte cap counts the WAL encoding (12-byte block header + per row
// arity×u32 ids + i64 delta) and leaves headroom for the record's
// 20-byte payload header, so any transaction that buffers is guaranteed
// to journal as one record.
constexpr size_t kMaxTxnRows = kMaxBodyLines;
constexpr size_t kMaxTxnWalBytes = (size_t{kWalMaxRecordPayload}) - 64;

// Longest accepted text-mode input line. Real rows are tens of bytes; a
// peer that streams megabytes without a newline is abusing the framing,
// and the session must bound its buffering rather than grow until the
// OOM killer takes every session down.
constexpr size_t kMaxLineBytes = 1 << 20;

// Runs `fn` on the server's shared query pool and blocks this session
// until it finishes; inline when the server runs without a pool. Only
// search and witness work comes here (a cyclic GLOBAL's first solve, KWISE,
// WITNESS): a lookup of a verdict decided at seal is cheaper than the
// handoff, so HandleQuery answers those on the connection thread.
template <typename Fn>
auto RunOn(ThreadPool* pool, Fn&& fn) -> decltype(fn()) {
  if (pool == nullptr) return fn();
  using R = decltype(fn());
  auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
  std::future<R> future = task->get_future();
  pool->Submit([task] { (*task)(); });
  return future.get();
}

Response VerdictOrError(const Result<bool>& verdict) {
  return verdict.ok() ? Response::Verdict(*verdict) : Response::Error(verdict.status());
}

// A witness with its values decoded through the snapshot's dictionaries
// — the externals both framings print: under SEAL CANONICAL the
// snapshot's id space differs from the session's, so raw ids would be
// undecodable client-side. An id without a dictionary entry prints
// through the codec.
Response WitnessResponse(const Bag& bag, const EngineSnapshot& snapshot) {
  Response r;
  r.kind = Response::Kind::kWitness;
  r.found = true;
  const Schema& schema = bag.schema();
  const size_t arity = schema.arity();
  const DictionarySet* dicts = snapshot.dictionaries();
  std::vector<const ValueDictionary*> slot_dict(arity, nullptr);
  for (size_t i = 0; i < arity; ++i) {
    r.attrs.push_back(snapshot.catalog().Name(schema.at(i)));
    if (dicts != nullptr) slot_dict[i] = dicts->find_dict(schema.at(i));
  }
  const size_t rows = bag.SupportSize();
  std::vector<const ValueId*> column(arity);
  for (size_t i = 0; i < arity; ++i) column[i] = bag.Column(i);
  char digits[20];
  auto external = [&](size_t e, size_t i) -> std::string_view {
    const ValueDictionary* d = slot_dict[i];
    const ValueId id = column[i][e];
    if (d != nullptr && id < d->size()) return d->ExternalOf(id);
    return std::string_view(digits, std::to_chars(digits, digits + sizeof(digits),
                                                  DecodeValue(id)).ptr - digits);
  };
  // Two passes over the cells: the first lays out every value's end
  // offset, so the second copies the values into an exactly sized blob.
  r.value_ends.resize(rows * arity);
  uint64_t bytes = 0;
  for (size_t e = 0, k = 0; e < rows; ++e) {
    for (size_t i = 0; i < arity; ++i, ++k) {
      bytes += external(e, i).size();
      r.value_ends[k] = static_cast<uint32_t>(bytes);
    }
  }
  if (bytes > std::numeric_limits<uint32_t>::max()) {
    return Response::Err(WireError::kRange, "witness values exceed 4 GiB");
  }
  r.value_blob.resize(bytes);
  char* p = r.value_blob.data();
  for (size_t e = 0; e < rows; ++e) {
    for (size_t i = 0; i < arity; ++i) {
      const std::string_view value = external(e, i);
      p = CopyShort(p, value.data(), value.size());
    }
  }
  const uint64_t* mults = bag.MultiplicityData();
  r.mults.assign(mults, mults + rows);
  return r;
}

}  // namespace

ServerSession::ServerSession(CollectionRegistry* registry,
                             ThreadPool* query_pool)
    : registry_(registry),
      query_pool_(query_pool),
      collection_(registry->Default()) {
  registry_->SessionOpened();
}

ServerSession::~ServerSession() { registry_->SessionClosed(); }

ServerSession::Outcome ServerSession::HandleData(std::string_view data,
                                                 std::string* out) {
  inbuf_.append(data.data(), data.size());
  size_t consumed = 0;
  Outcome outcome = Outcome::kContinue;
  while (outcome == Outcome::kContinue) {
    if (mode_ == Mode::kText) {
      size_t nl = inbuf_.find('\n', consumed);
      // The line-length ceiling applies whether or not the newline has
      // arrived yet: a complete over-long line (one read with a late
      // newline) is exactly as abusive as a partial one, and must not
      // slip through just because it parsed as a whole line.
      if (nl == std::string::npos ? inbuf_.size() - consumed > kMaxLineBytes
                                  : nl - consumed > kMaxLineBytes) {
        AppendResponseText(
            Response::Err(WireError::kRange,
                          "input line exceeds " + std::to_string(kMaxLineBytes) + " bytes"),
            out);
        outcome = Outcome::kCloseConnection;
        break;
      }
      if (nl == std::string::npos) break;
      std::string_view line = std::string_view(inbuf_).substr(consumed, nl - consumed);
      consumed = nl + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      outcome = HandleTextLine(line, out);
      // A successful UPGRADE flips mode_ mid-buffer; the loop re-checks
      // it each iteration, so bytes already received parse as frames.
    } else {
      if (inbuf_.size() - consumed < kWireFrameHeaderBytes) break;
      WireCursor header(
          std::string_view(inbuf_).substr(consumed, kWireFrameHeaderBytes));
      uint32_t payload_len = 0;
      uint8_t opcode = 0;
      header.U32(&payload_len);
      header.U8(&opcode);
      if (payload_len > kWireMaxFramePayload) {
        // No resync is possible mid-frame; refuse and close.
        AppendResponseFrame(
            Response::Err(WireError::kRange, "frame payload exceeds " +
                                                 std::to_string(kWireMaxFramePayload) +
                                                 " bytes"),
            out);
        outcome = Outcome::kCloseConnection;
        break;
      }
      if (inbuf_.size() - consumed - kWireFrameHeaderBytes < payload_len) break;
      std::string_view payload(inbuf_.data() + consumed + kWireFrameHeaderBytes,
                               payload_len);
      consumed += kWireFrameHeaderBytes + payload_len;
      outcome = Serve(DecodeRequestFrame(opcode, payload), out);
    }
  }
  inbuf_.erase(0, consumed);
  return outcome;
}

ServerSession::Outcome ServerSession::HandleTextLine(std::string_view line,
                                                     std::string* out) {
  if (!body_header_.empty()) {
    if (StripCommentView(line) != kWireEnd) {
      if (body_lines_.size() >= kMaxBodyLines ||
          body_bytes_ + line.size() > kMaxBodyBytes) {
        body_overflow_ = true;  // keep consuming, stop buffering
      } else {
        body_bytes_ += line.size();
        body_lines_.emplace_back(line);
      }
      return Outcome::kContinue;
    }
    std::vector<std::string> header = std::move(body_header_);
    std::vector<std::string> body = std::move(body_lines_);
    body_header_.clear();
    body_lines_.clear();
    body_bytes_ = 0;
    if (std::exchange(body_overflow_, false)) {
      return Serve(Status::OutOfRange("request body exceeds " +
                                      std::to_string(kMaxBodyLines) + " lines or " +
                                      std::to_string(kMaxBodyBytes) + " bytes"),
                   out);
    }
    return Serve(DecodeTextRequest(header, std::move(body)), out);
  }
  std::vector<std::string> tokens = WireTokens(line);
  if (tokens.empty()) return Outcome::kContinue;  // blank / comment line
  if (WireCommandHasBody(tokens[0])) {
    // Enter body mode even on a bad header: the body is always consumed
    // through END before the (possibly ERR) response, so a bad header
    // can never desynchronize the line stream.
    body_header_ = std::move(tokens);
    return Outcome::kContinue;
  }
  return Serve(DecodeTextRequest(tokens), out);
}

std::vector<std::string> ServerSession::HandleScript(const std::string& text) {
  std::string out;
  if (HandleData(text, &out) == Outcome::kContinue && !text.empty() &&
      text.back() != '\n') {
    HandleData("\n", &out);
  }
  return WireSplitLines(out);
}

ServerSession::Outcome ServerSession::Serve(Result<Request>&& request,
                                            std::string* out) {
  // UPGRADE and TEXT answer in the framing they arrived in; the switch
  // applies from the next request on.
  const Mode reply_mode = mode_;
  Outcome outcome = Outcome::kContinue;
  Response response = request.ok() ? Dispatch(*request, &outcome)
                                   : Response::Error(request.status());
  if (reply_mode == Mode::kBinary) {
    AppendResponseFrame(response, out);
  } else {
    AppendResponseText(response, out);
  }
  return outcome;
}

Response ServerSession::Dispatch(Request& request, Outcome* outcome) {
  switch (request.verb) {
    case Verb::kSeal:
    case Verb::kLoadSeg:
    case Verb::kDrop:
    case Verb::kAttach:
    case Verb::kDetach:
    case Verb::kDict:
    case Verb::kLoad:
    case Verb::kLoadU32:
      // A transaction pins the bag set and the bound collection: only the
      // delta verbs, queries, and framing commands run while one is open.
      // RESET stays legal (it discards the transaction with everything
      // else).
      if (txn_active_) {
        return Response::Err(WireError::kState,
                             std::string(VerbName(request.verb)) +
                                 " is not allowed inside a transaction; COMMIT or "
                                 "RESET first");
      }
      break;
    default:
      break;
  }
  switch (request.verb) {
    case Verb::kHello:
      return Response::Ok("HELLO proto " + std::to_string(kWireProtocolVersion) +
                          " frames " + std::to_string(kWireFrameVersion));
    case Verb::kUpgrade:
      if (mode_ == Mode::kBinary) {
        return Response::Err(WireError::kState, "session is already in binary mode");
      }
      mode_ = Mode::kBinary;  // the OK is the last text line
      return Response::Ok("UPGRADE BINARY");
    case Verb::kText:
      // Idempotent downgrade: the OK is the last frame (or a plain text
      // line when already in text mode); everything after is lines.
      mode_ = Mode::kText;
      return Response::Ok("TEXT");
    case Verb::kQuit:
      *outcome = Outcome::kCloseConnection;
      return Response::Ok("BYE");
    case Verb::kShutdown:
      *outcome = Outcome::kShutdownServer;
      return Response::Ok("BYE");
    case Verb::kDict:
      return HandleDict(request);
    case Verb::kLoad:
    case Verb::kLoadU32:
      return HandleLoad(request);
    case Verb::kInsert:
    case Verb::kDelete:
      return HandleMutate(request);
    case Verb::kLoadSeg:
      return HandleLoadSeg(request);
    case Verb::kDrop:
      return HandleDrop(request);
    case Verb::kSeal:
      return HandleSeal(request);
    case Verb::kReset:
      return HandleReset(request);
    case Verb::kAttach:
      return HandleAttach(request);
    case Verb::kDetach:
      if (collection_.get() != registry_->Default().get()) {
        collection_ = registry_->Default();
        ForgetSealLineage();
      }
      return Response::Ok("DETACH");
    case Verb::kBegin:
      if (txn_active_) {
        return Response::Err(WireError::kState,
                             "a transaction is already open; COMMIT or RESET first");
      }
      txn_active_ = true;  // COMMIT and RESET left the buffer empty
      return Response::Ok("BEGIN");
    case Verb::kCommit:
      return HandleCommit();
    case Verb::kStats:
      return HandleStats(request);
    case Verb::kTwoBag:
    case Verb::kPairwise:
    case Verb::kGlobal:
    case Verb::kKWise:
    case Verb::kWitness:
      return HandleQuery(request);
  }
  return Response::Err(WireError::kInternal, "unhandled verb");
}

Response ServerSession::HandleDict(const Request& request) {
  AttrId attr = catalog_.Intern(request.name);
  Status loaded = dicts_->dict(attr).BulkLoad(request.lines);
  if (!loaded.ok()) return Response::Error(loaded);
  return Response::Ok("DICT " + request.name + " " + std::to_string(request.lines.size()));
}

Status ServerSession::CheckNewBagName(const std::string& name) const {
  if (name.empty() || WireIsIndex(name)) {
    return Status::InvalidArgument("bag name '" + name +
                                   "' must not be all digits (reserved for indices)");
  }
  if (FindBag(name) != bag_names_.size()) {
    return Status::FailedPrecondition("bag '" + name + "' is already loaded");
  }
  return Status::OK();
}

Response ServerSession::HandleLoad(Request& request) {
  if (Status named = CheckNewBagName(request.name); !named.ok()) {
    return Response::Error(named);
  }
  Result<Bag> bag = [&]() -> Result<Bag> {
    if (request.verb == Verb::kLoadU32) {
      // Raw u32 ids: the shared columnar ingest validates them against
      // the shipped dictionaries with no string work at all.
      const size_t rows = request.num_rows();
      std::vector<const ValueId*> ptrs(request.columns.size());
      for (size_t c = 0; c < ptrs.size(); ++c) ptrs[c] = request.ids.data() + c * rows;
      return BagFromU32Columns(request.columns, ColumnView(std::move(ptrs), rows),
                               request.counts.data(), &catalog_, *dicts_);
    }
    // External string rows: reassemble a bag IO block for the interning
    // parser. Moved, not copied — the request dies right after.
    std::vector<std::string> lines;
    lines.reserve(request.lines.size() + 2);
    std::string header = "bag";
    for (const std::string& col : request.columns) header += " " + col;
    lines.push_back(std::move(header));
    for (std::string& raw : request.lines) lines.push_back(std::move(raw));
    lines.emplace_back("end");
    size_t pos = 0;
    BAGC_ASSIGN_OR_RETURN(Bag parsed, ParseBag(lines, &pos, &catalog_, dicts_.get()));
    if (pos != lines.size()) {
      // A stray lowercase "end" row terminated the block early.
      return Status::InvalidArgument("unexpected content after 'end' in a row block");
    }
    return parsed;
  }();
  if (!bag.ok()) return Response::Error(bag.status());
  size_t support = bag->SupportSize();
  AddBag(request.name, std::move(bag).value());
  return Response::Ok(std::string(VerbName(request.verb)) + " " + request.name + " " +
                      std::to_string(support) + " rows");
}

Response ServerSession::HandleMutate(const Request& request) {
  const std::string label = std::string(VerbName(request.verb)) + " " + request.name;
  const size_t bag_index = FindBag(request.name);
  if (bag_index == bag_names_.size()) {
    return Response::Err(WireError::kState,
                         "bag '" + request.name + "' is not loaded in this session; " +
                             std::string(VerbName(request.verb)) +
                             " mutates loaded bags (LOAD, LOADU32, or LOADSEG it first)");
  }
  // The header must spell exactly the bag's schema (any order), and every
  // column needs a dictionary (the LOADU32 rule); slot_of_column[c] maps
  // wire column c to its schema slot.
  const size_t arity = request.columns.size();
  std::vector<AttrId> attrs;
  attrs.reserve(arity);
  for (const std::string& col : request.columns) attrs.push_back(catalog_.Intern(col));
  Schema schema{attrs};
  if (schema.arity() != arity) {
    return Response::Err(WireError::kParse, "duplicate attribute in delta header");
  }
  if (schema != bags_[bag_index].schema()) {
    return Response::Err(WireError::kParse,
                         "delta attributes do not match the bag's schema");
  }
  std::vector<const ValueDictionary*> column_dict(arity);
  std::vector<size_t> slot_of_column(arity);
  for (size_t c = 0; c < arity; ++c) {
    column_dict[c] = dicts_->find_dict(attrs[c]);
    if (column_dict[c] == nullptr) {
      return Response::Err(WireError::kState,
                           "u32 rows require a dictionary for attribute '" +
                               request.columns[c] + "'; ship its DICT block first");
    }
    slot_of_column[c] = *schema.IndexOf(attrs[c]);
  }
  const size_t rows = request.num_rows();
  const int64_t sign = request.verb == Verb::kInsert ? 1 : -1;
  BagDeltas entry;
  entry.bag_index = bag_index;
  std::vector<ValueId> row(arity);
  for (size_t e = 0; e < rows; ++e) {
    for (size_t c = 0; c < arity; ++c) {
      const ValueId id = request.ids[c * rows + e];
      if (id >= column_dict[c]->size()) {
        return Response::Err(WireError::kRange,
                             "row id " + std::to_string(id) +
                                 " was never issued for attribute '" + request.columns[c] +
                                 "' (dictionary has " +
                                 std::to_string(column_dict[c]->size()) + " values)");
      }
      row[slot_of_column[c]] = id;
    }
    const uint64_t count = request.counts[e];
    if (count > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      return Response::Err(WireError::kRange, "delta count exceeds int64");
    }
    if (count == 0) continue;  // zero rows net nothing, as in LOADU32
    entry.deltas.push_back({Tuple::OfIds(row), sign * static_cast<int64_t>(count)});
  }
  if (!txn_active_) {
    DeltaBatch batch;
    batch.push_back(std::move(entry));
    return CommitBatch(std::move(batch), rows, label);
  }
  // Inside BEGIN/COMMIT the delta only buffers; validation against
  // multiplicities (and publication) happens atomically at COMMIT.
  // Cumulative caps first: the body caps are per block, so only this
  // check bounds a whole transaction's memory — and guarantees the batch
  // encodes into ONE WAL record at COMMIT. A refused block leaves the
  // transaction open and untouched: COMMIT what is buffered, or RESET.
  const size_t row_cap = txn_row_cap_for_test_ > 0 ? txn_row_cap_for_test_ : kMaxTxnRows;
  const size_t byte_cap =
      txn_byte_cap_for_test_ > 0 ? txn_byte_cap_for_test_ : kMaxTxnWalBytes;
  const size_t entry_bytes = 12 + entry.deltas.size() * (arity * 4 + 8);
  if (txn_rows_ + rows > row_cap || txn_wal_bytes_ + entry_bytes > byte_cap) {
    return Response::Err(WireError::kRange,
                         "transaction exceeds " + std::to_string(row_cap) +
                             " buffered rows or " + std::to_string(byte_cap) +
                             " encoded bytes; COMMIT what is buffered or RESET");
  }
  txn_batch_.push_back(std::move(entry));
  txn_rows_ += rows;
  txn_wal_bytes_ += entry_bytes;
  return Response::Ok(label + " " + std::to_string(rows) + " rows buffered");
}

Response ServerSession::CommitBatch(DeltaBatch batch, size_t rows,
                                    const std::string& label) {
  const std::string verb = label.substr(0, label.find(' '));
  // Incremental-publish lineage: the bound collection's chain currently
  // ends in the generation this session sealed, every loaded bag still
  // holds the row store of the same-named bag at its index there, and no
  // value was interned since — the generations then share one immutable
  // dictionary clone, so the batch's ids mean the same thing in both.
  // (A canonical seal leaves last_seal_dicts_ null, which breaks lineage.)
  // The batch must be the only change the new generation carries.
  bool lineage = last_sealed_ != nullptr && last_seal_dicts_ != nullptr &&
                 last_seal_dicts_->total_size() == dicts_->total_size() &&
                 bags_.size() == last_sealed_->num_bags();
  for (size_t b = 0; lineage && b < bags_.size(); ++b) {
    lineage = last_sealed_->bag_name(b) == bag_names_[b] &&
              bags_[b].SharesRowsWith(last_sealed_->engine()->collection().bag(b));
  }
  if (lineage) {
    if (registry_->Peek(collection_.get()) == nullptr) {
      // Evicted under the memory budget: no resident generation to
      // derive from, and a delta commit must not trigger a reload (Peek
      // semantics). Retryable: any query reloads the collection from its
      // segment, or SEAL republishes it fresh.
      return Response::Err(WireError::kState,
                           "collection '" + collection_->name() +
                               "' is not resident; run a query (reload) or SEAL, "
                               "then retry the " +
                               verb);
    }
    DeltaOutcome outcome;
    Result<std::shared_ptr<const EngineSnapshot>> next =
        EngineSnapshot::BuildDeltaBatch(last_sealed_, batch,
                                        collection_->NextSeq(), &outcome);
    if (!next.ok()) {
      // A DELETE below zero multiplicity (E_RANGE) in ANY bag: nothing
      // was mutated or published — every loaded bag, the lineage, and
      // the served generation are all intact.
      return Response::Error(next.status());
    }
    Status published =
        registry_->PublishDelta(collection_.get(), *next, batch);
    if (!published.ok()) {
      // A concurrent publication won the chain (retryable E_STATE);
      // readers are on the newer generation, this session is untouched.
      return Response::Error(published);
    }
    // The session's staged copies now match the published generation, so
    // the next SEAL or delta keeps full reuse lineage.
    std::vector<size_t> mutated;
    for (const BagDeltas& bd : batch) {
      if (std::find(mutated.begin(), mutated.end(), bd.bag_index) ==
          mutated.end()) {
        mutated.push_back(bd.bag_index);
      }
    }
    for (size_t bi : mutated) bags_[bi] = (*next)->engine()->collection().bag(bi);
    last_sealed_ = *next;
    // The published rows diverged from whatever segment staged them.
    staged_seg_path_.clear();
    registry_->RecordDelta();
    std::string rest = label + " " + std::to_string(rows) + " rows " +
                       std::to_string(bags_.size()) + " bags";
    size_t reused = bags_.size() - mutated.size();
    if (reused > 0) rest += " " + std::to_string(reused) + " reused";
    return Response::Ok(rest);
  }
  // No publishable lineage (nothing sealed yet, canonical seal,
  // dictionary growth, or a changed bag set): mutate the loaded bags
  // only, all-or-nothing across the whole batch. Each bag gets its
  // blocks' concatenated deltas in one ApplyRowDeltas call, which nets
  // them exactly as ApplyDeltaBatch does, so a bag listed twice behaves
  // identically on both paths. Each changed bag gets a new row store, so
  // the next SEAL refills exactly those.
  std::map<size_t, std::vector<std::pair<Tuple, int64_t>>> deltas;
  for (BagDeltas& bd : batch) {
    std::vector<std::pair<Tuple, int64_t>>& bag_deltas = deltas[bd.bag_index];
    for (BagDelta& d : bd.deltas) bag_deltas.emplace_back(std::move(d.row), d.delta);
  }
  std::map<size_t, Bag> staged;
  for (const auto& [bi, bag_deltas] : deltas) {
    Bag next_bag = bags_[bi];
    Result<size_t> changed = next_bag.ApplyRowDeltas(bag_deltas);
    // All-or-nothing: every loaded bag is still intact.
    if (!changed.ok()) return Response::Error(changed.status());
    if (*changed > 0) staged.emplace(bi, std::move(next_bag));
  }
  for (auto& [bi, bag] : staged) bags_[bi] = std::move(bag);
  staged_seg_path_.clear();
  registry_->RecordDelta();
  return Response::Ok(label + " " + std::to_string(rows) + " rows staged");
}

Response ServerSession::HandleCommit() {
  if (!txn_active_) {
    return Response::Err(WireError::kState, "no transaction is open; BEGIN first");
  }
  // COMMIT ends the transaction either way: on an error the batch was
  // not applied anywhere (all-or-nothing) and the client re-BEGINs.
  DeltaBatch batch = std::move(txn_batch_);
  size_t rows = txn_rows_;
  EndTransaction();
  if (batch.empty()) return Response::Ok("COMMIT 0 rows");
  return CommitBatch(std::move(batch), rows, "COMMIT");
}

void ServerSession::EndTransaction() {
  txn_active_ = false;
  txn_batch_.clear();
  txn_rows_ = 0;
  txn_wal_bytes_ = 0;
}

Response ServerSession::HandleLoadSeg(const Request& request) {
  // Load against a copy of the catalog, and check everything BEFORE
  // touching session state: a failed LOADSEG interns nothing and leaves
  // the session unchanged.
  AttributeCatalog catalog = catalog_;
  Result<SegmentBags> loaded = LoadSegmentBags(request.name, &catalog);
  if (!loaded.ok()) return Response::Error(loaded.status());
  // The segment ships its own dictionaries, so the session must not
  // already hold one for any of its attributes (the same no-merge rule
  // as a second DICT block).
  bool fresh_attrs = true;
  for (AttrId a : loaded->attrs) {
    if (dicts_->find_dict(a) != nullptr) {
      return Response::Err(WireError::kState,
                           "attribute '" + catalog.Name(a) +
                               "' already has a dictionary in this session");
    }
    fresh_attrs = fresh_attrs && a >= catalog_.size();
  }
  size_t total_support = 0;
  for (size_t b = 0; b < loaded->names.size(); ++b) {
    if (Status named = CheckNewBagName(loaded->names[b]); !named.ok()) {
      return Response::Error(named);
    }
    total_support += loaded->bags[b].SupportSize();
  }
  // Commit. Moving the segment dictionaries into the live set hands over
  // the exact id space the bags were built against without re-hashing a
  // single string (the targets are empty, checked above).
  catalog_ = std::move(catalog);
  for (AttrId a : loaded->attrs) dicts_->dict(a) = std::move(loaded->dicts.dict(a));
  const bool was_empty = bags_.empty();
  for (size_t b = 0; b < loaded->names.size(); ++b) {
    AddBag(std::move(loaded->names[b]), std::move(loaded->bags[b]));
  }
  // A later SEAL may register this segment as the collection's reload
  // source only when a reload reproduces this state exactly: the segment
  // is the whole loaded state, and none of its attribute names was
  // interned before, so the reload's fresh catalog orders them — and
  // hence every bag's slot layout and logged delta row — the same way.
  // AddBag cleared any prior staging.
  if (was_empty && fresh_attrs) staged_seg_path_ = request.name;
  return Response::Ok("LOADSEG " + std::to_string(loaded->names.size()) + " bags " +
                      std::to_string(total_support) + " rows");
}

Response ServerSession::HandleSeal(const Request& request) {
  if (bags_.empty()) {
    return Response::Err(WireError::kState, "no bags loaded; LOAD or LOADU32 first");
  }
  const bool canonical = request.canonical;
  EngineSnapshot::BuildInputs inputs;
  inputs.names = bag_names_;
  inputs.bags = bags_;  // the session keeps its copies for later re-seals
  inputs.catalog = catalog_;
  // The snapshot seals through a private clone: the session's live set —
  // and every id a client has streamed or will stream — stays untouched,
  // even under CANONICAL (which reorders only the clone). Re-seals skip
  // the clone when no value was interned since the last one (dictionary
  // growth is append-only, so an equal total count means identical
  // content) — the generations then share one immutable DictionarySet.
  if (!canonical && last_seal_dicts_ != nullptr &&
      last_seal_dicts_->total_size() == dicts_->total_size()) {
    inputs.dicts = last_seal_dicts_;
  } else {
    inputs.dicts = std::make_shared<DictionarySet>(dicts_->Clone());
  }
  std::shared_ptr<DictionarySet> seal_dicts = inputs.dicts;
  inputs.num_threads = static_cast<size_t>(request.threads);
  inputs.canonicalize = canonical;
  // Incremental re-seal: every bag still holding a row store of the last
  // generation this session sealed reuses its marginal cache — a k-of-m
  // touch refills O(k·m) pairs instead of O(m²). FULL opts out
  // (benchmark baseline).
  if (!request.full) inputs.previous = last_sealed_;
  Result<std::shared_ptr<const EngineSnapshot>> snapshot =
      EngineSnapshot::Build(std::move(inputs), collection_->NextSeq());
  if (!snapshot.ok()) return Response::Error(snapshot.status());
  Status published = registry_->Publish(collection_.get(), *snapshot,
                                        staged_seg_path_, canonical);
  if (!published.ok()) return Response::Error(published);
  last_sealed_ = *snapshot;
  // A canonical seal remapped the clone's ids in place; it can never
  // seed a later generation.
  last_seal_dicts_ = canonical ? nullptr : std::move(seal_dicts);
  registry_->RecordSeal();
  std::string rest = "SEAL " + std::to_string(bags_.size()) + " bags";
  // The suffix appears only on actual reuse, so full-seal responses stay
  // byte-identical to protocol v1.
  const size_t reused = last_sealed_->engine()->reused_bags();
  if (reused > 0) rest += " " + std::to_string(reused) + " reused";
  return Response::Ok(rest);
}

Response ServerSession::HandleReset(const Request& request) {
  bag_names_.clear();
  bags_.clear();
  ForgetSealLineage();
  // An open transaction dies with the bags it was staged against.
  EndTransaction();
  if (request.hard) {
    catalog_ = AttributeCatalog();
    dicts_ = std::make_shared<DictionarySet>();
  }
  // In-flight queries of other sessions finish on the old snapshot; new
  // queries on this collection see no engine until the next SEAL.
  registry_->Clear(collection_.get());
  registry_->RecordReset();
  return Response::Ok(request.hard ? "RESET HARD" : "RESET");
}

Response ServerSession::HandleAttach(const Request& request) {
  // Collection names share the bag-name shape rule (so STATS <name> and
  // future addressing stay unambiguous).
  if (WireIsIndex(request.name)) {
    return Response::Err(WireError::kParse,
                         "collection name '" + request.name + "' must not be all digits");
  }
  Result<std::shared_ptr<CollectionRegistry::Collection>> attached =
      registry_->Attach(request.name);
  if (!attached.ok()) return Response::Error(attached.status());
  if (attached->get() != collection_.get()) {
    collection_ = *std::move(attached);
    // The previous chain's generations mean nothing to the new one.
    ForgetSealLineage();
  }
  return Response::Ok("ATTACH " + request.name);
}

Response ServerSession::HandleDrop(const Request& request) {
  const size_t i = FindBag(request.name);
  if (i == bag_names_.size()) {
    return Response::Err(WireError::kState, "bag '" + request.name + "' is not loaded");
  }
  bag_names_.erase(bag_names_.begin() + i);
  bags_.erase(bags_.begin() + i);
  // The loaded set no longer matches any one segment. Re-LOADing the same
  // name seals a new row store, which marks it changed for the next
  // incremental SEAL.
  staged_seg_path_.clear();
  return Response::Ok("DROP " + request.name);
}

Response ServerSession::HandleStats(const Request& request) {
  Response r;
  r.kind = Response::Kind::kStats;
  auto& kv = r.stats;
  if (!request.name.empty()) {
    // Per-collection STATS: registry-level accounting, no snapshot
    // access (Peek semantics — reporting must not trigger a reload).
    std::shared_ptr<CollectionRegistry::Collection> c = registry_->Find(request.name);
    if (c == nullptr) {
      return Response::Err(WireError::kState,
                           "no collection named '" + request.name + "'");
    }
    CollectionRegistry::CollectionStats s = registry_->Stats(c.get());
    kv.emplace_back("resident", s.resident ? 1 : 0);
    kv.emplace_back("reloadable", s.reloadable ? 1 : 0);
    kv.emplace_back("bytes", s.bytes);
    kv.emplace_back("generation", s.generation);
    kv.emplace_back("last_access", s.last_access);
    kv.emplace_back("hits", s.hits);
    kv.emplace_back("evictions", s.evictions);
    kv.emplace_back("reloads", s.reloads);
    return r;
  }
  // Global STATS reports the bound collection's snapshot without LRU or
  // reload side effects; the first ten keys are pinned by protocol v1
  // (docs/PROTOCOL.md transcript), new registry keys append after them.
  std::shared_ptr<const EngineSnapshot> snapshot =
      registry_->Peek(collection_.get());
  kv.emplace_back("proto", kWireProtocolVersion);
  kv.emplace_back("sessions", registry_->sessions_active());
  kv.emplace_back("seals", registry_->seals_total());
  kv.emplace_back("resets", registry_->resets_total());
  kv.emplace_back("queries", registry_->queries_total());
  kv.emplace_back("snapshot", snapshot == nullptr ? 0 : snapshot->seq());
  kv.emplace_back("bags", snapshot == nullptr ? 0 : snapshot->num_bags());
  kv.emplace_back("support", snapshot == nullptr ? 0 : snapshot->support_rows());
  kv.emplace_back("dict_values",
                  snapshot == nullptr ? 0 : snapshot->dict_values());
  kv.emplace_back("marginal_fills",
                  snapshot == nullptr ? 0 : snapshot->marginal_fills());
  kv.emplace_back("collections", registry_->num_collections());
  kv.emplace_back("evictions", registry_->evictions_total());
  kv.emplace_back("deltas", registry_->deltas_total());
  kv.emplace_back("sealed_bytes",
                  snapshot == nullptr ? 0 : snapshot->sealed_bytes());
  kv.emplace_back("wal_records", registry_->wal_records_total());
  kv.emplace_back("wal_bytes", registry_->wal_bytes_total());
  kv.emplace_back("replayed_generations",
                  registry_->replayed_generations_total());
  return r;
}

Response ServerSession::HandleQuery(const Request& request) {
  Result<std::shared_ptr<const EngineSnapshot>> acquired =
      registry_->Acquire(collection_.get());
  // Evicted with no reload source, or the segment reload failed.
  if (!acquired.ok()) return Response::Error(acquired.status());
  std::shared_ptr<const EngineSnapshot> snapshot = *std::move(acquired);
  if (snapshot == nullptr) {
    return Response::Err(WireError::kState, "no sealed engine; SEAL a collection first");
  }
  size_t i = 0, j = 0;
  if (request.verb == Verb::kTwoBag || request.verb == Verb::kWitness) {
    Result<size_t> ri = snapshot->ResolveBag(request.bag_i);
    Result<size_t> rj = snapshot->ResolveBag(request.bag_j);
    if (!ri.ok()) return Response::Error(ri.status());
    if (!rj.ok()) return Response::Error(rj.status());
    i = *ri;
    j = *rj;
  }
  if (request.verb == Verb::kWitness) {
    // Protocol v1 touches the collection twice per WITNESS (operand
    // resolution, then the flow run); the LRU tick count is visible in
    // STATS <collection> and pinned by the docs/PROTOCOL.md transcript.
    (void)registry_->Acquire(collection_.get());
  }
  registry_->RecordQuery();
  switch (request.verb) {
    case Verb::kTwoBag:  // Lemma 2(2), decided at seal
      return VerdictOrError(snapshot->TwoBag(i, j));
    case Verb::kPairwise: {
      const PairwiseVerdict& verdict = snapshot->Pairwise();  // sealed at Build
      if (verdict.consistent) return Response::Verdict(true);
      return Response::Verdict(false, {verdict.witness_pair.first, verdict.witness_pair.second});
    }
    case Verb::kGlobal:
      // Theorem 2 on an acyclic schema, or a cyclic solve already run.
      if (std::optional<bool> known = snapshot->KnownGlobal()) {
        return Response::Verdict(*known);
      }
      return VerdictOrError(RunOn(query_pool_, [&] { return snapshot->Global(); }));
    case Verb::kKWise: {
      std::optional<std::vector<size_t>> failing;
      Result<bool> verdict = RunOn(
          query_pool_, [&] { return snapshot->KWise(static_cast<size_t>(request.k), &failing); });
      if (!verdict.ok()) return Response::Error(verdict.status());
      if (*verdict) return Response::Verdict(true);
      return Response::Verdict(false, std::move(*failing));
    }
    default: {  // WITNESS
      Result<std::optional<Bag>> witness =
          RunOn(query_pool_, [&] { return snapshot->Witness(i, j, request.minimal); });
      if (!witness.ok()) return Response::Error(witness.status());
      if (witness->has_value()) return WitnessResponse(**witness, *snapshot);
      Response none;
      none.kind = Response::Kind::kWitness;
      return none;
    }
  }
}

size_t ServerSession::FindBag(const std::string& name) const {
  return std::find(bag_names_.begin(), bag_names_.end(), name) - bag_names_.begin();
}

void ServerSession::AddBag(std::string name, Bag bag) {
  bag_names_.push_back(std::move(name));
  bags_.push_back(std::move(bag));
  // The loaded set grew past whatever segment staged it.
  staged_seg_path_.clear();
}

void ServerSession::ForgetSealLineage() {
  last_sealed_ = nullptr;
  last_seal_dicts_ = nullptr;
  staged_seg_path_.clear();
}

}  // namespace bagc
