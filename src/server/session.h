// Per-client session state machine of the bagcd protocol. A session is
// transport-agnostic: the socket layer (bagcd_server.cc), the in-process
// test harnesses, and the server_session benchmark feed it raw bytes
// (HandleData) and collect complete responses. The session owns the
// client's interning state — attribute catalog, live DictionarySet,
// loaded-but-unsealed bags — while every query is answered from the
// shared immutable EngineSnapshot currently published for the session's
// *collection* (ATTACH binds one; "default" before the first ATTACH), so
// N sessions hammer one sealed engine concurrently and a RESET or re-SEAL
// swaps generations under them without a pause. SEAL publishes into the
// bound collection's chain, handing the engine the last generation this
// session sealed there: every loaded bag that still holds the same row
// store as a bag of that generation (untouched since, or empty in both)
// reuses its sealed state, so changing k of m bags costs O(k·m) marginal
// fills instead of O(m²). A DROP + re-LOAD seals a new store, so it
// counts as changed even with identical rows ("SEAL FULL" opts out).
//
// The dictionary-aware hot path: a client ships each attribute's
// dictionary once (DICT block, ids 0..n-1 in shipped order), then
// streams LOADU32 rows of raw ids for the rest of the session. Those ids
// stay valid for the session's whole lifetime — SEAL hands the engine a
// private clone of the dictionaries (canonicalized there when requested),
// never the live set — so the server does no string interning, hashing,
// or comparison on the streaming path.
//
// Request -> dispatch -> Response. A session starts in the text framing
// (lines); "UPGRADE BINARY" switches both directions to the frames of
// server/protocol.h after its OK, and a CMD frame carrying "TEXT"
// switches back after its OK frame. Either framing decodes into one
// Request (server/protocol.h), Dispatch hands it to the one handler of
// its verb, and the handler's Response is encoded by the framing the
// request arrived in — so the two framings cannot diverge semantically.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bag/bag.h"
#include "server/collection_registry.h"
#include "server/engine_snapshot.h"
#include "server/protocol.h"
#include "tuple/attribute.h"
#include "tuple/value_dictionary.h"
#include "util/thread_pool.h"

namespace bagc {

/// \brief One client's protocol state machine.
///
/// Not thread-safe in itself (one connection = one session = one feeder
/// thread); cross-session concurrency happens in the shared registry and
/// snapshots.
class ServerSession {
 public:
  /// What the transport should do after handled input.
  enum class Outcome {
    kContinue,        ///< keep reading
    kCloseConnection, ///< QUIT / framing abuse: flush responses, close
    kShutdownServer,  ///< SHUTDOWN: flush, close, stop the whole server
  };

  /// `registry` must outlive the session. `query_pool` is the server's
  /// shared pool for the queries that search or build bags (a cyclic
  /// GLOBAL's first solve, KWISE, WITNESS); nullptr answers those inline
  /// on the transport thread too. Lookups of verdicts decided at seal —
  /// TWOBAG (Lemma 2(2)), PAIRWISE, and GLOBAL once known (Theorem 2 on
  /// an acyclic schema, or a cyclic solve already run) — always answer
  /// on the transport thread: the pool handoff would cost more than the
  /// lookup. The session starts bound to the registry's "default"
  /// collection.
  ServerSession(CollectionRegistry* registry, ThreadPool* query_pool);
  ~ServerSession();

  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  /// Feeds raw transport bytes. Complete requests (text lines or binary
  /// frames, per the current mode) are handled; a trailing partial stays
  /// buffered for the next call. Responses — text lines with '\n', or
  /// binary frames — are appended to *out ready to write to the peer.
  /// Enforces the text line-length and binary frame-payload ceilings
  /// (overflow answers E_RANGE and closes). Stop feeding once a non-
  /// kContinue outcome is returned.
  Outcome HandleData(std::string_view data, std::string* out);

  /// Convenience for tests and benchmarks: feeds `text` as text-framing
  /// input (a final line needs no newline) and returns every response
  /// line.
  std::vector<std::string> HandleScript(const std::string& text);

  /// True after a successful UPGRADE BINARY (and before a CMD "TEXT").
  bool binary_mode() const { return mode_ == Mode::kBinary; }

  /// Test hook: shrink the cumulative BEGIN/COMMIT caps so the refusal
  /// path is reachable without buffering millions of rows. 0 keeps the
  /// built-in cap (kMaxTxnRows / kMaxTxnWalBytes).
  void SetTxnCapsForTest(size_t rows, size_t wal_bytes) {
    txn_row_cap_for_test_ = rows;
    txn_byte_cap_for_test_ = wal_bytes;
  }

 private:
  enum class Mode { kText, kBinary };

  // One text-framing line: buffers a request body up to END, or decodes
  // a command line; complete requests go to Serve.
  Outcome HandleTextLine(std::string_view line, std::string* out);
  // Dispatches a decoded request (or answers its decode error) and
  // appends the response in the framing the request arrived in.
  Outcome Serve(Result<Request>&& request, std::string* out);
  // The one dispatch point: every verb has exactly one handler.
  Response Dispatch(Request& request, Outcome* outcome);

  Response HandleDict(const Request& request);
  Response HandleLoad(Request& request);  // LOAD, LOADU32 (ROWS frames)
  Response HandleLoadSeg(const Request& request);
  Response HandleDrop(const Request& request);
  Response HandleSeal(const Request& request);
  Response HandleReset(const Request& request);
  Response HandleAttach(const Request& request);
  Response HandleStats(const Request& request);
  // INSERT/DELETE: validates the deltas against the loaded bag, then
  // buffers them in the open transaction or commits them as a one-bag
  // batch.
  Response HandleMutate(const Request& request);
  Response HandleCommit();
  // TWOBAG, PAIRWISE, GLOBAL, KWISE, WITNESS — one snapshot acquisition,
  // and the one place bag operands resolve.
  Response HandleQuery(const Request& request);

  // The delta commit: publishes the whole batch as ONE generation (and
  // one WAL record) when this session's seal lineage holds, or applies
  // it to the loaded bags otherwise ("staged") — all-or-nothing across
  // every bag either way (a failing delta in the last bag leaves every
  // bag untouched). `label` is the response prefix ("COMMIT",
  // "INSERT <name>"); its first token names the verb in error messages.
  Response CommitBatch(DeltaBatch batch, size_t rows, const std::string& label);

  // A new bag name's shape (not index-like) and uniqueness.
  Status CheckNewBagName(const std::string& name) const;
  // The loaded bag named `name`, or bag_names_.size() when none is.
  size_t FindBag(const std::string& name) const;
  // Registers a freshly loaded bag (name and bag in lockstep).
  void AddBag(std::string name, Bag bag);
  // Invalidates the incremental-seal linkage and the staged segment
  // reload source (any change that breaks "bags == previous seal").
  void ForgetSealLineage();
  // Closes the open transaction, discarding whatever it buffered.
  void EndTransaction();

  CollectionRegistry* registry_;
  ThreadPool* query_pool_;
  // The collection SEAL/RESET/queries act on; rebound by ATTACH/DETACH.
  std::shared_ptr<CollectionRegistry::Collection> collection_;

  // Interning state: lives for the whole session (RESET keeps it; RESET
  // HARD wipes it), so streamed u32 ids stay stable across re-seals.
  AttributeCatalog catalog_;
  std::shared_ptr<DictionarySet> dicts_ = std::make_shared<DictionarySet>();

  // Loaded, not-yet-sealed bags in LOAD order (the collection order). A
  // bag that shares its row store with a bag of last_sealed_ is unchanged
  // since that seal; every load or staged delta seals a new store.
  std::vector<std::string> bag_names_;
  std::vector<Bag> bags_;

  // Incremental-seal linkage: the last generation THIS session sealed or
  // published into the bound collection. Cleared by RESET and
  // ATTACH/DETACH.
  std::shared_ptr<const EngineSnapshot> last_sealed_;
  // The dictionary clone the last seal was built against, shared with
  // the next generation when nothing was interned in between (session
  // dictionaries only ever grow, so an unchanged total value count means
  // unchanged content). Null after canonical seals: the engine remapped
  // that clone's ids, so it no longer matches the session's id space.
  std::shared_ptr<DictionarySet> last_seal_dicts_;

  // When every loaded bag came from one LOADSEG (and nothing was loaded
  // or dropped since), the segment path SEAL registers as the
  // collection's lazy reload source; empty otherwise.
  std::string staged_seg_path_;

  // Open BEGIN/COMMIT transaction: INSERT/DELETE deltas buffer here and
  // publish as ONE atomic generation (and one WAL record) at COMMIT.
  // Structural commands are refused while open; RESET discards it.
  // Cumulative rows and WAL-encoded bytes are capped as blocks buffer
  // (kMaxTxnRows / kMaxTxnWalBytes in session.cc), so a transaction is
  // bounded in memory and always fits one WAL record.
  bool txn_active_ = false;
  DeltaBatch txn_batch_;
  size_t txn_rows_ = 0;
  size_t txn_wal_bytes_ = 0;
  // Test overrides for the transaction caps; 0 = use the built-ins.
  size_t txn_row_cap_for_test_ = 0;
  size_t txn_byte_cap_for_test_ = 0;

  // Framing state.
  Mode mode_ = Mode::kText;
  std::string inbuf_;  // HandleData's partial line / partial frame buffer

  // In-flight text request body: the opening command's tokens (empty
  // when no body is open) and the raw body lines so far.
  std::vector<std::string> body_header_;
  std::vector<std::string> body_lines_;
  size_t body_bytes_ = 0;       // bytes buffered in body_lines_
  bool body_overflow_ = false;  // block exceeded a body cap -> E_RANGE
};

}  // namespace bagc
