// Protocol conformance tests for the bagcd server: the ServerSession
// state machine driven in-process (grammar, error classes, session
// lifecycle, snapshot-swap semantics), the typed client helpers over a
// real socket, and — the anchor — the annotated transcript in
// docs/PROTOCOL.md replayed verbatim against a live server, so the
// documented wire format and the implementation cannot drift apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bag/bag_io.h"
#include "core/pairwise.h"
#include "core/two_bag.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "server/bagcd_server.h"
#include "server/client.h"
#include "server/engine_snapshot.h"
#include "server/protocol.h"
#include "server/session.h"
#include "tuple/segment.h"
#include "util/random.h"
#include "witness_golden.h"

#ifndef BAGC_REPO_ROOT
#define BAGC_REPO_ROOT "."
#endif

namespace bagc {
namespace {

std::vector<std::string> Feed(ServerSession* session, const std::string& script) {
  return session->HandleScript(script);
}

// A tiny consistent two-bag script: dictionaries, one u32-streamed bag,
// one text bag, seal.
constexpr const char* kSetupScript = R"(DICT item 3
apple
banana
cherry
END
DICT store 2
downtown
uptown
END
LOADU32 orders item store
0 0 : 2
1 1 : 1
END
LOAD stock item store
apple downtown : 2
banana uptown : 1
END
SEAL
)";

TEST(ServerSessionTest, LifecycleAndQueries) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out = Feed(&session, kSetupScript);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], "OK DICT item 3");
  EXPECT_EQ(out[1], "OK DICT store 2");
  EXPECT_EQ(out[2], "OK LOADU32 orders 2 rows");
  EXPECT_EQ(out[3], "OK LOAD stock 2 rows");
  EXPECT_EQ(out[4], "OK SEAL 2 bags");

  out = Feed(&session, "TWOBAG orders stock\nPAIRWISE\nGLOBAL\nKWISE 2\n");
  ASSERT_EQ(out.size(), 4u);
  for (const std::string& line : out) EXPECT_EQ(line, "OK CONSISTENT");

  out = Feed(&session, "WITNESS 0 1 MINIMAL\n");
  ASSERT_GE(out.size(), 3u);
  EXPECT_EQ(out.front(), "OK WITNESS 2");
  EXPECT_EQ(out.back(), kWireEnd);
}

TEST(ServerSessionTest, ErrorClasses) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);

  // Query before any seal: state error.
  std::vector<std::string> out = Feed(&session, "TWOBAG 0 1\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];

  // Unknown command: parse error.
  out = Feed(&session, "FROB\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];

  Feed(&session, kSetupScript);

  // Re-shipping a dictionary: state error (id spaces do not merge).
  out = Feed(&session, "DICT item 1\npear\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];

  // Streaming an id the dictionary never issued: range error.
  out = Feed(&session, "LOADU32 bad item store\n9 0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_RANGE", 0), 0u) << out[0];

  // Streaming u32 rows for an attribute with no dictionary: state error.
  out = Feed(&session, "LOADU32 bad2 nodict\n0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];

  // Duplicate bag name: state error; all-digit name: parse error.
  out = Feed(&session, "LOADU32 orders item store\n0 0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
  out = Feed(&session, "LOADU32 123 item store\n0 0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];

  // A duplicate row is rejected whichever occurrence carries multiplicity
  // 0: LOADU32 answers the identical line, LOAD the same class (its
  // message quotes the offending line).
  std::vector<std::string> u32_zero_last =
      Feed(&session, "LOADU32 dupz item store\n0 0 : 5\n0 0 : 0\nEND\n");
  std::vector<std::string> u32_zero_first =
      Feed(&session, "LOADU32 dupz item store\n0 0 : 0\n0 0 : 5\nEND\n");
  ASSERT_EQ(u32_zero_last.size(), 1u);
  EXPECT_EQ(u32_zero_last[0].rfind("ERR E_PARSE", 0), 0u) << u32_zero_last[0];
  EXPECT_EQ(u32_zero_first, u32_zero_last);
  std::vector<std::string> text_zero_last =
      Feed(&session, "LOAD dupz item store\napple uptown : 5\napple uptown : 0\nEND\n");
  std::vector<std::string> text_zero_first =
      Feed(&session, "LOAD dupz item store\napple uptown : 0\napple uptown : 5\nEND\n");
  ASSERT_EQ(text_zero_last.size(), 1u);
  ASSERT_EQ(text_zero_first.size(), 1u);
  EXPECT_EQ(text_zero_last[0].rfind("ERR E_PARSE duplicate tuple", 0), 0u)
      << text_zero_last[0];
  EXPECT_EQ(text_zero_first[0].rfind("ERR E_PARSE duplicate tuple", 0), 0u)
      << text_zero_first[0];

  // Out-of-range bag reference and unknown name on a sealed engine.
  out = Feed(&session, "TWOBAG 0 7\nTWOBAG orders nosuch\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR E_RANGE", 0), 0u) << out[0];
  EXPECT_EQ(out[1].rfind("ERR E_STATE", 0), 0u) << out[1];

  // An absurd seal-time worker count is rejected, not attempted (a
  // thread-spawn failure would terminate the daemon for every client).
  out = Feed(&session, "SEAL THREADS 10000000\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_RANGE", 0), 0u) << out[0];

  // A body command with a bad header still consumes its body: the row
  // lines must NOT be interpreted as commands.
  out = Feed(&session, "DICT toofew\nvalue1\nvalue2\nEND\nSTATS\n");
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];
  EXPECT_EQ(out[1], "OK STATS");
  // A value token holding a '\r' is one token to the line framing but no
  // value the wire can carry: refused, its body consumed through END, and
  // no dictionary installed.
  out = Feed(&session, "DICT crlf 2\nx\ny\rz\nEND\nSTATS\n");
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];
  EXPECT_EQ(out[1], "OK STATS");
  out = Feed(&session, "DICT crlf 2\nx\ny\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK DICT crlf 2");
}

TEST(ServerSessionTest, ResetKeepsDictionariesHardWipes) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);

  std::vector<std::string> out = Feed(&session, "RESET\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK RESET");
  EXPECT_EQ(registry.Peek(registry.Default().get()), nullptr);

  // Dictionaries survived: the same ids stream again without DICT.
  out = Feed(&session, "LOADU32 orders item store\n2 1 : 5\nEND\nSEAL\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK LOADU32 orders 1 rows");
  EXPECT_EQ(out[1], "OK SEAL 1 bags");

  // HARD also wipes the dictionaries: streaming now needs a fresh DICT.
  out = Feed(&session, "RESET HARD\nLOADU32 orders item store\n0 0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK RESET HARD");
  EXPECT_EQ(out[1].rfind("ERR E_STATE", 0), 0u) << out[1];
}

TEST(ServerSessionTest, SnapshotSwapIsSharedAcrossSessions) {
  CollectionRegistry registry;
  ServerSession producer(&registry, nullptr);
  ServerSession consumer(&registry, nullptr);

  Feed(&producer, kSetupScript);
  std::shared_ptr<const EngineSnapshot> first = registry.Peek(registry.Default().get());
  ASSERT_NE(first, nullptr);

  // The other session queries the producer's snapshot.
  std::vector<std::string> out = Feed(&consumer, "TWOBAG orders stock\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK CONSISTENT");

  // An in-flight holder keeps the old generation alive across a re-SEAL;
  // the registry hands out the new one.
  Feed(&producer, "SEAL\n");
  std::shared_ptr<const EngineSnapshot> second = registry.Peek(registry.Default().get());
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first.get(), second.get());
  EXPECT_LT(first->seq(), second->seq());
  EXPECT_EQ(first->num_bags(), 2u);  // old snapshot still fully usable
  EXPECT_TRUE(*first->TwoBag(0, 1));

  // RESET unpublishes for everyone.
  Feed(&producer, "RESET\n");
  out = Feed(&consumer, "PAIRWISE\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
}

TEST(ServerSessionTest, CanonicalSealKeepsSessionIdsStable) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  // Ship a deliberately unsorted dictionary: canonicalization would
  // reorder it, which must not disturb the session's id space.
  std::vector<std::string> out = Feed(&session,
                                     "DICT item 3\nzebra\nmango\napple\nEND\n"
                                     "LOADU32 r item\n0 : 4\n2 : 1\nEND\n"
                                     "LOADU32 s item\n0 : 4\n2 : 1\nEND\n"
                                     "SEAL CANONICAL\n");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[3], "OK SEAL 2 bags");

  // The witness decodes to the external values the session ids named —
  // and the canonical snapshot serializes rows in sorted external order.
  out = Feed(&session, "WITNESS r s\n");
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], "OK WITNESS 2");
  EXPECT_EQ(out[1], "bag item");
  EXPECT_EQ(out[2], "apple : 1");
  EXPECT_EQ(out[3], "zebra : 4");
  EXPECT_EQ(out[4], "end");
  EXPECT_EQ(out[5], kWireEnd);

  // Session ids still refer to the shipped order (0 = zebra): stream
  // them again after the canonical seal and the verdicts line up.
  out = Feed(&session, "RESET\nLOADU32 r item\n0 : 1\nEND\n"
                      "LOADU32 s item\n1 : 1\nEND\nSEAL\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.back(), "OK INCONSISTENT");  // zebra-bag vs mango-bag
}

TEST(ServerSessionTest, StatsShape) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  Feed(&session, "TWOBAG 0 1\n");
  std::vector<std::string> out = Feed(&session, "STATS\n");
  ASSERT_EQ(out.size(), 19u);
  EXPECT_EQ(out.front(), "OK STATS");
  EXPECT_EQ(out.back(), kWireEnd);
  EXPECT_EQ(out[1], "proto 1");
  EXPECT_EQ(out[2], "sessions 1");
  EXPECT_EQ(out[3], "seals 1");
  EXPECT_EQ(out[5], "queries 1");
  EXPECT_EQ(out[7], "bags 2");
  // Registry keys append after the protocol-v1 ten so old readers that
  // index by position keep working.
  EXPECT_EQ(out[11], "collections 1");
  EXPECT_EQ(out[12], "evictions 0");
  EXPECT_EQ(out[13], "deltas 0");
  EXPECT_EQ(out[14].rfind("sealed_bytes ", 0), 0u);
  EXPECT_EQ(out[15], "wal_records 0");
  EXPECT_EQ(out[16], "wal_bytes 0");
  EXPECT_EQ(out[17], "replayed_generations 0");

  // Per-collection STATS: registry accounting for one tenant.
  out = Feed(&session, "STATS default\n");
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out[1], "resident 1");
  EXPECT_EQ(out[2], "reloadable 0");
  EXPECT_EQ(out[4], "generation 1");
  out = Feed(&session, "STATS nosuch\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
}

TEST(ServerSessionTest, AttachBindsItsOwnGenerationChain) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);  // seals into "default"

  // Rebinding to a fresh collection: queries find no engine there while
  // "default" still serves other sessions.
  std::vector<std::string> out = Feed(&session, "ATTACH tenant_a\nPAIRWISE\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK ATTACH tenant_a");
  EXPECT_EQ(out[1].rfind("ERR E_STATE", 0), 0u) << out[1];
  ServerSession other(&registry, nullptr);
  out = Feed(&other, "TWOBAG orders stock\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK CONSISTENT");

  // The loaded bags are session-local: the same session seals them into
  // the new chain, whose generation numbering starts at 1 again.
  out = Feed(&session, "SEAL\nTWOBAG orders stock\nDETACH\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "OK SEAL 2 bags");
  EXPECT_EQ(out[1], "OK CONSISTENT");
  EXPECT_EQ(out[2], "OK DETACH");
  EXPECT_EQ(registry.num_collections(), 2u);

  // All-digit and malformed names are refused at parse time.
  out = Feed(&session, "ATTACH 123\nATTACH\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];
  EXPECT_EQ(out[1].rfind("ERR E_PARSE", 0), 0u) << out[1];

  // The admission cap counts "default": a third name is refused.
  CollectionRegistry::Options capped;
  capped.max_collections = 2;
  CollectionRegistry small(capped);
  ServerSession capped_session(&small, nullptr);
  out = Feed(&capped_session, "ATTACH a\nATTACH b\nATTACH a\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "OK ATTACH a");
  EXPECT_EQ(out[1].rfind("ERR E_STATE", 0), 0u) << out[1];
  EXPECT_EQ(out[2], "OK ATTACH a");  // re-attach to an existing name is free
}

TEST(ServerSessionTest, DropUnloadsOneStagedBag) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);

  // DROP + re-LOAD the same name, then re-seal: the replacement rows are
  // what the new generation serves.
  std::vector<std::string> out = Feed(&session,
                                     "DROP stock\n"
                                     "LOAD stock item store\n"
                                     "apple downtown : 99\n"
                                     "END\n"
                                     "SEAL FULL\n"
                                     "TWOBAG orders stock\n");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "OK DROP stock");
  EXPECT_EQ(out[1], "OK LOAD stock 1 rows");
  EXPECT_EQ(out[2], "OK SEAL 2 bags");
  EXPECT_EQ(out[3], "OK INCONSISTENT");

  out = Feed(&session, "DROP nosuch\nDROP\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
  EXPECT_EQ(out[1].rfind("ERR E_PARSE", 0), 0u) << out[1];
}

TEST(ServerSessionTest, IncrementalResealReusesUntouchedBags) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  uint64_t full_fills =
      registry.Peek(registry.Default().get())->marginal_fills();
  EXPECT_GT(full_fills, 0u);

  // Touch one of the two bags; the plain re-seal reuses the other bag's
  // sealed marginals, so it fills strictly fewer than the full seal did.
  std::vector<std::string> out = Feed(&session,
                                     "DROP stock\n"
                                     "LOAD stock item store\n"
                                     "apple downtown : 2\n"
                                     "banana uptown : 1\n"
                                     "END\n"
                                     "SEAL\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], "OK SEAL 2 bags 1 reused");
  std::shared_ptr<const EngineSnapshot> incremental =
      registry.Peek(registry.Default().get());
  EXPECT_LT(incremental->marginal_fills(), full_fills);

  // Same bags re-sealed with FULL: identical verdicts, no reuse suffix.
  out = Feed(&session, "SEAL FULL\nTWOBAG orders stock\nPAIRWISE\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "OK SEAL 2 bags");
  EXPECT_EQ(out[1], "OK CONSISTENT");
  EXPECT_EQ(out[2], "OK CONSISTENT");

  // Witness rows from the incremental generation match the full one:
  // reuse shares state, never changes answers.
  ServerSession fresh(&registry, nullptr);
  std::vector<std::string> w_full =
      Feed(&fresh, "WITNESS orders stock MINIMAL\n");
  Feed(&session,
       "DROP orders\nLOADU32 orders item store\n0 0 : 2\n1 1 : 1\nEND\nSEAL\n");
  std::vector<std::string> w_incr =
      Feed(&fresh, "WITNESS orders stock MINIMAL\n");
  EXPECT_EQ(w_full, w_incr);

  // A canonical seal refuses reuse on both sides of the boundary.
  out = Feed(&session, "SEAL CANONICAL\nSEAL\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK SEAL 2 bags");
  EXPECT_EQ(out[1], "OK SEAL 2 bags");

  // Empty bags have no row store: re-loading the last bag with no rows
  // counts as changed against a generation whose bag had rows, but as
  // unchanged against one that held it empty over the same schema — its
  // marginals are empty whatever was loaded.
  const std::string reload_empty = "DROP orders\nLOADU32 orders item store\nEND\nSEAL\n";
  out = Feed(&session, reload_empty);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], "OK SEAL 2 bags 1 reused");
  uint64_t empty_fills = registry.Peek(registry.Default().get())->marginal_fills();
  out = Feed(&session, reload_empty);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], "OK SEAL 2 bags 2 reused");
  EXPECT_EQ(registry.Peek(registry.Default().get())->marginal_fills(), 0u);
  EXPECT_GT(empty_fills, 0u);
  out = Feed(&session, "PAIRWISE\n");
  EXPECT_EQ(out, std::vector<std::string>{"OK INCONSISTENT 0 1"});
}

TEST(ServerSessionTest, InsertDeltaPublishesIncrementally) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);  // orders == stock, consistent

  // A one-bag INSERT after a seal publishes the next generation directly
  // from the previous one — the untouched bag rides along ("1 reused"),
  // and the verdict flips because stock now carries an extra row.
  std::vector<std::string> out = Feed(&session,
                                     "INSERT stock item store\n"
                                     "2 0 : 5\n"  // cherry downtown x5
                                     "END\n"
                                     "TWOBAG orders stock\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK INSERT stock 1 rows 2 bags 1 reused");
  EXPECT_EQ(out[1], "OK INCONSISTENT");

  // Exactly the mutated bag's shared-marginal slot refilled: a delta
  // generation's fill counter is the dirty-slot count, not a re-seal.
  std::shared_ptr<const EngineSnapshot> published =
      registry.Peek(registry.Default().get());
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->marginal_fills(), 1u);

  // DELETE of the same rows restores the original bag: verdicts return,
  // and the generation counter shows two extra publishes.
  out = Feed(&session,
             "DELETE stock item store\n"
             "2 0 : 5\n"
             "END\n"
             "TWOBAG orders stock\n"
             "STATS default\n");
  ASSERT_GE(out.size(), 4u);
  EXPECT_EQ(out[0], "OK DELETE stock 1 rows 2 bags 1 reused");
  EXPECT_EQ(out[1], "OK CONSISTENT");
  EXPECT_EQ(out[6], "generation 3");

  // The global counter saw both commits.
  out = Feed(&session, "STATS\n");
  ASSERT_EQ(out.size(), 19u);
  EXPECT_EQ(out[13], "deltas 2");

  // Lineage survives a delta publish: the next plain SEAL still reuses
  // every bag (the session copy tracked the published generation).
  out = Feed(&session, "SEAL\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK SEAL 2 bags 2 reused");
}

TEST(ServerSessionTest, DeleteBelowZeroLeavesGenerationAndBagIntact) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);

  // Deleting more copies than the bag holds: E_RANGE, all-or-nothing —
  // no generation publishes and the served rows are untouched, so the
  // verdict is still the pre-delta one.
  std::vector<std::string> out = Feed(&session,
                                     "DELETE stock item store\n"
                                     "0 0 : 99\n"
                                     "END\n"
                                     "TWOBAG orders stock\n"
                                     "STATS default\n");
  ASSERT_GE(out.size(), 4u);
  EXPECT_EQ(out[0].rfind("ERR E_RANGE", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("below zero"), std::string::npos) << out[0];
  EXPECT_EQ(out[1], "OK CONSISTENT");
  EXPECT_EQ(out[6], "generation 1");

  // The failed delta corrupted nothing: a valid one on the same bag
  // commits cleanly right after.
  out = Feed(&session, "INSERT stock item store\n2 1 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK INSERT stock 1 rows 2 bags 1 reused");

  // Same all-or-nothing on the staged path (no seal lineage): a below-
  // zero DELETE against a freshly loaded bag leaves it loadable and
  // sealable with its original rows.
  ServerSession staged(&registry, nullptr);
  out = Feed(&staged,
             "ATTACH tenant_staged\n"
             "DICT item 1\napple\nEND\n"
             "LOADU32 r item\n0 : 2\nEND\n"
             "DELETE r item\n0 : 3\nEND\n"
             "LOADU32 s item\n0 : 2\nEND\n"
             "SEAL\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[3].rfind("ERR E_RANGE", 0), 0u) << out[3];
  EXPECT_EQ(out[5], "OK SEAL 2 bags");
  EXPECT_EQ(out[6], "OK CONSISTENT");  // r kept both copies
}

TEST(ServerSessionTest, MutateBeforeSealStagesIntoTheLoadedBag) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);

  // No seal yet: the delta lands on the loaded bag only ("staged") and
  // the following SEAL serves the mutated rows.
  std::vector<std::string> out = Feed(&session,
                                     "DICT item 2\napple\nbanana\nEND\n"
                                     "LOADU32 r item\n0 : 1\nEND\n"
                                     "LOADU32 s item\n0 : 1\n1 : 1\nEND\n"
                                     "INSERT r item\n1 : 1\nEND\n"
                                     "SEAL\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[3], "OK INSERT r 1 rows staged");
  EXPECT_EQ(out[4], "OK SEAL 2 bags");
  EXPECT_EQ(out[5], "OK CONSISTENT");  // r grew to match s

  // A delta names attributes exactly as LOADU32 did; anything else is a
  // parse error before any row is read.
  out = Feed(&session, "INSERT r wrong\n0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];

  // Mutating a bag this session never loaded (including stream-only
  // names that exist solely in the sealed generation): E_STATE.
  out = Feed(&session, "DELETE nosuch item\n0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("not loaded"), std::string::npos) << out[0];

  // An id the dictionary never issued: E_RANGE, same wording as LOADU32.
  out = Feed(&session, "INSERT r item\n9 : 1\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_RANGE", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("never issued"), std::string::npos) << out[0];

  // Interning after the seal (dictionary growth) demotes the next delta
  // to the staged path: the sealed generation's dictionary clone no
  // longer matches the session's.
  out = Feed(&session,
             "DICT extra 1\nx\nEND\n"
             "INSERT r item\n0 : 1\nEND\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1], "OK INSERT r 1 rows staged");
}

TEST(ServerSessionTest, MutateFramesMirrorTheTextGrammar) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  std::string raw;
  session.HandleData("UPGRADE BINARY\n", &raw);
  ASSERT_TRUE(session.binary_mode());

  auto frame = [](uint8_t opcode, const std::string& payload) {
    std::string f;
    WireAppendFrame(&f, opcode, payload);
    return f;
  };
  auto read_frames = [](const std::string& out) {
    std::vector<std::pair<uint8_t, std::string>> frames;
    size_t pos = 0;
    while (pos + kWireFrameHeaderBytes <= out.size()) {
      WireCursor header(
          std::string_view(out).substr(pos, kWireFrameHeaderBytes));
      uint32_t len = 0;
      uint8_t opcode = 0;
      EXPECT_TRUE(header.U32(&len) && header.U8(&opcode));
      frames.emplace_back(opcode, out.substr(pos + kWireFrameHeaderBytes, len));
      pos += kWireFrameHeaderBytes + len;
    }
    EXPECT_EQ(pos, out.size());
    return frames;
  };

  // INSERT frame, ROWS grammar: name, ncols, column names, nrows, then
  // fixed-width rows of ncols u32 ids + a u64 count.
  std::string payload;
  WireAppendString(&payload, "stock");
  WireAppendU32(&payload, 2);
  WireAppendString(&payload, "item");
  WireAppendString(&payload, "store");
  WireAppendU64(&payload, 1);
  WireAppendU32(&payload, 2);  // cherry
  WireAppendU32(&payload, 0);  // downtown
  WireAppendU64(&payload, 5);
  raw.clear();
  session.HandleData(frame(kFrameInsert, payload), &raw);
  auto frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameOk);
  EXPECT_EQ(frames[0].second, "INSERT stock 1 rows 2 bags 1 reused");

  // The DELETE frame undoes it; verdicts (queried over frames too) agree
  // with the text session's view of the same collection.
  payload.clear();
  WireAppendString(&payload, "stock");
  WireAppendU32(&payload, 2);
  WireAppendString(&payload, "item");
  WireAppendString(&payload, "store");
  WireAppendU64(&payload, 1);
  WireAppendU32(&payload, 2);
  WireAppendU32(&payload, 0);
  WireAppendU64(&payload, 5);
  raw.clear();
  session.HandleData(frame(kFrameDelete, payload) + frame(kFramePairwise, ""),
                     &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].first, kFrameOk);
  EXPECT_EQ(frames[0].second, "DELETE stock 1 rows 2 bags 1 reused");
  EXPECT_EQ(frames[1].first, kFrameVerdict);
  EXPECT_EQ(static_cast<uint8_t>(frames[1].second[0]), 1u);  // consistent

  // A frame whose declared row count disagrees with its byte length is
  // refused whole — no partial delta is read.
  payload.clear();
  WireAppendString(&payload, "stock");
  WireAppendU32(&payload, 2);
  WireAppendString(&payload, "item");
  WireAppendString(&payload, "store");
  WireAppendU64(&payload, 2);  // claims two rows, carries one
  WireAppendU32(&payload, 0);
  WireAppendU32(&payload, 0);
  WireAppendU64(&payload, 1);
  raw.clear();
  session.HandleData(frame(kFrameInsert, payload), &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameErr);
  EXPECT_EQ(frames[0].second[0], static_cast<char>(WireErrorTag(WireError::kParse)));

  // In binary mode the text body form is refused by verb name.
  raw.clear();
  session.HandleData(frame(kFrameCmd, "INSERT stock item store"), &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameErr);
  EXPECT_NE(frames[0].second.find("INSERT"), std::string::npos);
}

TEST(ServerSessionTest, BinaryModeRules) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::string out;
  ASSERT_EQ(session.HandleData("HELLO\nUPGRADE BINARY\n", &out),
            ServerSession::Outcome::kContinue);
  EXPECT_EQ(out, "OK HELLO proto 1 frames 1\nOK UPGRADE BINARY\n");
  EXPECT_TRUE(session.binary_mode());

  auto frame = [](uint8_t opcode, const std::string& payload) {
    std::string f;
    WireAppendFrame(&f, opcode, payload);
    return f;
  };

  // A second UPGRADE and a text body command are state errors in binary
  // mode (body blocks have no line framing to ride on).
  out.clear();
  session.HandleData(
      frame(kFrameCmd, "UPGRADE BINARY") + frame(kFrameCmd, "DICT item 1"),
      &out);
  size_t pos = 0;
  int errs = 0;
  while (pos + kWireFrameHeaderBytes <= out.size()) {
    WireCursor header(std::string_view(out).substr(pos, kWireFrameHeaderBytes));
    uint32_t len = 0;
    uint8_t opcode = 0;
    ASSERT_TRUE(header.U32(&len) && header.U8(&opcode));
    EXPECT_EQ(opcode, kFrameErr);
    Result<WireError> err = WireErrorFromTag(
        static_cast<uint8_t>(out[pos + kWireFrameHeaderBytes]));
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(*err, WireError::kState);
    ++errs;
    pos += kWireFrameHeaderBytes + len;
  }
  EXPECT_EQ(pos, out.size());
  EXPECT_EQ(errs, 2);

  // CMD TEXT drops back to lines mid-buffer: the trailing bytes of the
  // SAME HandleData call already parse as a text line, and TEXT in text
  // mode is an idempotent OK.
  out.clear();
  session.HandleData(frame(kFrameCmd, "TEXT") + std::string("TEXT\n"), &out);
  EXPECT_FALSE(session.binary_mode());
  ASSERT_GE(out.size(), 8u);
  EXPECT_EQ(out.substr(out.size() - 8), "OK TEXT\n");
}

TEST(ServerSessionTest, BinaryFrameSplitAcrossReadsParsesOnce) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::string out;
  session.HandleData("UPGRADE BINARY\n", &out);
  ASSERT_TRUE(session.binary_mode());

  // One CMD frame delivered a byte at a time: a frame boundary owes
  // nothing to read() boundaries. No response may appear until the final
  // payload byte lands, and then exactly one response frame must.
  std::string f;
  WireAppendFrame(&f, kFrameCmd, "STATS");
  out.clear();
  for (size_t i = 0; i + 1 < f.size(); ++i) {
    ASSERT_EQ(session.HandleData(std::string_view(&f[i], 1), &out),
              ServerSession::Outcome::kContinue);
    EXPECT_TRUE(out.empty()) << "responded after " << (i + 1) << " of "
                             << f.size() << " bytes";
  }
  session.HandleData(std::string_view(&f.back(), 1), &out);
  ASSERT_GE(out.size(), kWireFrameHeaderBytes);
  EXPECT_EQ(static_cast<uint8_t>(out[4]), kFrameStats);

  // Two frames glued into one read both answer; a trailing partial
  // header stays buffered for the next read.
  std::string two = f + f;
  std::string partial;
  WireAppendFrame(&partial, kFrameCmd, "STATS");
  two += partial.substr(0, 3);
  out.clear();
  ASSERT_EQ(session.HandleData(two, &out), ServerSession::Outcome::kContinue);
  size_t frames = 0;
  size_t pos = 0;
  while (pos + kWireFrameHeaderBytes <= out.size()) {
    WireCursor header(std::string_view(out).substr(pos, kWireFrameHeaderBytes));
    uint32_t len = 0;
    uint8_t opcode = 0;
    ASSERT_TRUE(header.U32(&len) && header.U8(&opcode));
    EXPECT_EQ(opcode, kFrameStats);
    ++frames;
    pos += kWireFrameHeaderBytes + len;
  }
  EXPECT_EQ(frames, 2u);
  out.clear();
  session.HandleData(partial.substr(3), &out);
  ASSERT_GE(out.size(), kWireFrameHeaderBytes);
  EXPECT_EQ(static_cast<uint8_t>(out[4]), kFrameStats);
}

TEST(ServerSessionTest, OversizedFramePayloadClosesTheConnection) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::string out;
  session.HandleData("UPGRADE BINARY\n", &out);
  ASSERT_TRUE(session.binary_mode());

  // A header that *claims* an over-limit payload is refused from the
  // header alone — the session must not buffer toward a 256 MiB+1
  // allocation before noticing, and no resync is possible mid-frame.
  std::string header;
  WireAppendU32(&header, static_cast<uint32_t>(kWireMaxFramePayload) + 1);
  header.push_back(static_cast<char>(kFrameCmd));
  out.clear();
  EXPECT_EQ(session.HandleData(header, &out),
            ServerSession::Outcome::kCloseConnection);
  ASSERT_GE(out.size(), kWireFrameHeaderBytes + 1u);
  EXPECT_EQ(static_cast<uint8_t>(out[4]), kFrameErr);
  Result<WireError> err = WireErrorFromTag(
      static_cast<uint8_t>(out[kWireFrameHeaderBytes]));
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(*err, WireError::kRange);
}

TEST(ServerSessionTest, OverlongTextLineClosesEvenWhenComplete) {
  constexpr size_t kMaxLineBytes = 1 << 20;  // mirrors session.cc

  // A complete over-long line (newline included in the same read) is as
  // abusive as a partial one; before the fix it slipped past the cap
  // because the ceiling was only checked while the newline was missing.
  {
    CollectionRegistry registry;
    ServerSession session(&registry, nullptr);
    std::string out;
    std::string line(kMaxLineBytes + 1, 'a');
    line += '\n';
    EXPECT_EQ(session.HandleData(line, &out),
              ServerSession::Outcome::kCloseConnection);
    EXPECT_EQ(out.rfind("ERR E_RANGE", 0), 0u) << out.substr(0, 40);
    EXPECT_NE(out.find("input line exceeds"), std::string::npos);
  }

  // Still-growing line with no newline yet: refused at the same ceiling.
  {
    CollectionRegistry registry;
    ServerSession session(&registry, nullptr);
    std::string out;
    std::string partial(kMaxLineBytes + 1, 'b');
    EXPECT_EQ(session.HandleData(partial, &out),
              ServerSession::Outcome::kCloseConnection);
    EXPECT_EQ(out.rfind("ERR E_RANGE", 0), 0u) << out.substr(0, 40);
  }

  // Exactly at the ceiling: parses as a (bad) command, session lives.
  {
    CollectionRegistry registry;
    ServerSession session(&registry, nullptr);
    std::string out;
    std::string line(kMaxLineBytes, 'c');
    line += '\n';
    EXPECT_EQ(session.HandleData(line, &out),
              ServerSession::Outcome::kContinue);
    EXPECT_EQ(out.rfind("ERR E_PARSE", 0), 0u) << out.substr(0, 40);
  }
}

// ---- Socket-level tests ----------------------------------------------------

TEST(BagcdServerTest, TypedClientHelpersMatchSingleShotCore) {
  // Build a string-valued collection locally.
  AttributeCatalog catalog;
  auto dicts = std::make_shared<DictionarySet>();
  std::string text =
      "bag item store\napple downtown : 2\nbanana uptown : 1\nend\n"
      "bag store region\ndowntown north : 3\nuptown north : 1\nend\n";
  Result<std::vector<Bag>> bags = ParseCollection(text, &catalog, dicts.get());
  ASSERT_TRUE(bags.ok()) << bags.status().ToString();

  Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<BagcdClient> client =
      BagcdClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client->banner(), kWireBanner);

  for (const Bag& bag : *bags) {
    ASSERT_TRUE(client->ShipDictionaries(*dicts, bag.schema(), catalog).ok());
  }
  ASSERT_TRUE(client->LoadBagU32("sales", (*bags)[0], catalog).ok());
  ASSERT_TRUE(client->LoadBagU32("stores", (*bags)[1], catalog).ok());
  Result<size_t> sealed = client->Seal();
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  EXPECT_EQ(*sealed, 2u);

  // Single-shot reference answers.
  bool expect_two = *AreConsistent((*bags)[0], (*bags)[1]);
  EXPECT_EQ(*client->TwoBag(0, 1), expect_two);
  Result<std::optional<std::pair<size_t, size_t>>> pairwise = client->Pairwise();
  ASSERT_TRUE(pairwise.ok());
  EXPECT_EQ(!pairwise->has_value(), expect_two);

  Result<std::optional<std::vector<std::string>>> witness =
      client->Witness(0, 1, /*minimal=*/true);
  ASSERT_TRUE(witness.ok()) << witness.status().ToString();
  if (expect_two) {
    ASSERT_TRUE(witness->has_value());
    std::optional<Bag> reference = *FindMinimalWitness((*bags)[0], (*bags)[1]);
    ASSERT_TRUE(reference.has_value());
    // The wire text must decode to exactly the single-shot witness.
    std::string block;
    for (const std::string& line : **witness) block += line + "\n";
    AttributeCatalog reparse_catalog = catalog;
    size_t pos = 0;
    std::vector<std::string> lines;
    std::istringstream iss(block);
    std::string line;
    while (std::getline(iss, line)) lines.push_back(line);
    Result<Bag> decoded = ParseBag(lines, &pos, &reparse_catalog, dicts.get());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, *reference);
  }
  (*server)->Shutdown();
}

// One session that negotiates frames mid-stream (text HELLO/UPGRADE ->
// binary DICT/ROWS/queries -> back to text for STATS) must be
// indistinguishable — verdicts, witness rows and multiplicities, STATS —
// from a session that stays in the text framing throughout. Each run
// gets its own server so the registry counters line up byte-for-byte.
TEST(BagcdServerTest, MixedModeSessionMatchesPureTextSession) {
  AttributeCatalog catalog;
  auto dicts = std::make_shared<DictionarySet>();
  std::string text =
      "bag item store\napple downtown : 2\nbanana uptown : 1\n"
      "cherry uptown : 5\nend\n"
      "bag store region\ndowntown north : 2\nuptown north : 6\nend\n";
  Result<std::vector<Bag>> bags = ParseCollection(text, &catalog, dicts.get());
  ASSERT_TRUE(bags.ok()) << bags.status().ToString();

  struct Run {
    std::vector<std::string> verdicts;  // rendered query response lines
    std::vector<std::string> witness;   // witness bag block lines
    std::vector<std::string> stats;     // STATS response lines
  };
  auto run_session = [&](bool mixed) -> Run {
    Run r;
    Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    Result<BagcdClient> client =
        BagcdClient::Connect("127.0.0.1", (*server)->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    if (mixed) {
      Result<std::pair<int, int>> hello = client->Hello();
      EXPECT_TRUE(hello.ok()) << hello.status().ToString();
      EXPECT_EQ(hello->first, kWireProtocolVersion);
      EXPECT_EQ(hello->second, kWireFrameVersion);
      EXPECT_TRUE(client->UpgradeBinary().ok());
      EXPECT_TRUE(client->binary_mode());
    }
    // Dictionaries and rows travel as DICT/ROWS frames when mixed, as
    // text blocks otherwise — same helper calls either way.
    for (const Bag& bag : *bags) {
      EXPECT_TRUE(client->ShipDictionaries(*dicts, bag.schema(), catalog).ok());
    }
    EXPECT_TRUE(client->LoadBagU32("sales", (*bags)[0], catalog).ok());
    EXPECT_TRUE(client->LoadBagU32("stores", (*bags)[1], catalog).ok());
    Result<size_t> sealed = client->Seal();
    EXPECT_TRUE(sealed.ok()) << sealed.status().ToString();
    // Command() re-renders binary responses as the exact text lines, so
    // the two runs compare byte-for-byte.
    for (const char* query :
         {"TWOBAG sales stores", "PAIRWISE", "GLOBAL", "KWISE 2"}) {
      Result<std::vector<std::string>> lines = client->Command(query);
      EXPECT_TRUE(lines.ok()) << query << ": " << lines.status().ToString();
      if (lines.ok()) {
        for (const std::string& line : *lines) r.verdicts.push_back(line);
      }
    }
    Result<std::optional<std::vector<std::string>>> witness =
        client->Witness(0, 1, /*minimal=*/true);
    EXPECT_TRUE(witness.ok()) << witness.status().ToString();
    if (witness.ok() && witness->has_value()) r.witness = **witness;
    if (mixed) {
      EXPECT_TRUE(client->DowngradeText().ok());
      EXPECT_FALSE(client->binary_mode());
    }
    Result<std::vector<std::string>> stats = client->Command("STATS");
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.ok()) r.stats = *stats;
    (*server)->Shutdown();
    return r;
  };

  Run text_run = run_session(/*mixed=*/false);
  Run mixed_run = run_session(/*mixed=*/true);
  EXPECT_EQ(text_run.verdicts, mixed_run.verdicts);
  ASSERT_FALSE(text_run.witness.empty());
  EXPECT_EQ(text_run.witness, mixed_run.witness);  // rows AND multiplicities
  EXPECT_EQ(text_run.stats, mixed_run.stats);
}

TEST(BagcdServerTest, ProtocolDocTranscriptReplaysVerbatim) {
  std::ifstream in(std::string(BAGC_REPO_ROOT) + "/docs/PROTOCOL.md");
  ASSERT_TRUE(in.good()) << "docs/PROTOCOL.md not found under " << BAGC_REPO_ROOT;
  std::stringstream text;
  text << in.rdbuf();

  Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<size_t> replayed =
      ReplayTranscript("127.0.0.1", (*server)->port(), text.str());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GE(*replayed, 1u);
  (*server)->Shutdown();
}

// A session that has said OK BYE is never counted: a client that
// reconnects the moment it reads QUIT's reply reads `sessions 1` in the
// next connection's STATS — every time, not just usually.
TEST(BagcdServerTest, ReconnectAfterQuitCountsOneSession) {
  Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Result<BagcdClient> client = BagcdClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    Result<std::vector<std::string>> stats = client->Command("STATS");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_NE(std::find(stats->begin(), stats->end(), "sessions 1"), stats->end());
    Result<std::vector<std::string>> bye = client->Command("QUIT");
    ASSERT_TRUE(bye.ok()) << bye.status().ToString();
    EXPECT_EQ(bye->front(), "OK BYE");
  }
  (*server)->Shutdown();
}

TEST(BagcdServerTest, SurvivesClientsThatNeverReadTheirResponses) {
  Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  // Each rogue client floods commands and closes without reading a byte:
  // the server's response writes hit a dead peer (EPIPE after the RST) —
  // which must cost that connection only, never the process (SIGPIPE
  // would take down every session; reproduced before MSG_NOSIGNAL).
  for (int rogue = 0; rogue < 3; ++rogue) {
    Result<BagcdClient> client =
        BagcdClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 500; ++i) {
      if (!client->SendLine("STATS").ok()) break;  // server buffer filled: fine
    }
    // Destructor closes the socket with every response unread.
  }
  // The daemon must still serve a well-behaved client.
  Result<BagcdClient> survivor =
      BagcdClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  Result<std::vector<std::string>> stats = survivor->Command("STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->front(), "OK STATS");
  (*server)->Shutdown();
}

TEST(ServerSessionTest, TransactionCommitIsAtomicAcrossBags) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);

  // A COMMIT whose LAST bag's delta is invalid publishes nothing: the
  // orders insert was individually fine, but the stock delete
  // underflows, so neither bag — and no generation — changes.
  std::vector<std::string> out = Feed(&session,
                                      "BEGIN\n"
                                      "INSERT orders item store\n2 0 : 1\nEND\n"
                                      "DELETE stock item store\n1 1 : 9\nEND\n"
                                      "COMMIT\n");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "OK BEGIN");
  EXPECT_EQ(out[1], "OK INSERT orders 1 rows buffered");
  EXPECT_EQ(out[2], "OK DELETE stock 1 rows buffered");
  EXPECT_EQ(out[3].rfind("ERR E_RANGE DELETE below zero multiplicity", 0), 0u)
      << out[3];

  // Still generation 1, and the buffered orders row never landed: a
  // witness for the untouched pair shows the original multiplicities.
  out = Feed(&session, "STATS\nWITNESS 0 1\n");
  EXPECT_EQ(out[6], "snapshot 1") << "failed COMMIT must not publish";
  std::string joined;
  for (const std::string& line : out) joined += line + "\n";
  EXPECT_NE(joined.find("apple downtown : 2"), std::string::npos) << joined;

  // The failed COMMIT closed the transaction; the same deltas with a
  // legal delete commit as one generation touching both bags.
  out = Feed(&session,
             "BEGIN\n"
             "INSERT orders item store\n2 0 : 1\nEND\n"
             "DELETE stock item store\n1 1 : 1\nEND\n"
             "COMMIT\nSTATS\n");
  ASSERT_GE(out.size(), 23u);
  EXPECT_EQ(out[3], "OK COMMIT 2 rows 2 bags");
  // The failed attempt burned a sequence number without publishing:
  // generation ids are monotonic, not dense.
  EXPECT_EQ(out[10], "snapshot 3");
  // marginal_fills lands on exactly the batch's dirty slots: both bags
  // mutated, one shared-attribute slot each.
  EXPECT_EQ(out[14], "marginal_fills 2");

  // Structural commands are refused mid-transaction; RESET discards it.
  out = Feed(&session, "BEGIN\nSEAL\nDROP orders\nRESET\nCOMMIT\n");
  ASSERT_EQ(out.size(), 5u);
  EXPECT_NE(out[1].find("not allowed inside a transaction"), std::string::npos);
  EXPECT_NE(out[2].find("not allowed inside a transaction"), std::string::npos);
  EXPECT_EQ(out[3], "OK RESET");
  EXPECT_EQ(out[4].rfind("ERR E_STATE no transaction is open", 0), 0u) << out[4];
}

// A per-row net past int64 is a count out of range on both commit
// paths: staged into the loaded bag (nothing sealed yet) and published
// as a delta generation (after SEAL), with nothing applied either way.
TEST(ServerSessionTest, PerRowNetOverflowIsERangeStagedAndPublished) {
  const std::string overflow =
      "BEGIN\n"
      "INSERT r a\n0 : 9223372036854775807\nEND\n"
      "INSERT r a\n0 : 9223372036854775807\nEND\n"
      "COMMIT\n";
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  ASSERT_EQ(Feed(&session, "DICT a 1\nx\nEND\nLOADU32 r a\n0 : 1\nEND\n").back(),
            "OK LOADU32 r 1 rows");
  std::vector<std::string> staged = Feed(&session, overflow);
  ASSERT_EQ(staged.size(), 4u);
  EXPECT_EQ(staged[3].rfind("ERR E_RANGE ", 0), 0u) << staged[3];

  ASSERT_EQ(Feed(&session, "SEAL\n").back(), "OK SEAL 1 bags");
  std::vector<std::string> published = Feed(&session, overflow);
  ASSERT_EQ(published.size(), 4u);
  EXPECT_EQ(published[3].rfind("ERR E_RANGE ", 0), 0u) << published[3];
  EXPECT_EQ(published[3], staged[3]) << "the two paths word the error differently";

  // Neither attempt landed: the sealed generation still holds one row.
  std::vector<std::string> stats = Feed(&session, "STATS\n");
  EXPECT_EQ(stats[6], "snapshot 1");
  EXPECT_EQ(stats[8], "support 1");
}

// Each row's net fits in int64 but their projection onto s's schema sums
// past it (2 * (2^62 + 1)); the marginal itself (2^63 + 3) fits in
// uint64. Staged and published commits both land it and answer alike:
// TWOBAG sees the exact marginal, and WITNESS gives the same reply (its
// flow network refuses capacities this large on either path).
TEST(ServerSessionTest, ProjectedNetPastInt64CommitsStagedAndPublished) {
  const std::string load =
      "DICT a 1\nx\nEND\nDICT b 2\nx\ny\nEND\n"
      "LOADU32 r a b\n0 0 : 1\nEND\n"
      "LOADU32 s a\n0 : 9223372036854775811\nEND\n";
  const std::string insert =
      "INSERT r a b\n0 0 : 4611686018427387905\n0 1 : 4611686018427387905\nEND\n";
  const std::string queries = "TWOBAG r s\nWITNESS r s\n";

  CollectionRegistry staged_registry;
  ServerSession staged(&staged_registry, nullptr);
  Feed(&staged, load);
  ASSERT_EQ(Feed(&staged, insert).back(), "OK INSERT r 2 rows staged");
  ASSERT_EQ(Feed(&staged, "SEAL\n").back(), "OK SEAL 2 bags");
  std::vector<std::string> staged_answers = Feed(&staged, queries);

  CollectionRegistry published_registry;
  ServerSession published(&published_registry, nullptr);
  Feed(&published, load);
  ASSERT_EQ(Feed(&published, "SEAL\n").back(), "OK SEAL 2 bags");
  std::vector<std::string> inserted = Feed(&published, insert);
  ASSERT_EQ(inserted.size(), 1u);
  EXPECT_EQ(inserted[0].rfind("OK ", 0), 0u) << inserted[0];
  std::vector<std::string> published_answers = Feed(&published, queries);

  ASSERT_FALSE(staged_answers.empty());
  EXPECT_EQ(staged_answers[0], "OK CONSISTENT");
  EXPECT_EQ(published_answers, staged_answers);
}

TEST(ServerSessionTest, TransactionCumulativeCapsRefuseOversizedBuffering) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  // The body caps are per block; these cumulative caps are what bound a
  // whole transaction (and guarantee COMMIT fits one WAL record).
  // Shrunk so the refusal is reachable without buffering ~4M rows.
  session.SetTxnCapsForTest(/*rows=*/3, /*wal_bytes=*/0);

  std::vector<std::string> out =
      Feed(&session,
           "BEGIN\n"
           "INSERT orders item store\n0 0 : 1\n1 1 : 1\nEND\n"
           "INSERT orders item store\n2 0 : 1\n2 1 : 1\nEND\n"
           "COMMIT\n");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "OK BEGIN");
  EXPECT_EQ(out[1], "OK INSERT orders 2 rows buffered");
  // The second block would push the transaction past the row cap: it is
  // refused whole, the transaction stays open with the first block
  // intact, and COMMIT publishes exactly what was accepted.
  EXPECT_EQ(out[2].rfind("ERR E_RANGE transaction exceeds 3 buffered rows", 0),
            0u)
      << out[2];
  EXPECT_EQ(out[3].rfind("OK COMMIT 2 rows 2 bags", 0), 0u) << out[3];

  // The byte cap trips the same way (12 bytes of block header alone
  // exceeds a 1-byte budget), and a fresh BEGIN resets the accounting.
  session.SetTxnCapsForTest(/*rows=*/0, /*wal_bytes=*/1);
  out = Feed(&session,
             "BEGIN\n"
             "INSERT orders item store\n0 0 : 1\nEND\n"
             "COMMIT\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].rfind("ERR E_RANGE transaction exceeds", 0), 0u) << out[1];
  EXPECT_NE(out[1].find("encoded bytes"), std::string::npos) << out[1];
  EXPECT_EQ(out[2], "OK COMMIT 0 rows");
}

TEST(ServerSessionTest, TransactionFramesRoundTripAndRefuseTrailingBytes) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  Feed(&session, kSetupScript);
  std::string raw;
  session.HandleData("UPGRADE BINARY\n", &raw);
  ASSERT_TRUE(session.binary_mode());

  auto frame = [](uint8_t opcode, const std::string& payload) {
    std::string f;
    WireAppendFrame(&f, opcode, payload);
    return f;
  };
  auto read_frames = [](const std::string& out) {
    std::vector<std::pair<uint8_t, std::string>> frames;
    size_t pos = 0;
    while (pos + kWireFrameHeaderBytes <= out.size()) {
      WireCursor header(
          std::string_view(out).substr(pos, kWireFrameHeaderBytes));
      uint32_t len = 0;
      uint8_t opcode = 0;
      EXPECT_TRUE(header.U32(&len) && header.U8(&opcode));
      frames.emplace_back(opcode, out.substr(pos + kWireFrameHeaderBytes, len));
      pos += kWireFrameHeaderBytes + len;
    }
    EXPECT_EQ(pos, out.size());
    return frames;
  };
  auto rows_payload = [](const std::string& bag, uint32_t item, uint32_t store,
                         uint64_t count) {
    std::string payload;
    WireAppendString(&payload, bag);
    WireAppendU32(&payload, 2);
    WireAppendString(&payload, "item");
    WireAppendString(&payload, "store");
    WireAppendU64(&payload, 1);
    WireAppendU32(&payload, item);
    WireAppendU32(&payload, store);
    WireAppendU64(&payload, count);
    return payload;
  };

  // BEGIN / buffered deltas / COMMIT entirely over frames: one atomic
  // two-bag generation, same response text as the text verbs.
  raw.clear();
  session.HandleData(frame(kFrameBegin, "") +
                         frame(kFrameInsert, rows_payload("orders", 2, 0, 1)) +
                         frame(kFrameDelete, rows_payload("stock", 0, 0, 1)) +
                         frame(kFrameCommit, ""),
                     &raw);
  auto frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].first, kFrameOk);
  EXPECT_EQ(frames[0].second, "BEGIN");
  EXPECT_EQ(frames[1].second, "INSERT orders 1 rows buffered");
  EXPECT_EQ(frames[2].second, "DELETE stock 1 rows buffered");
  EXPECT_EQ(frames[3].first, kFrameOk);
  EXPECT_EQ(frames[3].second, "COMMIT 2 rows 2 bags");

  // A BEGIN/COMMIT frame carrying payload bytes is malformed — refused
  // without opening or closing anything.
  raw.clear();
  session.HandleData(frame(kFrameBegin, "x"), &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameErr);
  EXPECT_NE(frames[0].second.find("no payload"), std::string::npos);
  raw.clear();
  session.HandleData(frame(kFrameCommit, "\x01"), &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameErr);
  // No transaction was opened by the bad BEGIN frame above.
  raw.clear();
  session.HandleData(frame(kFrameCommit, ""), &raw);
  frames = read_frames(raw);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, kFrameErr);
  EXPECT_NE(frames[0].second.find("no transaction is open"), std::string::npos);
}

// ---- Framing parity and hostile frames -------------------------------------

std::string Frame(uint8_t opcode, const std::string& payload) {
  std::string f;
  WireAppendFrame(&f, opcode, payload);
  return f;
}

std::string U32(uint32_t v) {
  std::string s;
  WireAppendU32(&s, v);
  return s;
}

std::string Str(const std::string& v) {
  std::string s;
  WireAppendString(&s, v);
  return s;
}

// The ROWS payload grammar (ROWS, INSERT, DELETE frames); each row is its
// ids followed by its count.
std::string RowsPayload(const std::string& bag, const std::vector<std::string>& cols,
                        const std::vector<std::vector<uint64_t>>& rows) {
  std::string payload = Str(bag) + U32(static_cast<uint32_t>(cols.size()));
  for (const std::string& col : cols) payload += Str(col);
  WireAppendU64(&payload, rows.size());
  for (const std::vector<uint64_t>& row : rows) {
    for (size_t c = 0; c + 1 < row.size(); ++c) {
      WireAppendU32(&payload, static_cast<uint32_t>(row[c]));
    }
    WireAppendU64(&payload, row.back());
  }
  return payload;
}

// Splits a session's binary output into frames; a trailing partial frame
// fails the test.
std::vector<std::pair<uint8_t, std::string>> ParseFrames(const std::string& out) {
  std::vector<std::pair<uint8_t, std::string>> frames;
  size_t pos = 0;
  while (out.size() - pos >= kWireFrameHeaderBytes) {
    WireCursor header(std::string_view(out).substr(pos, kWireFrameHeaderBytes));
    uint32_t len = 0;
    uint8_t opcode = 0;
    header.U32(&len);
    header.U8(&opcode);
    if (out.size() - pos - kWireFrameHeaderBytes < len) break;
    frames.emplace_back(opcode, out.substr(pos + kWireFrameHeaderBytes, len));
    pos += kWireFrameHeaderBytes + len;
  }
  EXPECT_EQ(pos, out.size()) << "output ends in a partial frame";
  return frames;
}

struct ErrReply {
  WireError error;
  std::string message;
};

// The last text response as an error, or nullopt when it is not one.
std::optional<ErrReply> LastTextErr(const std::vector<std::string>& lines) {
  if (lines.empty() || lines.back().rfind("ERR ", 0) != 0) return std::nullopt;
  const std::string& line = lines.back();
  size_t space = line.find(' ', 4);
  std::string code = line.substr(4, space - 4);
  for (uint8_t tag = 0; tag <= WireErrorTag(WireError::kInternal); ++tag) {
    WireError error = *WireErrorFromTag(tag);
    if (WireErrorCode(error) == code) {
      return ErrReply{error, space == std::string::npos ? "" : line.substr(space + 1)};
    }
  }
  return std::nullopt;
}

// The last binary response as an error, or nullopt when it is not one.
std::optional<ErrReply> LastFrameErr(const std::string& out) {
  std::vector<std::pair<uint8_t, std::string>> frames = ParseFrames(out);
  if (frames.empty() || frames.back().first != kFrameErr ||
      frames.back().second.empty()) {
    return std::nullopt;
  }
  Result<WireError> error =
      WireErrorFromTag(static_cast<uint8_t>(frames.back().second[0]));
  if (!error.ok()) return std::nullopt;
  return ErrReply{*error, frames.back().second.substr(1)};
}

// One table of failing requests, each sent through a text session and
// through a binary session over the same setup: both framings must
// answer the same error class, and — for every error raised past the
// decoders, where one handler answers both framings — the same message.
TEST(ServerSessionTest, ErrorClassesAgreeAcrossFramings) {
  struct Case {
    const char* what;
    std::string text;    // text-framing requests after kSetupScript
    std::string frames;  // the same requests as frames
    bool past_decoder;   // raised by a handler, not by a framing decoder
  };
  const std::vector<std::string> cols = {"item", "store"};
  const std::vector<Case> cases = {
      {"TWOBAG index out of range", "TWOBAG 99 0\n",
       Frame(kFrameTwoBag, U32(99) + U32(0)), true},
      {"WITNESS index out of range", "WITNESS 0 99\n",
       Frame(kFrameWitness, U32(0) + U32(99) + std::string(1, '\0')), true},
      {"KWISE 0", "KWISE 0\n", Frame(kFrameKWise, U32(0)), true},
      {"INSERT into an unloaded bag", "INSERT nosuch item store\n0 0 : 1\nEND\n",
       Frame(kFrameInsert, RowsPayload("nosuch", cols, {{0, 0, 1}})), true},
      {"INSERT with a never-issued id", "INSERT stock item store\n9 0 : 1\nEND\n",
       Frame(kFrameInsert, RowsPayload("stock", cols, {{9, 0, 1}})), true},
      {"INSERT with mismatched columns", "INSERT stock item\n0 : 1\nEND\n",
       Frame(kFrameInsert, RowsPayload("stock", {"item"}, {{0, 1}})), true},
      {"DICT count mismatch", "DICT color 3\nred\nblue\nEND\n",
       Frame(kFrameDict, Str("color") + U32(3) + Str("red") + Str("blue")), false},
      {"DICT value holding a carriage return", "DICT color 2\nred\nbl\rue\nEND\n",
       Frame(kFrameDict, Str("color") + U32(2) + Str("red") + Str("bl\rue")), false},
      {"duplicate bag name", "LOADU32 orders item store\n0 0 : 1\nEND\n",
       Frame(kFrameRows, RowsPayload("orders", cols, {{0, 0, 1}})), true},
      {"duplicate row, zero last", "LOADU32 dupz item store\n0 0 : 5\n0 0 : 0\nEND\n",
       Frame(kFrameRows, RowsPayload("dupz", cols, {{0, 0, 5}, {0, 0, 0}})), true},
      {"duplicate row, zero first", "LOADU32 dupz item store\n0 0 : 0\n0 0 : 5\nEND\n",
       Frame(kFrameRows, RowsPayload("dupz", cols, {{0, 0, 0}, {0, 0, 5}})), true},
      {"SEAL inside a transaction", "BEGIN\nSEAL\n",
       Frame(kFrameBegin, "") + Frame(kFrameCmd, "SEAL"), true},
      {"COMMIT with no transaction", "COMMIT\n", Frame(kFrameCommit, ""), true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    CollectionRegistry text_registry;
    CollectionRegistry binary_registry;
    ServerSession text(&text_registry, nullptr);
    ServerSession binary(&binary_registry, nullptr);
    Feed(&text, kSetupScript);
    Feed(&binary, kSetupScript);
    std::string out;
    binary.HandleData("UPGRADE BINARY\n", &out);
    ASSERT_TRUE(binary.binary_mode());

    std::optional<ErrReply> text_err = LastTextErr(Feed(&text, c.text));
    out.clear();
    binary.HandleData(c.frames, &out);
    std::optional<ErrReply> binary_err = LastFrameErr(out);
    ASSERT_TRUE(text_err.has_value());
    ASSERT_TRUE(binary_err.has_value());
    EXPECT_EQ(WireErrorCode(text_err->error), WireErrorCode(binary_err->error))
        << text_err->message << " | " << binary_err->message;
    if (c.past_decoder) {
      EXPECT_EQ(text_err->message, binary_err->message);
    }
  }
}

// Hostile bytes on the frame decoder: one well-formed frame of every
// client opcode, then every truncation of its payload (length restamped)
// and every single-bit flip of its header and payload, each fed to a
// fresh upgraded session. The session must never crash, must answer in
// whole frames, must never blame itself (E_INTERNAL), and must keep
// answering: a following STATS frame gets its reply unless the session
// closed. A flipped length field legitimately desynchronizes the stream
// (the session may be waiting for bytes that never come), so those flips
// only get the first three checks.
TEST(ServerSessionTest, HostileFrameBytesNeverCrashOrDesync) {
  const std::vector<std::string> cols = {"item", "store"};
  const std::vector<std::pair<uint8_t, std::string>> seeds = {
      {kFrameCmd, "STATS"},
      {kFrameDict, Str("color") + U32(2) + Str("red") + Str("blue")},
      {kFrameRows, RowsPayload("fresh", cols, {{0, 1, 2}, {2, 0, 1}})},
      {kFrameTwoBag, U32(0) + U32(1)},
      {kFramePairwise, ""},
      {kFrameGlobal, ""},
      {kFrameKWise, U32(2)},
      {kFrameWitness, U32(0) + U32(1) + std::string(1, '\1')},
      {kFrameInsert, RowsPayload("stock", cols, {{2, 0, 5}})},
      {kFrameDelete, RowsPayload("stock", cols, {{0, 0, 1}})},
      {kFrameBegin, ""},
      {kFrameCommit, ""},
  };
  auto check_replies = [](const std::string& out) {
    for (const auto& [opcode, payload] : ParseFrames(out)) {
      if (opcode != kFrameErr) continue;
      ASSERT_FALSE(payload.empty());
      Result<WireError> error = WireErrorFromTag(static_cast<uint8_t>(payload[0]));
      ASSERT_TRUE(error.ok()) << "invalid error tag " << int(payload[0]);
      EXPECT_NE(*error, WireError::kInternal) << payload.substr(1);
    }
  };
  auto probe = [&](const std::string& bytes, bool length_intact) {
    CollectionRegistry registry;
    ServerSession session(&registry, nullptr);
    Feed(&session, kSetupScript);
    std::string out;
    session.HandleData("UPGRADE BINARY\n", &out);
    ASSERT_TRUE(session.binary_mode());
    out.clear();
    if (session.HandleData(bytes, &out) == ServerSession::Outcome::kCloseConnection) {
      check_replies(out);
      return;
    }
    check_replies(out);
    out.clear();
    ServerSession::Outcome outcome = session.HandleData(Frame(kFrameCmd, "STATS"), &out);
    check_replies(out);
    if (!length_intact || outcome == ServerSession::Outcome::kCloseConnection) return;
    bool answered = false;
    for (const auto& frame : ParseFrames(out)) answered |= frame.first == kFrameStats;
    EXPECT_TRUE(answered) << "STATS went unanswered after a hostile frame";
  };
  for (const auto& [opcode, payload] : seeds) {
    SCOPED_TRACE("opcode " + std::to_string(opcode));
    for (size_t len = 0; len < payload.size(); ++len) {
      SCOPED_TRACE("truncated to " + std::to_string(len));
      probe(Frame(opcode, payload.substr(0, len)), true);
    }
    const std::string frame = Frame(opcode, payload);
    for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
      SCOPED_TRACE("bit " + std::to_string(bit));
      std::string flipped = frame;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      probe(flipped, bit >= 32);
    }
  }
}

// ---- Witness reply golden ---------------------------------------------------

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

// A snapshot over four bags on C4's attributes a0..a3.
std::shared_ptr<const EngineSnapshot> C4Snapshot(std::vector<Bag> bags) {
  EngineSnapshot::BuildInputs inputs;
  for (const char* name : {"a0", "a1", "a2", "a3"}) inputs.catalog.Intern(name);
  for (Bag& bag : bags) {
    inputs.names.push_back("b" + std::to_string(inputs.bags.size()));
    inputs.bags.push_back(std::move(bag));
  }
  inputs.dicts = std::make_shared<DictionarySet>();
  return *EngineSnapshot::Build(std::move(inputs), 1);
}

TEST(EngineSnapshotTest, GlobalBudgetFailureIsMemoizedPerGeneration) {
  // Four pairwise consistent 48 x 48 full products on C4: J passes the
  // default join cap, so the cyclic GLOBAL fails with ResourceExhausted.
  // The failure is memoized like a verdict: a second GLOBAL on the same
  // generation gets the same error without running the join again.
  std::vector<Bag> bags;
  Hypergraph c4 = *MakeCycle(4);
  for (const Schema& edge : c4.edges()) {
    BagBuilder builder(edge);
    for (Value a = 0; a < 48; ++a) {
      for (Value b = 0; b < 48; ++b) ASSERT_TRUE(builder.Add(Tuple{{a, b}}, 1).ok());
    }
    bags.push_back(*builder.Build());
  }
  std::shared_ptr<const EngineSnapshot> snapshot = C4Snapshot(std::move(bags));
  EXPECT_EQ(snapshot->global_solves(), 0u);
  Result<bool> first = snapshot->Global();
  ASSERT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(first.status().message(), "join support exceeds cap (4194304)");
  EXPECT_EQ(snapshot->global_solves(), 1u);
  Result<bool> second = snapshot->Global();
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(second.status().message(), first.status().message());
  EXPECT_EQ(snapshot->global_solves(), 1u);
  EXPECT_FALSE(snapshot->KnownGlobal().has_value());
}

TEST(EngineSnapshotTest, GlobalOverAWidePrefixJoinIsRefused) {
  // R1(a0,a1) = {(i,0)}, R2(a1,a2) = {(0,j)}, R3(a2,a3) = {(j,j)} and
  // R4(a0,a3) = {(i,i)} for i, j < 4096, each row once: pairwise
  // consistent, and J = {(i,0,i,i)} holds only 4,096 tuples, but the
  // join's walk binds all 2^24 prefixes (i,0,j) of its third level on
  // the way. The join cap bounds every level, so GLOBAL is refused after
  // 2^22 + 1 of them instead of walking the rest under the generation's
  // GLOBAL mutex.
  constexpr Value kN = 4096;
  std::vector<Bag> bags;
  const std::vector<Schema> schemas = {Schema{{0, 1}}, Schema{{1, 2}}, Schema{{2, 3}},
                                       Schema{{0, 3}}};
  for (size_t b = 0; b < schemas.size(); ++b) {
    BagBuilder builder(schemas[b]);
    for (Value i = 0; i < kN; ++i) {
      const Tuple row = b == 0 ? Tuple{{i, 0}} : b == 1 ? Tuple{{0, i}} : Tuple{{i, i}};
      ASSERT_TRUE(builder.Add(row, 1).ok());
    }
    bags.push_back(*builder.Build());
  }
  std::shared_ptr<const EngineSnapshot> snapshot = C4Snapshot(std::move(bags));
  ASSERT_TRUE(snapshot->Pairwise().consistent);
  Result<bool> global = snapshot->Global();
  ASSERT_EQ(global.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(global.status().message(), "join support exceeds cap (4194304)");
}

// The bytes of every WITNESS reply, in both framings, pinned by hash: the
// witness construction, the witness seal and both encoders may change how
// they work, never what they send (a change to which witness is sent is a
// declared wire change, and WitnessOracleTest.GoldenReplyInputs must
// accept the new one). The four inputs are tests/witness_golden.h's.
TEST(ServerSessionTest, WitnessReplyBytesMatchGolden) {
  const std::pair<uint64_t, uint64_t> kHashes[witness_golden::kCases] = {
      {2411353944748207146ull, 13679727823215944311ull},
      {815611282524328913ull, 6124943409722371192ull},
      {10945033963939489404ull, 8643410129829854531ull},
      {11735254145539688515ull, 3181682457570518007ull},
  };
  for (size_t k = 0; k < witness_golden::kCases; ++k) {
    SCOPED_TRACE("golden case " + std::to_string(k));
    const std::string seg = testing::TempDir() + "witness_golden_path.seg";
    CollectionRegistry registry;
    const std::vector<Request> requests = witness_golden::PublishCase(k, &registry, seg);
    auto [text, frames] = witness_golden::WitnessReplies(&registry, requests);
    EXPECT_EQ(Fnv1a(text), kHashes[k].first) << text.size() << " text bytes";
    EXPECT_EQ(Fnv1a(frames), kHashes[k].second) << frames.size() << " frame bytes";
    std::remove(seg.c_str());
  }
}

TEST(BagcdServerTest, ShutdownCommandStopsTheServer) {
  Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start({});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<BagcdClient> client =
      BagcdClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendLine("SHUTDOWN").ok());
  Result<std::string> bye = client->ReadLine();
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "OK BYE");
  (*server)->Wait();  // returns because the command requested shutdown
}

}  // namespace
}  // namespace bagc
