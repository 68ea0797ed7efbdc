// Multi-tenant registry differential for the bagcd server: K segment-
// backed collections thrash through ATTACH / query / evict / lazy-reload
// cycles under a memory budget so tight that every publish evicts every
// other tenant, and each collection's responses — verdicts, failing
// pairs, witness rows down to their multiplicities — must stay
// bit-identical to a single-collection oracle registry that never
// evicts. A lazily reloaded snapshot is rebuilt from its BAGCSEG segment
// by the segment loader LOADSEG uses, but with a fresh catalog and no
// session; this suite is what pins the two to identical ids, sort
// orders, and wire bytes (the canonical tenant covers the
// reload_canonical_ replay).
// Runs under the ASan/UBSan matrix leg via the `differential` label.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bag/bag_io.h"
#include "server/collection_registry.h"
#include "server/session.h"
#include "tuple/column_store.h"
#include "tuple/segment.h"

namespace bagc {
namespace {

struct Tenant {
  std::string name;
  std::string seg_path;
  bool canonical = false;
  std::vector<std::string> oracle;  // expected query responses
};

// Mixed query pass: consistency verdicts at every arity plus a witness
// with multiplicities. Responses are compared byte-for-byte, so this one
// script doubles as both the oracle probe and the thrash probe.
constexpr const char* kQueryScript =
    "TWOBAG 0 1\nPAIRWISE\nGLOBAL\nKWISE 2\nWITNESS 0 1 MINIMAL\n";

// Per-tenant bag text: multiplicities scale with the tenant index so
// every collection has distinct answers (tenant 0 consistent, higher
// tenants drift inconsistent), and cross-tenant cache mixups would be
// caught by the byte compare, not masked by identical data.
std::string TenantBagText(size_t k) {
  std::string text;
  text += "bag item store\n";
  text += "apple downtown : " + std::to_string(2 + k) + "\n";
  text += "banana uptown : " + std::to_string(1 + (k % 3)) + "\n";
  text += "cherry uptown : 2\nend\n";
  text += "bag store region\n";
  text += "downtown north : " + std::to_string(2 + k) + "\n";
  text += "uptown north : " + std::to_string(3 + (k % 3)) + "\n";
  text += "end\n";
  return text;
}

// Writes tenant k's collection as a segment file and returns its path.
std::string WriteTenantSegment(size_t k) {
  AttributeCatalog catalog;
  DictionarySet dicts;
  Result<std::vector<Bag>> bags =
      ParseCollection(TenantBagText(k), &catalog, &dicts);
  EXPECT_TRUE(bags.ok()) << bags.status().ToString();
  std::string path =
      testing::TempDir() + "registry_tenant" + std::to_string(k) + ".seg";
  EXPECT_TRUE(
      WriteSegmentFile(path, {"left", "right"}, *bags, catalog, dicts).ok());
  return path;
}

// ATTACH + LOADSEG + SEAL one tenant into `registry` and return the
// script responses (callers assert the last line is the SEAL ack).
std::vector<std::string> SealTenant(CollectionRegistry* registry,
                                    const Tenant& t) {
  ServerSession session(registry, nullptr);
  return session.HandleScript("ATTACH " + t.name + "\nLOADSEG " + t.seg_path +
                              "\n" + std::string(t.canonical ? "SEAL CANONICAL\n"
                                                             : "SEAL\n"));
}

TEST(ServerRegistryTest, EvictReloadThrashMatchesSingleCollectionOracle) {
  constexpr size_t kTenants = 5;
  std::vector<Tenant> tenants;
  for (size_t k = 0; k < kTenants; ++k) {
    Tenant t;
    t.name = "tenant" + std::to_string(k);
    t.seg_path = WriteTenantSegment(k);
    t.canonical = (k == 2);  // one tenant exercises the canonical replay
    tenants.push_back(std::move(t));
  }

  // Oracle answers: each tenant alone in an unlimited registry, queried
  // while resident — no eviction, no reload, the plain sealed path.
  for (Tenant& t : tenants) {
    CollectionRegistry oracle_registry;
    std::vector<std::string> sealed = SealTenant(&oracle_registry, t);
    ASSERT_FALSE(sealed.empty());
    ASSERT_EQ(sealed.back().rfind("OK SEAL 2 bags", 0), 0u) << sealed.back();
    ServerSession session(&oracle_registry, nullptr);
    session.HandleScript("ATTACH " + t.name + "\n");
    t.oracle = session.HandleScript(kQueryScript);
    ASSERT_FALSE(t.oracle.empty());
  }

  // The thrash registry: a 1-byte budget means every publish (seal OR
  // lazy reload) evicts every other resident tenant — maximal thrash.
  CollectionRegistry::Options opts;
  opts.mem_budget_bytes = 1;
  CollectionRegistry registry(opts);
  for (const Tenant& t : tenants) {
    std::vector<std::string> sealed = SealTenant(&registry, t);
    ASSERT_EQ(sealed.back().rfind("OK SEAL 2 bags", 0), 0u) << sealed.back();
  }
  EXPECT_GT(registry.evictions_total(), 0u);

  // Deterministic pseudo-random ATTACH/query thrash. Every probe either
  // hits the one resident tenant or forces a lazy segment reload; both
  // must answer with the oracle's exact bytes.
  ServerSession prober(&registry, nullptr);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<size_t>(state >> 33);
  };
  for (int round = 0; round < 60; ++round) {
    const Tenant& t = tenants[next() % kTenants];
    std::vector<std::string> bound =
        prober.HandleScript("ATTACH " + t.name + "\n");
    ASSERT_EQ(bound.size(), 1u);
    ASSERT_EQ(bound[0], "OK ATTACH " + t.name);
    std::vector<std::string> got = prober.HandleScript(kQueryScript);
    ASSERT_EQ(got, t.oracle) << "tenant " << t.name << " round " << round;
  }

  // The thrash really exercised the reload path, and the registry's
  // books balance: with a 1-byte budget at most one tenant is resident.
  uint64_t total_reloads = 0;
  size_t resident = 0;
  for (const Tenant& t : tenants) {
    CollectionRegistry::CollectionStats s =
        registry.Stats(registry.Find(t.name).get());
    EXPECT_TRUE(s.reloadable) << t.name;
    total_reloads += s.reloads;
    resident += s.resident ? 1 : 0;
  }
  EXPECT_GT(total_reloads, 0u);
  EXPECT_LE(resident, 1u);
  EXPECT_GT(registry.evictions_total(), kTenants);

  for (const Tenant& t : tenants) std::remove(t.seg_path.c_str());
}

TEST(ServerRegistryTest, EvictedStreamOnlyCollectionAnswersEStateUntilResealed) {
  CollectionRegistry::Options opts;
  opts.mem_budget_bytes = 1;
  CollectionRegistry registry(opts);

  // "ephemeral" is sealed from streamed rows: no segment, no reload path.
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out = session.HandleScript(
      "ATTACH ephemeral\n"
      "DICT item 2\napple\nbanana\nEND\n"
      "LOADU32 r item\n0 : 2\n1 : 1\nEND\n"
      "LOADU32 s item\n0 : 2\n1 : 1\nEND\n"
      "SEAL\nTWOBAG r s\n");
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), "OK CONSISTENT");

  // Publishing another tenant under the 1-byte budget evicts it.
  Tenant other;
  other.name = "backed";
  other.seg_path = WriteTenantSegment(0);
  ASSERT_EQ(SealTenant(&registry, other).back().rfind("OK SEAL", 0), 0u);

  // The documented dead end, verbatim: E_STATE naming the collection,
  // the cause, and the recovery.
  out = session.HandleScript("TWOBAG r s\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0],
            "ERR E_STATE collection 'ephemeral' was evicted under the memory "
            "budget and has no segment to reload from; SEAL it again");

  // The recovery works: the session still holds its bags, so SEAL
  // republishes them (reusing nothing: the evicted generation is gone)
  // and queries answer again.
  out = session.HandleScript("SEAL\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("OK SEAL 2 bags", 0), 0u) << out[0];
  EXPECT_EQ(out[1], "OK CONSISTENT");

  // The segment-backed tenant, by contrast, reloads transparently even
  // after the re-seal above evicted it.
  ServerSession reader(&registry, nullptr);
  out = reader.HandleScript("ATTACH backed\nTWOBAG 0 1\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].rfind("OK ", 0), 0u) << out[1];
  EXPECT_GT(registry.Stats(registry.Find("backed").get()).reloads, 0u);

  std::remove(other.seg_path.c_str());
}

TEST(ServerRegistryTest, PerCollectionByteCeilingRefusesOversizedSeal) {
  CollectionRegistry::Options opts;
  opts.max_collection_bytes = 1;  // nothing real fits
  CollectionRegistry registry(opts);
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out = session.HandleScript(
      "DICT item 2\napple\nbanana\nEND\n"
      "LOADU32 r item\n0 : 2\n1 : 1\nEND\n"
      "SEAL\n");
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().rfind("ERR E_RANGE", 0), 0u) << out.back();
  EXPECT_NE(out.back().find("per-collection ceiling"), std::string::npos);
  // Nothing was published.
  EXPECT_EQ(registry.Peek(registry.Default().get()), nullptr);
}

// Streams one bag of `rows` distinct arity-2 rows and SEALs it.
std::string WideLoadScript(size_t rows) {
  std::string script = "DICT item " + std::to_string(rows) + "\n";
  for (size_t i = 0; i < rows; ++i) script += "v" + std::to_string(i) + "\n";
  script += "END\nDICT store 2\nd\nu\nEND\n";
  script += "LOADU32 r item store\n";
  for (size_t i = 0; i < rows; ++i) {
    script += std::to_string(i) + " " + std::to_string(i % 2) + " : 3\n";
  }
  script += "END\nSEAL\n";
  return script;
}

uint64_t StatsSealedBytes(ServerSession* session) {
  for (const std::string& line : session->HandleScript("STATS\n")) {
    if (line.rfind("sealed_bytes ", 0) == 0) {
      return std::stoull(line.substr(std::string("sealed_bytes ").size()));
    }
  }
  ADD_FAILURE() << "STATS carried no sealed_bytes key";
  return 0;
}

// The registry is the only owner of a generation: evicting it frees it
// even while the session that sealed it stays connected (and still
// holds the bags it loaded).
TEST(ServerRegistryTest, EvictionFreesTheGenerationOfAConnectedSession) {
  CollectionRegistry::Options opts;
  opts.mem_budget_bytes = 1;  // any second publish evicts the first
  CollectionRegistry registry(opts);
  ServerSession sealer(&registry, nullptr);
  std::vector<std::string> out = sealer.HandleScript(
      "ATTACH ta\n"
      "DICT item 2\napple\nbanana\nEND\n"
      "LOADU32 r item\n0 : 2\n1 : 1\nEND\n"
      "LOADU32 s item\n0 : 2\n1 : 1\nEND\n"
      "SEAL\n");
  ASSERT_EQ(out.back(), "OK SEAL 2 bags");
  std::shared_ptr<CollectionRegistry::Collection> ta = registry.Find("ta");
  ASSERT_NE(ta, nullptr);
  std::weak_ptr<const EngineSnapshot> generation = registry.Peek(ta.get());
  ASSERT_FALSE(generation.expired());

  ServerSession other(&registry, nullptr);
  out = other.HandleScript(
      "ATTACH tb\n"
      "DICT item 1\napple\nEND\n"
      "LOADU32 r item\n0 : 1\nEND\n"
      "SEAL\n");
  ASSERT_EQ(out.back(), "OK SEAL 1 bags");
  ASSERT_EQ(registry.Peek(ta.get()), nullptr) << "ta was not evicted";
  EXPECT_EQ(registry.Stats(ta.get()).evictions, 1u);
  EXPECT_TRUE(generation.expired())
      << "an evicted generation is still alive with use_count "
      << generation.use_count();
  EXPECT_EQ(StatsSealedBytes(&sealer), 0u);
}

// The columnar seal memory pin: every sealed bag is its columns, its
// resident bytes come in well under the flat (Tuple, multiplicity) entry
// vector the same rows would cost, and the STATS sealed_bytes key
// surfaces the engine-resident total.
TEST(ServerRegistryTest, SealedBagsAreColumnsAndShrinkSealedBytes) {
  const size_t kRows = 64;
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out = session.HandleScript(WideLoadScript(kRows));
  ASSERT_FALSE(out.empty());
  ASSERT_EQ(out.back().rfind("OK SEAL", 0), 0u) << out.back();
  std::shared_ptr<const EngineSnapshot> snapshot =
      registry.Peek(registry.Default().get());
  ASSERT_NE(snapshot, nullptr);
  for (const Bag& bag : snapshot->engine()->collection().bags()) {
    const size_t n = bag.SupportSize();
    ASSERT_EQ(bag.Columns().num_rows(), n);
    // The ~halving pin: ids + mults must be at most 60% of a flat entry
    // vector's footprint (one Tuple per row plus its heap ids).
    using Entry = std::pair<Tuple, uint64_t>;
    size_t row_bytes = sizeof(std::vector<Entry>) +
                       n * (sizeof(Entry) + bag.schema().arity() * sizeof(ValueId));
    EXPECT_LE(bag.ApproxBytes() * 10, row_bytes * 6)
        << "columnar " << bag.ApproxBytes() << " bytes vs row " << row_bytes;
  }
  uint64_t sealed = StatsSealedBytes(&session);
  EXPECT_GT(sealed, 0u);
  EXPECT_EQ(sealed, snapshot->sealed_bytes());
}

// One representation at every size: after SEAL bags of 31 and 32 rows
// both expose their columns, and a COMMIT that moves each across the
// 32-row small-grouping cutoff (one up, one down) keeps that.
TEST(ServerRegistryTest, SealAndCommitKeepColumnsAtEverySize) {
  const size_t n = 32;
  std::string script = "DICT item " + std::to_string(n) + "\n";
  for (size_t v = 0; v < n; ++v) script += "v" + std::to_string(v) + "\n";
  script += "END\n";
  for (const auto& [name, rows] :
       {std::pair<std::string, size_t>{"small", n - 1}, {"large", n}}) {
    script += "LOADU32 " + name + " item\n";
    for (size_t v = 0; v < rows; ++v) script += std::to_string(v) + " : 1\n";
    script += "END\n";
  }
  script += "SEAL\n";
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  ASSERT_EQ(session.HandleScript(script).back().rfind("OK SEAL", 0), 0u);

  auto expect_shape = [&](size_t small_rows, size_t large_rows) {
    std::shared_ptr<const EngineSnapshot> snapshot =
        registry.Peek(registry.Default().get());
    ASSERT_NE(snapshot, nullptr);
    const BagCollection& bags = snapshot->engine()->collection();
    const Bag& small = bags.bag(*snapshot->ResolveBag("small"));
    const Bag& large = bags.bag(*snapshot->ResolveBag("large"));
    EXPECT_EQ(small.SupportSize(), small_rows);
    EXPECT_EQ(large.SupportSize(), large_rows);
    for (const Bag* bag : {&small, &large}) {
      ColumnView view = bag->Columns();
      ASSERT_EQ(view.num_rows(), bag->SupportSize());
      for (size_t r = 0; r < view.num_rows(); ++r) {
        EXPECT_EQ(view.at(r, 0), static_cast<ValueId>(r));
        EXPECT_EQ(bag->MultiplicityData()[r], 1u);
      }
    }
  };
  expect_shape(n - 1, n);

  const std::string last = std::to_string(n - 1);
  std::vector<std::string> replies = session.HandleScript(
      "BEGIN\nINSERT small item\n" + last + " : 1\nEND\n"
      "DELETE large item\n" + last + " : 1\nEND\nCOMMIT\n"
      "TWOBAG small large\n");
  // BEGIN, two buffered blocks, COMMIT, TWOBAG.
  ASSERT_EQ(replies.size(), 5u);
  ASSERT_EQ(replies[3].rfind("OK COMMIT", 0), 0u) << replies[3];
  EXPECT_EQ(replies[4], "OK INCONSISTENT");
  expect_shape(n, n - 1);
}

// The zero-copy twin: a snapshot lazily reloaded from its BAGCSEG
// segment serves the mmap'd columns in place — every reloaded bag is a
// *borrowed* store (no ids copied), and answers stay bit-identical (the thrash differential
// above covers that; this pins the representation).
TEST(ServerRegistryTest, SegmentReloadServesBorrowedColumns) {
  Tenant t{"mmapped", WriteTenantSegment(1), false, {}};
  CollectionRegistry::Options opts;
  opts.mem_budget_bytes = 1;  // evict everything not most-recent
  CollectionRegistry registry(opts);
  ASSERT_EQ(SealTenant(&registry, t).back().rfind("OK SEAL", 0), 0u);
  // Publishing "default" evicts the segment-backed tenant...
  ServerSession other(&registry, nullptr);
  ASSERT_EQ(other
                .HandleScript("DICT item 2\na\nb\nEND\n"
                              "LOADU32 r item\n0 : 1\n1 : 1\nEND\nSEAL\n")
                .back()
                .rfind("OK SEAL", 0),
            0u);
  std::shared_ptr<CollectionRegistry::Collection> c = registry.Find(t.name);
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(registry.Peek(c.get()), nullptr) << "tenant was not evicted";
  // ...and the next query reloads it from the mapping.
  Result<std::shared_ptr<const EngineSnapshot>> reloaded =
      registry.Acquire(c.get());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_NE(*reloaded, nullptr);
  for (const Bag& bag : (*reloaded)->engine()->collection().bags()) {
    std::shared_ptr<const ColumnStore> store = bag.SharedColumns();
    ASSERT_NE(store, nullptr);
    EXPECT_TRUE(store->is_borrowed())
        << "reloaded bag copied its columns instead of borrowing the mmap";
  }
  std::remove(t.seg_path.c_str());
}

// A reload maps the segment path again; when the file there was
// replaced since the seal, its rows are not the sealed base, so the
// reload is refused (E_STATE) instead of serving them.
TEST(ServerRegistryTest, ReloadOfAReplacedSegmentIsRefused) {
  Tenant t{"replaced", WriteTenantSegment(2), false, {}};
  CollectionRegistry::Options opts;
  opts.mem_budget_bytes = 1;  // evict everything not most-recent
  CollectionRegistry registry(opts);
  ASSERT_EQ(SealTenant(&registry, t).back().rfind("OK SEAL", 0), 0u);
  {
    // Same attributes and dictionaries, other multiplicities.
    AttributeCatalog catalog;
    DictionarySet dicts;
    Result<std::vector<Bag>> bags = ParseCollection(TenantBagText(3), &catalog, &dicts);
    ASSERT_TRUE(bags.ok()) << bags.status().ToString();
    ASSERT_TRUE(WriteSegmentFile(t.seg_path, {"left", "right"}, *bags, catalog, dicts).ok());
  }
  ServerSession other(&registry, nullptr);
  ASSERT_EQ(other
                .HandleScript("DICT item 2\na\nb\nEND\n"
                              "LOADU32 r item\n0 : 1\n1 : 1\nEND\nSEAL\n")
                .back(),
            "OK SEAL 1 bags");
  std::shared_ptr<CollectionRegistry::Collection> c = registry.Find(t.name);
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(registry.Peek(c.get()), nullptr) << "tenant was not evicted";
  ServerSession session(&registry, nullptr);
  std::vector<std::string> replies = session.HandleScript("ATTACH " + t.name + "\n" + kQueryScript);
  ASSERT_EQ(replies.front(), "OK ATTACH " + t.name);
  for (size_t i = 1; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].rfind("ERR E_STATE", 0), 0u) << replies[i];
    EXPECT_NE(replies[i].find("was replaced since it was sealed"), std::string::npos)
        << replies[i];
  }
  EXPECT_EQ(registry.Stats(c.get()).reloads, 0u);
  std::remove(t.seg_path.c_str());
}

// A session whose catalog already held a segment attribute name seals a
// slot layout a fresh-catalog reload does not reproduce (region store
// item here, against the segment's item store region). Its SEAL must not
// register the segment as the reload source: after an eviction the
// collection answers E_STATE instead of a reload whose WITNESS columns
// come back reordered.
TEST(ServerRegistryTest, PreInternedSegmentAttributesAreNotReloadable) {
  const std::string seg = WriteTenantSegment(0);
  CollectionRegistry::Options opts;
  opts.mem_budget_bytes = 1;  // evict everything not most-recent
  CollectionRegistry registry(opts);
  ServerSession session(&registry, nullptr);
  std::vector<std::string> sealed = session.HandleScript(
      "LOAD tmp region store\nEND\nDROP tmp\nLOADSEG " + seg + "\nSEAL\n");
  ASSERT_EQ(sealed.back(), "OK SEAL 2 bags");
  ASSERT_FALSE(session.HandleScript(kQueryScript).empty());
  EXPECT_FALSE(registry.Stats(registry.Default().get()).reloadable);

  ServerSession other(&registry, nullptr);
  ASSERT_EQ(other
                .HandleScript("ATTACH other\nDICT item 2\na\nb\nEND\n"
                              "LOADU32 r item\n0 : 1\n1 : 1\nEND\nSEAL\n")
                .back(),
            "OK SEAL 1 bags");
  ASSERT_EQ(registry.Peek(registry.Default().get()), nullptr)
      << "default was not evicted";
  for (const std::string& reply : session.HandleScript(kQueryScript)) {
    EXPECT_EQ(reply.rfind("ERR E_STATE", 0), 0u) << reply;
  }
  EXPECT_EQ(registry.Stats(registry.Default().get()).reloads, 0u);
  std::remove(seg.c_str());
}

// A LOADSEG that fails after its attribute table parsed interns nothing:
// the next LOADSEG of the same attributes still sees a fresh catalog and
// registers its segment as the reload source.
TEST(ServerRegistryTest, FailedLoadSegInternsNothing) {
  AttributeCatalog catalog;
  DictionarySet dicts;
  Result<std::vector<Bag>> bags = ParseCollection(TenantBagText(0), &catalog, &dicts);
  ASSERT_TRUE(bags.ok()) << bags.status().ToString();
  const std::string bad = testing::TempDir() + "registry_index_named.seg";
  ASSERT_TRUE(WriteSegmentFile(bad, {"left", "7"}, *bags, catalog, dicts).ok());
  const std::string good = WriteTenantSegment(0);
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out = session.HandleScript("LOADSEG " + bad + "\n");
  ASSERT_EQ(out.back().rfind("ERR E_PARSE bag name '7'", 0), 0u) << out.back();
  ASSERT_EQ(session.HandleScript("LOADSEG " + good + "\nSEAL\n").back(), "OK SEAL 2 bags");
  EXPECT_TRUE(registry.Stats(registry.Default().get()).reloadable);
  std::remove(bad.c_str());
  std::remove(good.c_str());
}

// Concurrent Acquires of one evicted tenant share a single reload, and
// each receives the snapshot that reload produced — even when it is
// evicted again before Acquire returns (the test hook forces exactly that
// window on every reload). Without single flight, overlapping reloads
// each install and return current_, which the eviction has emptied, and
// the query then fails with "no sealed engine".
TEST(ServerRegistryTest, ConcurrentReloadsOfOneTenantShareOneFlight) {
  constexpr size_t kThreads = 8;
  Tenant t{"flight", WriteTenantSegment(0), false, {}};
  CollectionRegistry::Options opts;
  opts.mem_budget_bytes = 1;  // evict everything not most-recent
  CollectionRegistry registry(opts);
  ASSERT_EQ(SealTenant(&registry, t).back().rfind("OK SEAL", 0), 0u);
  ServerSession other(&registry, nullptr);
  ASSERT_EQ(other
                .HandleScript("DICT item 2\na\nb\nEND\n"
                              "LOADU32 r item\n0 : 1\n1 : 1\nEND\nSEAL\n")
                .back()
                .rfind("OK SEAL", 0),
            0u);
  std::shared_ptr<CollectionRegistry::Collection> c = registry.Find(t.name);
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(registry.Peek(c.get()), nullptr) << "tenant was not evicted";

  registry.SetEvictAfterReloadForTest(true);
  std::atomic<size_t> ready{0};
  std::vector<Result<std::shared_ptr<const EngineSnapshot>>> got(
      kThreads, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[k] = registry.Acquire(c.get());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t k = 0; k < kThreads; ++k) {
    ASSERT_TRUE(got[k].ok()) << got[k].status().ToString();
    ASSERT_NE(*got[k], nullptr) << "Acquire " << k << " returned no engine";
    Result<bool> verdict = (*got[k])->TwoBag(0, 1);
    ASSERT_TRUE(verdict.ok());
    EXPECT_TRUE(*verdict);
  }
  CollectionRegistry::CollectionStats stats = registry.Stats(c.get());
  EXPECT_FALSE(stats.resident);
  EXPECT_GE(stats.reloads, 1u);
  EXPECT_LE(stats.reloads, kThreads);
  EXPECT_EQ(stats.evictions, stats.reloads + 1);
  std::remove(t.seg_path.c_str());
}

}  // namespace
}  // namespace bagc
