// Concurrent-session differential for the bagcd server: N clients over
// real sockets issue mixed queries (TWOBAG / PAIRWISE / GLOBAL / KWISE /
// WITNESS) against one shared sealed engine, and every verdict, failing
// pair, failing subset, and witness (down to its multiplicities) must be
// bit-identical to the single-shot core/ path computed locally on the
// same interned collection. A second scenario thrashes RESET/re-SEAL
// generation swaps under live query load: in-flight queries must finish
// on the generation they started with — every answer is either the
// expected verdict or the documented E_STATE gap, never a wrong verdict
// and never a torn response. Runs under the ASan/UBSan matrix leg via
// the `differential` ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bag/bag_io.h"
#include "core/global.h"
#include "core/pairwise.h"
#include "core/two_bag.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "server/bagcd_server.h"
#include "server/client.h"
#include "server/session.h"
#include "util/random.h"

namespace bagc {
namespace {

// A numeric generator collection re-skinned as string data: every value
// becomes a per-attribute token interned through one shared
// DictionarySet, so the local collection and the one the server builds
// from DICT + LOADU32 streams are id-identical by construction.
struct StringCollection {
  BagCollection collection;
  AttributeCatalog catalog;
  std::shared_ptr<DictionarySet> dicts;
  std::vector<std::string> names;
};

std::string Token(AttrId a, Value v) {
  return "attr" + std::to_string(a) + "_val" + std::to_string(v);
}

StringCollection InternAsStrings(const BagCollection& numeric) {
  StringCollection out;
  out.dicts = std::make_shared<DictionarySet>();
  for (AttrId a : numeric.union_schema().attrs()) {
    out.catalog.Intern("a" + std::to_string(a));
  }
  std::vector<Bag> bags;
  for (const Bag& b : numeric.bags()) {
    BagBuilder builder(b.schema());
    builder.Reserve(b.SupportSize());
    for (size_t e = 0; e < b.SupportSize(); ++e) {
      Tuple t = b.RowAt(e);
      std::vector<std::string> row(b.schema().arity());
      for (size_t i = 0; i < row.size(); ++i) {
        row[i] = Token(b.schema().at(i), t.at(i));
      }
      EXPECT_TRUE(builder.AddExternal(row, b.MultiplicityAt(e), out.dicts.get()).ok());
    }
    bags.push_back(*builder.Build());
    out.names.push_back("bag" + std::to_string(out.names.size()));
  }
  out.collection = *BagCollection::Make(std::move(bags));
  return out;
}

// All single-shot reference answers for one collection.
struct Expected {
  std::vector<std::vector<bool>> two_bag;  // [i][j]
  bool pairwise = true;
  std::pair<size_t, size_t> failing_pair{0, 0};
  bool global = true;
  bool kwise = true;
  std::optional<std::vector<size_t>> failing_subset;
  // Minimal witnesses for consistent pairs (empty optional elsewhere).
  std::vector<std::vector<std::optional<Bag>>> witness;
};

Expected ComputeExpected(const BagCollection& c, size_t kwise_k) {
  Expected e;
  size_t m = c.size();
  e.two_bag.assign(m, std::vector<bool>(m, true));
  e.witness.assign(m, std::vector<std::optional<Bag>>(m));
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      e.two_bag[i][j] = *AreConsistent(c.bag(i), c.bag(j));
      if (e.two_bag[i][j] && i < j) {
        e.witness[i][j] = *FindMinimalWitness(c.bag(i), c.bag(j));
      }
    }
  }
  std::pair<size_t, size_t> failing{0, 0};
  e.pairwise = *ArePairwiseConsistent(c, &failing);
  if (!e.pairwise) e.failing_pair = failing;
  e.global = *IsGloballyConsistent(c);
  e.kwise = *AreKWiseConsistent(c, kwise_k, &e.failing_subset);
  return e;
}

// Ships the collection over one client connection and seals it.
void UploadAndSeal(BagcdClient* client, const StringCollection& sc,
                   size_t seal_threads) {
  for (const Bag& bag : sc.collection.bags()) {
    ASSERT_TRUE(
        client->ShipDictionaries(*sc.dicts, bag.schema(), sc.catalog).ok());
  }
  for (size_t i = 0; i < sc.collection.size(); ++i) {
    ASSERT_TRUE(
        client->LoadBagU32(sc.names[i], sc.collection.bag(i), sc.catalog).ok());
  }
  Result<size_t> sealed = client->Seal(/*canonical=*/false, seal_threads);
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  ASSERT_EQ(*sealed, sc.collection.size());
}

// Thread-safe capture of the first divergence, so a failure in CI names
// the query and both answers instead of just counting.
struct FailureLog {
  std::atomic<int> count{0};
  std::mutex mu;
  std::string first;
  void Record(const std::string& what) {
    ++count;
    std::lock_guard<std::mutex> lock(mu);
    if (first.empty()) first = what;
  }
};

// One client's full mixed-query pass; every answer checked bit-exactly.
// Witnesses decode through `dicts`, this client's own clone of sc.dicts:
// ParseBag interns every value it reads, and ValueDictionary counts each
// Intern call (hits included), so a shared set would be a data race.
void RunMixedQueries(const std::string& host, uint16_t port,
                     const StringCollection& sc, DictionarySet* dicts,
                     const Expected& e, size_t kwise_k, FailureLog* failures) {
  Result<BagcdClient> client = BagcdClient::Connect(host, port);
  if (!client.ok()) {
    failures->Record("connect: " + client.status().ToString());
    return;
  }
  size_t m = sc.collection.size();
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      Result<bool> verdict = client->TwoBag(i, j);
      if (!verdict.ok() || *verdict != e.two_bag[i][j]) {
        failures->Record(
            "TWOBAG " + std::to_string(i) + " " + std::to_string(j) + ": " +
            (verdict.ok() ? "wrong verdict" : verdict.status().ToString()));
        return;
      }
    }
  }
  Result<std::optional<std::pair<size_t, size_t>>> pairwise = client->Pairwise();
  if (!pairwise.ok() || pairwise->has_value() == e.pairwise ||
      (pairwise->has_value() && **pairwise != e.failing_pair)) {
    failures->Record("PAIRWISE: " + (pairwise.ok() ? "wrong verdict/pair"
                                                   : pairwise.status().ToString()));
    return;
  }
  Result<bool> global = client->Global();
  if (!global.ok() || *global != e.global) {
    failures->Record("GLOBAL: " + (global.ok() ? "wrong verdict"
                                               : global.status().ToString()));
    return;
  }
  Result<std::optional<std::vector<size_t>>> kwise = client->KWise(kwise_k);
  if (!kwise.ok() || kwise->has_value() == e.kwise ||
      (kwise->has_value() && **kwise != *e.failing_subset)) {
    failures->Record("KWISE: " + (kwise.ok() ? "wrong verdict/subset"
                                             : kwise.status().ToString()));
    return;
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      Result<std::optional<std::vector<std::string>>> witness =
          client->Witness(i, j, /*minimal=*/true);
      if (!witness.ok() || witness->has_value() != e.two_bag[i][j]) {
        failures->Record(
            "WITNESS " + std::to_string(i) + " " + std::to_string(j) + ": " +
            (witness.ok() ? "presence mismatch" : witness.status().ToString()));
        return;
      }
      if (!witness->has_value()) continue;
      // Decode the wire block and compare multiplicities bit-exactly.
      AttributeCatalog catalog = sc.catalog;
      size_t pos = 0;
      Result<Bag> decoded = ParseBag(**witness, &pos, &catalog, dicts);
      if (!decoded.ok() || *decoded != *e.witness[i][j]) {
        failures->Record("WITNESS " + std::to_string(i) + " " +
                         std::to_string(j) + ": " +
                         (decoded.ok() ? "multiplicities differ"
                                       : decoded.status().ToString()));
        return;
      }
    }
  }
}

TEST(ServerConcurrentTest, MixedQueriesBitIdenticalAcrossClients) {
  struct Scenario {
    const char* name;
    BagCollection numeric;
    size_t kwise_k;
  };
  Rng rng(20260727);
  BagGenOptions gen;
  gen.support_size = 48;
  gen.domain_size = 6;
  gen.max_multiplicity = 64;

  std::vector<Scenario> scenarios;
  // Acyclic and consistent by construction (hidden witness).
  scenarios.push_back(
      {"acyclic_consistent", *MakeGloballyConsistentCollection(*MakePath(5), gen, &rng),
       3});
  // Acyclic with one perturbed bag: some pair must fail.
  {
    BagCollection c = *MakeGloballyConsistentCollection(*MakePath(4), gen, &rng);
    std::vector<Bag> bags(c.bags());
    Bag perturbed = bags[1];
    EXPECT_TRUE(
        perturbed.Set(bags[1].RowAt(0), bags[1].MultiplicityAt(0) + 3).ok());
    bags[1] = perturbed;
    scenarios.push_back({"acyclic_perturbed", *BagCollection::Make(std::move(bags)), 2});
  }
  // Cyclic (triangle): GLOBAL runs the exact P(R1..Rm) feasibility path.
  {
    BagGenOptions small = gen;
    small.support_size = 12;
    small.domain_size = 3;
    small.max_multiplicity = 4;
    scenarios.push_back(
        {"cyclic_triangle",
         *MakeGloballyConsistentCollection(*MakeCycle(3), small, &rng), 3});
  }

  for (Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    StringCollection sc = InternAsStrings(scenario.numeric);
    Expected expected = ComputeExpected(sc.collection, scenario.kwise_k);

    BagcdServerOptions options;
    options.query_threads = 4;  // fan queries out on the shared pool
    Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    {
      Result<BagcdClient> uploader =
          BagcdClient::Connect("127.0.0.1", (*server)->port());
      ASSERT_TRUE(uploader.ok()) << uploader.status().ToString();
      UploadAndSeal(&*uploader, sc, /*seal_threads=*/2);
    }

    constexpr size_t kClients = 6;  // acceptance floor is 4 concurrent clients
    FailureLog failures;
    std::vector<DictionarySet> client_dicts;
    for (size_t t = 0; t < kClients; ++t) client_dicts.push_back(sc.dicts->Clone());
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        RunMixedQueries("127.0.0.1", (*server)->port(), sc, &client_dicts[t],
                        expected, scenario.kwise_k, &failures);
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.count.load(), 0)
        << scenario.name << ": first divergence: " << failures.first;
    (*server)->Shutdown();
  }
}

TEST(ServerConcurrentTest, GenerationSwapsUnderLoadNeverTearAnswers) {
  Rng rng(424242);
  BagGenOptions gen;
  gen.support_size = 32;
  gen.domain_size = 5;
  gen.max_multiplicity = 32;
  StringCollection sc =
      InternAsStrings(*MakeGloballyConsistentCollection(*MakePath(4), gen, &rng));
  Expected expected = ComputeExpected(sc.collection, 2);

  BagcdServerOptions options;
  options.query_threads = 2;
  Result<std::unique_ptr<BagcdServer>> server = BagcdServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<BagcdClient> admin = BagcdClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(admin.ok());
  UploadAndSeal(&*admin, sc, 1);

  std::atomic<bool> stop{false};
  FailureLog wrong;
  std::atomic<int> answered{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      Result<BagcdClient> client =
          BagcdClient::Connect("127.0.0.1", (*server)->port());
      if (!client.ok()) {
        wrong.Record("connect: " + client.status().ToString());
        return;
      }
      size_t m = sc.collection.size();
      while (!stop.load()) {
        for (size_t i = 0; i < m && !stop.load(); ++i) {
          for (size_t j = i + 1; j < m; ++j) {
            Result<bool> verdict = client->TwoBag(i, j);
            if (verdict.ok()) {
              // A real verdict must be THE verdict: every generation
              // seals the same collection.
              if (*verdict != expected.two_bag[i][j]) {
                wrong.Record("TWOBAG " + std::to_string(i) + " " +
                             std::to_string(j) + ": wrong verdict");
              }
              ++answered;
            } else if (verdict.status().message().find("E_STATE") ==
                       std::string::npos) {
              // The only legal failure is the documented RESET gap.
              wrong.Record("TWOBAG " + std::to_string(i) + " " +
                           std::to_string(j) + ": " +
                           verdict.status().ToString());
            }
          }
        }
      }
    });
  }
  // Thrash generations: unpublish and re-seal the same data repeatedly
  // while the readers hammer the registry.
  for (int cycle = 0; cycle < 10; ++cycle) {
    Result<std::vector<std::string>> reset = admin->Command("RESET");
    ASSERT_TRUE(reset.ok());
    ASSERT_EQ(reset->front(), "OK RESET");
    for (size_t i = 0; i < sc.collection.size(); ++i) {
      ASSERT_TRUE(
          admin->LoadBagU32(sc.names[i], sc.collection.bag(i), sc.catalog).ok());
    }
    Result<size_t> sealed = admin->Seal();
    ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  }
  // The last generation stays published: give the readers (which may
  // still be connecting when fast seals finish) time to answer on it.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (answered.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.count.load(), 0) << "first divergence: " << wrong.first;
  EXPECT_GT(answered.load(), 0);
  (*server)->Shutdown();
}

// A SEAL that loses the publish race to a newer generation must surface
// the retryable E_STATE — not a silent drop of the loser's snapshot
// (the pre-fix behavior: the session answered OK while the registry
// discarded its engine, so the client queried a generation it never
// built). The race is made deterministic with the registry's test hook;
// the racing-seals loop below exercises the same path under real
// concurrency.
TEST(ServerConcurrentTest, SupersededSealSurfacesRetryableEState) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out = session.HandleScript(
      "DICT item 2\napple\nbanana\nEND\n"
      "LOADU32 r item\n0 : 2\n1 : 1\nEND\n"
      "LOADU32 s item\n0 : 2\n1 : 1\nEND\n");
  for (const std::string& line : out) {
    ASSERT_EQ(line.rfind("OK", 0), 0u) << line;
  }

  // Deterministic stand-in for a concurrent seal winning mid-build:
  // exactly the next SEAL takes a seq at or below the high-water mark.
  registry.MarkNextSealSupersededForTest(registry.Default().get());
  out = session.HandleScript("SEAL\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("superseded"), std::string::npos) << out[0];
  EXPECT_NE(out[0].find("retry SEAL"), std::string::npos) << out[0];
  // The loser's snapshot was never published.
  EXPECT_EQ(registry.Peek(registry.Default().get()), nullptr);

  // The documented recovery: the retry takes a fresh seq and wins.
  out = session.HandleScript("SEAL\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK SEAL 2 bags");
  EXPECT_EQ(out[1], "OK CONSISTENT");
}

// Many sessions sealing the same collection at once: every response is
// either OK SEAL or the retryable E_STATE, at least one seal wins, and
// the surviving generation answers queries.
TEST(ServerConcurrentTest, RacingSealsEitherWinOrAskForRetry) {
  CollectionRegistry registry;
  constexpr size_t kSealers = 4;
  std::atomic<int> won{0};
  FailureLog bad;
  std::vector<std::thread> sealers;
  for (size_t t = 0; t < kSealers; ++t) {
    sealers.emplace_back([&registry, &won, &bad] {
      ServerSession session(&registry, nullptr);
      std::vector<std::string> loaded = session.HandleScript(
          "DICT item 2\napple\nbanana\nEND\n"
          "LOADU32 r item\n0 : 2\n1 : 1\nEND\n"
          "LOADU32 s item\n0 : 2\n1 : 1\nEND\n");
      for (int round = 0; round < 8; ++round) {
        std::vector<std::string> out = session.HandleScript("SEAL\n");
        if (out.size() != 1) {
          bad.Record("SEAL answered " + std::to_string(out.size()) + " lines");
          return;
        }
        if (out[0].rfind("OK SEAL 2 bags", 0) == 0) {
          ++won;
        } else if (out[0].rfind("ERR E_STATE", 0) != 0 ||
                   out[0].find("retry SEAL") == std::string::npos) {
          bad.Record("SEAL: " + out[0]);
          return;
        }
      }
    });
  }
  for (std::thread& t : sealers) t.join();
  EXPECT_EQ(bad.count.load(), 0) << "first divergence: " << bad.first;
  EXPECT_GT(won.load(), 0);
  ServerSession reader(&registry, nullptr);
  std::vector<std::string> verdict = reader.HandleScript("TWOBAG r s\n");
  ASSERT_EQ(verdict.size(), 1u);
  EXPECT_EQ(verdict[0], "OK CONSISTENT");
}

// A delta commit on an evicted collection must answer the retryable
// E_STATE, not silently reload (deriving a generation may never touch
// the reload path) and not corrupt the session's staged copy.
TEST(ServerConcurrentTest, MutationOnEvictedCollectionIsRetryableEState) {
  CollectionRegistry::Options options;
  options.mem_budget_bytes = 1;  // any second publish evicts the first
  CollectionRegistry registry(options);

  ServerSession victim(&registry, nullptr);
  std::vector<std::string> out = victim.HandleScript(
      "ATTACH tenant_a\n"
      "DICT item 2\napple\nbanana\nEND\n"
      "LOADU32 r item\n0 : 2\nEND\n"
      "LOADU32 s item\n0 : 2\nEND\n"
      "SEAL\n");
  ASSERT_EQ(out.back(), "OK SEAL 2 bags");

  // A second tenant publishes; the 1-byte budget evicts tenant_a (the
  // most recent publish is exempt, the cold one goes).
  ServerSession other(&registry, nullptr);
  out = other.HandleScript(
      "ATTACH tenant_b\n"
      "DICT item 2\napple\nbanana\nEND\n"
      "LOADU32 r item\n0 : 1\nEND\n"
      "SEAL\n");
  ASSERT_EQ(out.back(), "OK SEAL 1 bags");

  // The victim's generation is gone: the delta is refused with the
  // documented retryable message.
  out = victim.HandleScript("INSERT r item\n1 : 3\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("not resident"), std::string::npos) << out[0];

  // The documented recovery: re-SEAL (which re-publishes and evicts
  // tenant_b in turn; the evicted generation is gone, so nothing is
  // reused), then the delta commits incrementally.
  out = victim.HandleScript("SEAL\nINSERT r item\n1 : 3\nEND\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "OK SEAL 2 bags");
  EXPECT_EQ(out[1], "OK INSERT r 1 rows 2 bags 1 reused");
  EXPECT_EQ(out[2], "OK INCONSISTENT");
}

// A delta publishes only onto the generation it was built from. Once
// another session sealed the collection, a commit from the first session
// stages into its loaded bags: publishing it would replace the newer
// generation, and its rows, with the first session's.
TEST(ServerConcurrentTest, CommitAfterAnotherSessionsSealStages) {
  CollectionRegistry registry;
  const std::string dict = "DICT item 2\napple\nbanana\nEND\n";
  ServerSession a(&registry, nullptr);
  ServerSession b(&registry, nullptr);
  ASSERT_EQ(a.HandleScript(dict + "LOADU32 r item\n0 : 2\nEND\n"
                                  "LOADU32 s item\n0 : 2\nEND\nSEAL\n")
                .back(),
            "OK SEAL 2 bags");
  ASSERT_EQ(b.HandleScript(dict + "LOADU32 r item\n1 : 2\nEND\n"
                                  "LOADU32 s item\n1 : 2\nEND\nSEAL\n")
                .back(),
            "OK SEAL 2 bags");

  std::vector<std::string> out = a.HandleScript("INSERT r item\n0 : 3\nEND\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "OK INSERT r 1 rows staged");

  ServerSession reader(&registry, nullptr);
  EXPECT_EQ(reader.HandleScript("WITNESS r s\n"),
            (std::vector<std::string>{"OK WITNESS 1", "bag item", "banana : 2", "end",
                                      "END"}));
}

// Another session's generation lends nothing, even where row identity
// cannot tell the sessions apart. Its dictionary clone can have as many
// values as the session's, and its empty bags match empty bags over the
// same schema. A re-SEAL still decodes through the session's own values,
// and a commit stages rather than publish the session's ids into it.
TEST(ServerConcurrentTest, AnotherSessionsGenerationLendsNothing) {
  CollectionRegistry registry;
  ServerSession a(&registry, nullptr);
  ServerSession b(&registry, nullptr);
  const std::string bags =
      "LOADU32 r item\n0 : 2\nEND\nLOADU32 s item\n0 : 2\nEND\nSEAL\n";
  ASSERT_EQ(a.HandleScript("DICT item 2\napple\nbanana\nEND\n" + bags).back(),
            "OK SEAL 2 bags");
  ASSERT_EQ(b.HandleScript("DICT item 2\ncherry\ndate\nEND\n" + bags).back(),
            "OK SEAL 2 bags");
  EXPECT_EQ(b.HandleScript("WITNESS r s\n"),
            (std::vector<std::string>{"OK WITNESS 1", "bag item", "cherry : 2", "end",
                                      "END"}));
  EXPECT_EQ(a.HandleScript("SEAL\nWITNESS r s\n"),
            (std::vector<std::string>{"OK SEAL 2 bags", "OK WITNESS 1", "bag item",
                                      "apple : 2", "end", "END"}));

  const std::string empty = "LOADU32 r item\nEND\nLOADU32 s item\nEND\nSEAL\n";
  ASSERT_EQ(a.HandleScript("RESET\n" + empty).back(), "OK SEAL 2 bags");
  ASSERT_EQ(b.HandleScript("RESET\n" + empty).back(), "OK SEAL 2 bags");
  EXPECT_EQ(a.HandleScript("INSERT r item\n0 : 1\nEND\n"),
            std::vector<std::string>{"OK INSERT r 1 rows staged"});
}

// A delta publish that loses the chain race answers the retryable
// E_STATE and mutates nothing — the deterministic stand-in for a
// concurrent seal winning between the head check and publish.
TEST(ServerConcurrentTest, SupersededDeltaPublishIsRetryable) {
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out = session.HandleScript(
      "DICT item 2\napple\nbanana\nEND\n"
      "LOADU32 r item\n0 : 2\nEND\n"
      "LOADU32 s item\n0 : 2\nEND\n"
      "SEAL\n");
  ASSERT_EQ(out.back(), "OK SEAL 2 bags");

  registry.MarkNextSealSupersededForTest(registry.Default().get());
  out = session.HandleScript("INSERT r item\n1 : 1\nEND\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR E_STATE", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("superseded"), std::string::npos) << out[0];
  EXPECT_EQ(out[1], "OK CONSISTENT");  // nothing published, bag intact

  // The retry (a fresh seq) wins and carries the delta.
  out = session.HandleScript("INSERT r item\n1 : 1\nEND\nTWOBAG r s\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK INSERT r 1 rows 2 bags 1 reused");
  EXPECT_EQ(out[1], "OK INCONSISTENT");
}

// Readers holding the pre-delta generation finish on it bit-identically
// while delta commits publish successors: snapshots are immutable, so a
// commit may never disturb an in-flight query's answers. Concurrent
// reader threads additionally hammer the registry during the commits —
// every answer must be one of the two legal generations' verdicts.
TEST(ServerConcurrentTest, ReadersOnOldGenerationSurviveDeltaPublishes) {
  CollectionRegistry registry;
  ServerSession admin(&registry, nullptr);
  std::vector<std::string> out = admin.HandleScript(
      "DICT item 2\napple\nbanana\nEND\n"
      "LOADU32 r item\n0 : 2\nEND\n"
      "LOADU32 s item\n0 : 2\nEND\n"
      "SEAL\n");
  ASSERT_EQ(out.back(), "OK SEAL 2 bags");

  // Pin the pre-delta generation the way an in-flight query does and
  // record its answers.
  std::shared_ptr<const EngineSnapshot> pinned =
      registry.Peek(registry.Default().get());
  ASSERT_NE(pinned, nullptr);
  ASSERT_TRUE(*pinned->TwoBag(0, 1));
  std::string pinned_witness =
      pinned->WriteBagText(**pinned->Witness(0, 1, /*minimal=*/true));

  std::atomic<bool> stop{false};
  FailureLog wrong;
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&registry, &stop, &wrong] {
      ServerSession reader(&registry, nullptr);
      while (!stop.load()) {
        std::vector<std::string> verdict = reader.HandleScript("TWOBAG r s\n");
        if (verdict.size() != 1 ||
            (verdict[0] != "OK CONSISTENT" && verdict[0] != "OK INCONSISTENT")) {
          wrong.Record("TWOBAG answered '" +
                       (verdict.empty() ? std::string("<nothing>") : verdict[0]) +
                       "'");
          return;
        }
      }
    });
  }
  // Alternate INSERT/DELETE of the same rows: generations flip between
  // the consistent base and the inconsistent +delta state.
  for (int cycle = 0; cycle < 20; ++cycle) {
    const char* script = (cycle % 2 == 0) ? "INSERT r item\n1 : 3\nEND\n"
                                          : "DELETE r item\n1 : 3\nEND\n";
    out = admin.HandleScript(script);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].rfind("OK", 0), 0u) << out[0];
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.count.load(), 0) << "first divergence: " << wrong.first;

  // The pinned generation never moved: same verdict, same witness bytes.
  EXPECT_TRUE(*pinned->TwoBag(0, 1));
  EXPECT_EQ(pinned_witness,
            pinned->WriteBagText(**pinned->Witness(0, 1, /*minimal=*/true)));
  EXPECT_EQ(pinned->seq(), 1u);
  // Twenty commits later the served generation is number 21.
  EXPECT_EQ(registry.Peek(registry.Default().get())->seq(), 21u);
}

// Delta commits derive each generation from one on which cyclic GLOBALs
// may still be solving, without waiting for them: the solve only reads
// the engine the commit derives from (the TSan leg checks that). Commits
// flip a triangle between a globally consistent state and a pairwise
// consistent but globally inconsistent one, so every GLOBAL really
// solves; each answer must be one of the two verdicts.
TEST(ServerConcurrentTest, CyclicGlobalsRaceDeltaCommitsSafely) {
  CollectionRegistry registry;
  ServerSession admin(&registry, nullptr);
  std::vector<std::string> out = admin.HandleScript(
      "DICT a 2\nx\ny\nEND\nDICT b 2\nx\ny\nEND\nDICT c 2\nx\ny\nEND\n"
      "LOADU32 r a b\n0 0 : 1\n1 1 : 1\nEND\n"
      "LOADU32 s b c\n0 0 : 1\n1 1 : 1\nEND\n"
      "LOADU32 t a c\n0 0 : 1\n1 1 : 1\nEND\n"
      "SEAL\nGLOBAL\n");
  ASSERT_EQ(out.back(), "OK CONSISTENT");

  std::atomic<bool> stop{false};
  FailureLog wrong;
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&registry, &stop, &wrong] {
      ServerSession reader(&registry, nullptr);
      while (!stop.load()) {
        std::vector<std::string> verdict = reader.HandleScript("GLOBAL\n");
        if (verdict.size() != 1 ||
            (verdict[0] != "OK CONSISTENT" && verdict[0] != "OK INCONSISTENT")) {
          wrong.Record("GLOBAL answered '" +
                       (verdict.empty() ? std::string("<nothing>") : verdict[0]) + "'");
          return;
        }
      }
    });
  }
  const std::string diagonal = "0 0 : 1\n1 1 : 1\n";
  const std::string twisted = "0 1 : 1\n1 0 : 1\n";
  for (int cycle = 0; cycle < 20; ++cycle) {
    const bool twist = cycle % 2 == 0;
    out = admin.HandleScript("BEGIN\nDELETE t a c\n" + (twist ? diagonal : twisted) +
                             "END\nINSERT t a c\n" + (twist ? twisted : diagonal) +
                             "END\nCOMMIT\nGLOBAL\n");
    if (out.size() != 5 || out[3].rfind("OK COMMIT", 0) != 0) {
      ADD_FAILURE() << "cycle " << cycle << " did not commit: "
                    << (out.size() > 3 ? out[3] : std::string("<short answer>"));
      break;  // still stop and join the readers
    }
    EXPECT_EQ(out[4], twist ? "OK INCONSISTENT" : "OK CONSISTENT") << "cycle " << cycle;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.count.load(), 0) << "first divergence: " << wrong.first;
}

// Three tenants: an acyclic path r(a,b) - s(b,c), and two copies of the
// triangle r(a,b) s(b,c) t(a,c), which is pairwise consistent but not
// globally consistent (the cyclic solve runs; it is not prefiltered).
constexpr const char* kPathTenant =
    "ATTACH path\n"
    "LOAD r a b\n0 0 : 1\n1 1 : 1\nEND\n"
    "LOAD s b c\n0 0 : 1\n1 1 : 1\nEND\n"
    "SEAL\n";
constexpr const char* kTriangleBags =
    "LOAD r a b\n0 0 : 1\n1 1 : 1\nEND\n"
    "LOAD s b c\n0 0 : 1\n1 1 : 1\nEND\n"
    "LOAD t a c\n0 1 : 1\n1 0 : 1\nEND\n"
    "SEAL\n";

void LoadTenants(CollectionRegistry* registry) {
  for (std::string script : {std::string(kPathTenant), "ATTACH warm\n" + std::string(kTriangleBags),
                             "ATTACH cold\n" + std::string(kTriangleBags)}) {
    ServerSession admin(registry, nullptr);  // loaded bags are per session
    for (const std::string& line : admin.HandleScript(script)) {
      EXPECT_EQ(line.rfind("OK", 0), 0u) << line;
    }
  }
}

// One query against `collection` from a fresh session over `pool`
// (nullptr: pool-less), on its own thread.
std::future<std::vector<std::string>> Ask(CollectionRegistry* registry, ThreadPool* pool,
                                          const std::string& collection,
                                          const std::string& query) {
  return std::async(std::launch::async, [=] {
    ServerSession session(registry, pool);
    std::vector<std::string> out = session.HandleScript("ATTACH " + collection + "\n" + query);
    if (!out.empty()) out.erase(out.begin());  // OK ATTACH
    return out;
  });
}

// Which verbs answer on the connection thread and which hand off to the
// query pool. The pool's only worker is parked on a latch, so a verb
// that answers before the latch opens never touched the pool: the
// lookups of verdicts decided at seal (TWOBAG by Lemma 2(2), PAIRWISE,
// GLOBAL by Theorem 2 or once a cyclic solve has run). A cyclic GLOBAL's
// first solve, KWISE and WITNESS must still be pending. Every answer
// equals a pool-less session's on an identical registry.
TEST(ServerConcurrentTest, SealedLookupsAnswerInlineAndSearchesWaitForThePool) {
  CollectionRegistry registry;
  CollectionRegistry oracle;
  LoadTenants(&registry);
  LoadTenants(&oracle);
  // The warm triangle's GLOBAL has run once, on a pool-less session.
  ServerSession warmer(&registry, nullptr);
  EXPECT_EQ(warmer.HandleScript("ATTACH warm\nGLOBAL\n").back(), "OK INCONSISTENT");

  struct Query {
    std::string collection;
    std::string verb;
  };
  const std::vector<Query> inline_queries = {
      {"path", "TWOBAG r s\n"}, {"path", "PAIRWISE\n"}, {"path", "GLOBAL\n"},
      {"warm", "TWOBAG r t\n"}, {"warm", "PAIRWISE\n"}, {"warm", "GLOBAL\n"},
  };
  const std::vector<Query> pool_queries = {
      {"cold", "GLOBAL\n"}, {"path", "KWISE 2\n"}, {"path", "WITNESS r s\n"},
  };
  auto expected = [&oracle](const Query& q) {
    return Ask(&oracle, nullptr, q.collection, q.verb).get();
  };

  ThreadPool pool(1);
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  pool.Submit([&parked, latch] {
    parked.set_value();
    latch.wait();
  });
  parked.get_future().wait();

  std::vector<std::future<std::vector<std::string>>> pending;
  for (const Query& q : pool_queries) {
    pending.push_back(Ask(&registry, &pool, q.collection, q.verb));
  }
  for (const Query& q : inline_queries) {
    std::future<std::vector<std::string>> answer = Ask(&registry, &pool, q.collection, q.verb);
    if (answer.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      ADD_FAILURE() << q.collection << " " << q.verb << " waited for the parked pool";
      pending.push_back(std::move(answer));  // joined after the release
      continue;
    }
    EXPECT_EQ(answer.get(), expected(q)) << q.collection << " " << q.verb;
  }
  // The only worker is parked, so these cannot have completed.
  for (size_t p = 0; p < pool_queries.size(); ++p) {
    EXPECT_EQ(pending[p].wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout)
        << pool_queries[p].collection << " " << pool_queries[p].verb
        << " answered without the query pool";
  }
  release.set_value();
  for (size_t p = 0; p < pool_queries.size(); ++p) {
    EXPECT_EQ(pending[p].get(), expected(pool_queries[p]))
        << pool_queries[p].collection << " " << pool_queries[p].verb;
  }
  for (size_t p = pool_queries.size(); p < pending.size(); ++p) pending[p].get();
}

}  // namespace
}  // namespace bagc
