// The golden WITNESS inputs, shared by the suites that pin the reply
// bytes (server_protocol_test) and that decode them back
// (witness_codec_test). Each case publishes a sealed collection into a
// registry's default collection and returns the WITNESS requests whose
// replies are pinned. The four cases:
//   0. the 8-bag, 4,096-rows-per-bag path the tenant_churn benchmark
//      serves (dictionary values, loaded from a segment);
//   1. a pair whose cells do not enumerate in joined-tuple order (R over
//      {a0,a2}, S over {a1,a2});
//   2. a pair of codec side-table values (negative and >= 2^31), whose
//      order is value order, not id order;
//   3. a dense pair with many witnesses, so the bytes also pin which
//      vertex of P(R, S) the northwest-corner rule picks.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bag/bag_io.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "server/collection_registry.h"
#include "server/engine_snapshot.h"
#include "server/protocol.h"
#include "server/session.h"
#include "tuple/segment.h"
#include "util/random.h"

namespace bagc {
namespace witness_golden {

inline constexpr size_t kCases = 4;

inline Request WitnessRequest(size_t i, size_t j, bool minimal) {
  Request request;
  request.verb = Verb::kWitness;
  request.bag_i = std::to_string(i);
  request.bag_j = std::to_string(j);
  request.minimal = minimal;
  return request;
}

// The WITNESS replies to `requests`, sent through a fresh text session and
// a fresh binary session on `registry`'s default collection: {text bytes,
// frame bytes}, each reply appended in request order.
inline std::pair<std::string, std::string> WitnessReplies(
    CollectionRegistry* registry, const std::vector<Request>& requests) {
  std::pair<std::string, std::string> out;
  ServerSession text(registry, nullptr);
  ServerSession binary(registry, nullptr);
  std::string upgraded;
  binary.HandleData("UPGRADE BINARY\n", &upgraded);
  EXPECT_EQ(upgraded, "OK UPGRADE BINARY\n");
  for (const Request& request : requests) {
    size_t before = out.first.size();
    text.HandleData(EncodeTextRequest(request), &out.first);
    EXPECT_EQ(out.first.compare(before, 11, "OK WITNESS "), 0)
        << out.first.substr(before, 80);
    Result<std::string> frame = EncodeRequestFrame(request);
    EXPECT_TRUE(frame.ok());
    binary.HandleData(*frame, &out.second);
  }
  return out;
}

// Publishes two bags over attributes 0..2 (named a0..a2) into
// `registry`'s default collection. Values decode through `dicts` where it
// has the attribute, else through the codec.
inline void PublishPair(CollectionRegistry* registry, Bag r, Bag s,
                        std::shared_ptr<DictionarySet> dicts = nullptr) {
  EngineSnapshot::BuildInputs inputs;
  for (const char* name : {"a0", "a1", "a2"}) inputs.catalog.Intern(name);
  inputs.names = {"r", "s"};
  inputs.bags.push_back(std::move(r));
  inputs.bags.push_back(std::move(s));
  inputs.dicts = dicts != nullptr ? std::move(dicts) : std::make_shared<DictionarySet>();
  CollectionRegistry::Collection* c = registry->Default().get();
  Result<std::shared_ptr<const EngineSnapshot>> snapshot =
      EngineSnapshot::Build(std::move(inputs), c->NextSeq());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(registry->Publish(c, *snapshot, {}, false).ok());
}

// Both directions of a pair, and the minimal witness of the first.
inline std::vector<Request> PairRequests() {
  return {WitnessRequest(0, 1, false), WitnessRequest(0, 1, true),
          WitnessRequest(1, 0, false)};
}

// Publishes golden case `k` (see the top of this file) into `registry`;
// case 0 writes its segment to `segment_path`, which the caller removes.
inline std::vector<Request> PublishCase(size_t k, CollectionRegistry* registry,
                                        const std::string& segment_path) {
  if (k == 0) {
    Hypergraph path = *MakePath(9);
    AttributeCatalog catalog;
    DictionarySet dicts;
    Schema all = Schema::UnionAll(path.edges());
    for (AttrId a : all.attrs()) {
      while (catalog.size() <= a) catalog.Intern("a" + std::to_string(catalog.size()));
    }
    Rng rng(2021);
    BagGenOptions options;
    options.support_size = 4096;
    options.domain_size = 4096;
    options.max_multiplicity = 8;
    Bag numeric = *MakeRandomBag(all, options, &rng);
    BagBuilder builder(all);
    std::vector<std::string> tokens(all.arity());
    for (size_t e = 0; e < numeric.SupportSize(); ++e) {
      Tuple t = numeric.RowAt(e);
      for (size_t c = 0; c < all.arity(); ++c) tokens[c] = "v" + std::to_string(t.at(c));
      EXPECT_TRUE(builder.AddExternal(tokens, numeric.MultiplicityAt(e), &dicts).ok());
    }
    Bag witness = *builder.Build();
    std::vector<std::string> names;
    std::vector<Bag> bags;
    for (const Schema& edge : path.edges()) {
      names.push_back("b" + std::to_string(bags.size()));
      bags.push_back(*witness.Marginal(edge));
    }
    EXPECT_TRUE(WriteSegmentFile(segment_path, names, bags, catalog, dicts).ok());
    ServerSession loader(registry, nullptr);
    std::vector<std::string> sealed =
        loader.HandleScript("LOADSEG " + segment_path + "\nSEAL\n");
    EXPECT_EQ(sealed.back(), "OK SEAL 8 bags");
    std::vector<Request> requests;
    for (size_t i = 0; i + 1 < bags.size(); ++i) {
      requests.push_back(WitnessRequest(i, i + 1, false));
    }
    return requests;
  }
  if (k == 1) {
    PublishPair(registry,
                *MakeBag(Schema{{0, 2}}, {{{0, 1}, 1}, {{0, 2}, 2}, {{1, 1}, 3}, {{2, 2}, 1}}),
                *MakeBag(Schema{{1, 2}}, {{{5, 1}, 1}, {{3, 2}, 2}, {{7, 1}, 3}, {{4, 2}, 1}}));
  } else if (k == 2) {
    PublishPair(registry,
                *MakeBag(Schema{{0, 1}}, {{{-7, 3000000000}, 1},
                                          {{5, -2}, 2},
                                          {{3000000001, -2}, 1},
                                          {{-1, 9}, 2}}),
                *MakeBag(Schema{{1, 2}}, {{{3000000000, -1}, 1},
                                          {{-2, 4}, 1},
                                          {{-2, 4000000000}, 2},
                                          {{9, -3}, 2}}));
  } else {
    Rng rng(16);
    BagGenOptions options;
    options.support_size = 60;
    options.domain_size = 4;
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    PublishPair(registry, std::move(r), std::move(s));
  }
  return PairRequests();
}

}  // namespace witness_golden
}  // namespace bagc
