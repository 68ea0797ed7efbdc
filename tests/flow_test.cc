// Unit tests for the max-flow substrate and the consistency network N(R,S).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bag/bag.h"
#include "flow/consistency_network.h"
#include "flow/network.h"
#include "generators/workloads.h"
#include "util/random.h"

namespace bagc {
namespace {

TEST(FlowNetworkTest, SingleEdge) {
  FlowNetwork net(2);
  auto e = net.AddEdge(0, 1, 5);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*net.Solve(0, 1), 5u);
  EXPECT_EQ(net.FlowOn(*e), 5u);
}

TEST(FlowNetworkTest, BottleneckPath) {
  // 0 -> 1 -> 2 with capacities 7 and 3: max flow 3.
  FlowNetwork net(3);
  ASSERT_TRUE(net.AddEdge(0, 1, 7).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, 3).ok());
  EXPECT_EQ(*net.Solve(0, 2), 3u);
}

TEST(FlowNetworkTest, ParallelPathsAndResiduals) {
  // Classic diamond requiring the residual edge: s=0, t=3.
  // 0->1 (1), 0->2 (1), 1->3 (1), 2->3 (1), 1->2 (1): max flow 2.
  FlowNetwork net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1).ok());
  ASSERT_TRUE(net.AddEdge(0, 2, 1).ok());
  ASSERT_TRUE(net.AddEdge(1, 3, 1).ok());
  ASSERT_TRUE(net.AddEdge(2, 3, 1).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, 1).ok());
  EXPECT_EQ(*net.Solve(0, 3), 2u);
}

TEST(FlowNetworkTest, DisconnectedHasZeroFlow) {
  FlowNetwork net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 9).ok());
  ASSERT_TRUE(net.AddEdge(2, 3, 9).ok());
  EXPECT_EQ(*net.Solve(0, 3), 0u);
}

TEST(FlowNetworkTest, Validation) {
  FlowNetwork net(2);
  EXPECT_FALSE(net.AddEdge(0, 5, 1).ok());
  EXPECT_FALSE(net.Solve(0, 0).ok());
  EXPECT_FALSE(net.Solve(0, 9).ok());
}

TEST(FlowNetworkTest, FlowConservation) {
  // Random bipartite-ish network: check conservation at inner vertices by
  // re-deriving flows from FlowOn.
  Rng rng(17);
  size_t left = 5, right = 5;
  FlowNetwork net(2 + left + right);
  size_t s = 0, t = 1 + left + right;
  std::vector<FlowNetwork::EdgeId> edges;
  std::vector<std::pair<size_t, size_t>> endpoints;
  for (size_t i = 0; i < left; ++i) {
    edges.push_back(*net.AddEdge(s, 1 + i, rng.Range(1, 10)));
    endpoints.push_back({s, 1 + i});
  }
  for (size_t j = 0; j < right; ++j) {
    edges.push_back(*net.AddEdge(1 + left + j, t, rng.Range(1, 10)));
    endpoints.push_back({1 + left + j, t});
  }
  for (size_t i = 0; i < left; ++i) {
    for (size_t j = 0; j < right; ++j) {
      if (rng.Chance(1, 2)) {
        edges.push_back(*net.AddEdge(1 + i, 1 + left + j, FlowNetwork::kUnbounded));
        endpoints.push_back({1 + i, 1 + left + j});
      }
    }
  }
  uint64_t value = *net.Solve(s, t);
  std::vector<int64_t> balance(net.num_vertices(), 0);
  for (size_t k = 0; k < edges.size(); ++k) {
    uint64_t f = net.FlowOn(edges[k]);
    EXPECT_LE(f, net.CapacityOf(edges[k]));
    balance[endpoints[k].first] -= static_cast<int64_t>(f);
    balance[endpoints[k].second] += static_cast<int64_t>(f);
  }
  for (size_t v = 0; v < net.num_vertices(); ++v) {
    if (v == s) {
      EXPECT_EQ(balance[v], -static_cast<int64_t>(value));
    } else if (v == t) {
      EXPECT_EQ(balance[v], static_cast<int64_t>(value));
    } else {
      EXPECT_EQ(balance[v], 0) << "vertex " << v;
    }
  }
}

TEST(ConsistencyNetworkTest, ConsistentPairSaturates) {
  Bag r = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 1}, {{2, 2}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{2, 1}, 1}, {{2, 2}, 1}});
  ConsistencyNetwork net = *ConsistencyNetwork::Make(r, s);
  EXPECT_EQ(net.SourceCapacity(), 2u);
  EXPECT_EQ(net.SinkCapacity(), 2u);
  EXPECT_EQ(net.NumMiddleEdges(), 4u);  // both R-tuples join both S-tuples
  EXPECT_TRUE(*net.HasSaturatedFlow());
  Bag witness = *net.ExtractWitness();
  EXPECT_EQ(*witness.Marginal(r.schema()), r);
  EXPECT_EQ(*witness.Marginal(s.schema()), s);
}

TEST(ConsistencyNetworkTest, MismatchedTotalsDoNotSaturate) {
  Bag r = *MakeBag(Schema{{0}}, {{{1}, 3}});
  Bag s = *MakeBag(Schema{{1}}, {{{1}, 2}});
  ConsistencyNetwork net = *ConsistencyNetwork::Make(r, s);
  EXPECT_FALSE(*net.HasSaturatedFlow());
}

TEST(ConsistencyNetworkTest, InconsistentSharedMarginalsDoNotSaturate) {
  // Equal totals but different shared marginals.
  Bag r = *MakeBag(Schema{{0, 1}}, {{{0, 0}, 2}, {{1, 1}, 1}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{0, 0}, 1}, {{1, 1}, 2}});
  ConsistencyNetwork net = *ConsistencyNetwork::Make(r, s);
  EXPECT_FALSE(*net.HasSaturatedFlow());
}

TEST(ConsistencyNetworkTest, RandomConsistentPairsAlwaysSaturate) {
  Rng rng(23);
  BagGenOptions options;
  options.support_size = 24;
  options.domain_size = 4;
  for (int trial = 0; trial < 30; ++trial) {
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    ConsistencyNetwork net = *ConsistencyNetwork::Make(r, s);
    EXPECT_TRUE(*net.HasSaturatedFlow());
    Bag witness = *net.ExtractWitness();
    EXPECT_EQ(*witness.Marginal(r.schema()), r);
    EXPECT_EQ(*witness.Marginal(s.schema()), s);
  }
}

// Extracted witnesses are sealed in Tuple order, including for a schema
// pair whose flow edges do not enumerate in joined order (R over {0,2}, S
// over {1,2}).
TEST(ConsistencyNetworkTest, ExtractedWitnessesAreSortedForEveryLayout) {
  Rng rng(41);
  for (size_t support : {48, 6, 96, 1, 64}) {
    BagGenOptions options;
    options.support_size = support;
    options.domain_size = 5;
    for (const auto& [x, y] : {std::pair<Schema, Schema>{Schema{{0, 1}}, Schema{{1, 2}}},
                               {Schema{{0, 2}}, Schema{{1, 2}}}}) {
      auto [r, s] = *MakeConsistentPair(x, y, options, &rng);
      ConsistencyNetwork net = *ConsistencyNetwork::Make(r, s);
      ASSERT_TRUE(*net.HasSaturatedFlow());
      Bag witness = *net.ExtractWitness();
      ASSERT_EQ(witness.Columns().num_rows(), witness.SupportSize());
      for (size_t e = 1; e < witness.SupportSize(); ++e) {
        EXPECT_TRUE(witness.RowAt(e - 1) < witness.RowAt(e)) << "row " << e;
      }
      EXPECT_EQ(*witness.Marginal(r.schema()), r);
      EXPECT_EQ(*witness.Marginal(s.schema()), s);
    }
  }
}

}  // namespace
}  // namespace bagc
