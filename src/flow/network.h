// Flow networks and Dinic's max-flow algorithm: the saturated-flow form of
// Lemma 2 (two-bag consistency), kept as an independent oracle for the
// northwest-corner witnesses of engine/two_bag_solver.h. Capacities and
// flows are exact 64-bit integers; the integrality theorem for max flow
// then yields integer witnesses directly.
//
// Storage is flat: every edge lives in a single array, and the adjacency
// is a CSR index (one offset per vertex plus an edge-id array) derived
// from it by a stable counting sort on the tail vertex — degrees are
// counted as edges are added — whenever the edge set changed since the
// last Solve.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/result.h"

namespace bagc {

/// \brief Directed flow network with integer capacities.
///
/// Edges are added in pairs (forward + residual back-edge). EdgeIds returned
/// by AddEdge are stable and can be used to read back the flow on specific
/// edges after Solve().
class FlowNetwork {
 public:
  using EdgeId = size_t;

  /// Capacity value treated as "unbounded" (paper: the middle edges of
  /// N(R,S) have very large capacity).
  static constexpr uint64_t kUnbounded = std::numeric_limits<uint64_t>::max() / 4;

  explicit FlowNetwork(size_t num_vertices);

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size() / 2; }

  /// Adds a directed edge u -> v with the given capacity; returns its id.
  Result<EdgeId> AddEdge(size_t u, size_t v, uint64_t capacity);

  /// Computes a maximum s-t flow (Dinic, O(V^2 E)); returns its value.
  /// Resets any previous flow.
  Result<uint64_t> Solve(size_t s, size_t t);

  /// Flow currently on edge `id` (after Solve).
  uint64_t FlowOn(EdgeId id) const;

  /// Capacity of edge `id`.
  uint64_t CapacityOf(EdgeId id) const;

 private:
  // One half-edge; 16 bytes, so the residual graph Dinic walks is dense.
  struct Edge {
    uint64_t cap;  // residual capacity
    uint32_t to;
  };

  // Rebuilds the CSR index from edges_. Half-edge e has tail
  // edges_[e ^ 1].to; the counting sort is stable, so each vertex lists
  // its half-edges in AddEdge order and Dinic pushes the same flow an
  // adjacency-list build would.
  void BuildAdjacency();
  bool Bfs(size_t s, size_t t);
  uint64_t Dfs(size_t v, size_t t, uint64_t limit);

  size_t num_vertices_ = 0;
  std::vector<Edge> edges_;        // edge 2k = forward, 2k+1 = back
  std::vector<uint64_t> orig_;     // original capacity of edge k
  std::vector<size_t> adj_start_;  // CSR: vertex v's half-edges are
  std::vector<uint32_t> adj_;      //   adj_[adj_start_[v] .. adj_start_[v+1])
  std::vector<uint32_t> degree_;   // half-edges per tail vertex, kept by AddEdge
  bool adjacency_stale_ = true;
  std::vector<int> level_;
  std::vector<size_t> iter_;
  std::vector<size_t> bfs_queue_;  // scratch, reused across Bfs calls
};

}  // namespace bagc
