// Hypergraphs H = (V, E) whose hyperedges are attribute sets (paper §4).
// Provides the structural operations the paper's proofs rely on: primal
// graph, reduction R(H), induced sub-hypergraph H[W], vertex/edge deletion,
// uniformity/regularity predicates, and structural matchers for the
// "minimal obstruction" families Cn and Hn.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tuple/schema.h"
#include "util/result.h"

namespace bagc {

/// \brief Undirected graph on a fixed vertex list (used for primal graphs).
///
/// Vertices are indexed 0..n-1; the mapping to attribute ids is owned by the
/// hypergraph that built the graph.
class Graph {
 public:
  explicit Graph(size_t n) : n_(n), adj_(n * n, false), degree_(n, 0) {}

  size_t num_vertices() const { return n_; }
  void AddEdge(size_t u, size_t v);
  bool HasEdge(size_t u, size_t v) const { return adj_[u * n_ + v]; }
  size_t Degree(size_t v) const { return degree_[v]; }
  size_t num_edges() const;

  /// Neighbor indices of v in increasing order.
  std::vector<size_t> Neighbors(size_t v) const;

  /// True iff the graph is connected (n == 0 counts as connected).
  bool IsConnected() const;

 private:
  size_t n_;
  std::vector<bool> adj_;
  std::vector<size_t> degree_;
};

/// \brief A hypergraph over attribute vertices.
///
/// Hyperedges are non-empty attribute sets, stored sorted and deduplicated.
/// The vertex set may strictly contain the union of the hyperedges (vertex
/// deletion keeps isolated vertices out by re-inducing, but construction
/// allows explicit vertex sets).
class Hypergraph {
 public:
  Hypergraph() = default;

  /// Builds from explicit vertices and edges. Fails if an edge is empty or
  /// mentions a vertex outside V.
  static Result<Hypergraph> Make(Schema vertices, std::vector<Schema> edges);

  /// Vertices := union of the edges.
  static Result<Hypergraph> FromEdges(std::vector<Schema> edges);

  const Schema& vertices() const { return vertices_; }
  const std::vector<Schema>& edges() const { return edges_; }
  size_t num_vertices() const { return vertices_.arity(); }
  size_t num_edges() const { return edges_.size(); }

  /// Number of hyperedges containing vertex `a`.
  size_t VertexDegree(AttrId a) const;

  /// Primal (Gaifman) graph: vertices of H, an edge between two distinct
  /// vertices that co-occur in some hyperedge. Index i of the Graph is
  /// vertices().at(i).
  Graph PrimalGraph() const;

  /// Reduction R(H): drops hyperedges contained in another hyperedge.
  Hypergraph Reduction() const;
  bool IsReduced() const;

  /// Induced sub-hypergraph H[W]: vertex set W, edges {X ∩ W} \ {∅}.
  Hypergraph Induce(const Schema& w) const;

  /// H \ u — vertex deletion (a safe-deletion operation).
  Hypergraph DeleteVertex(AttrId a) const;

  /// H \ e — edge deletion. Only "covered" edge deletions are safe in the
  /// Lemma 4 sense; this primitive does not check cover.
  Result<Hypergraph> DeleteEdge(const Schema& e) const;

  /// True iff `e` is an edge and is contained in a *different* edge.
  bool EdgeIsCovered(const Schema& e) const;

  /// k such that all edges have exactly k vertices, if uniform.
  std::optional<size_t> UniformityDegree() const;
  /// d such that all vertices lie in exactly d edges, if regular.
  std::optional<size_t> RegularityDegree() const;

  /// If H ≅ Cn (n ≥ 3): vertex list A1..An in cyclic order s.t. edges are
  /// exactly {Ai, Ai+1} (indices mod n).
  std::optional<std::vector<AttrId>> MatchCycle() const;

  /// If H ≅ Hn (n ≥ 3): the vertex enumeration (edges are exactly the
  /// complements of single vertices).
  std::optional<std::vector<AttrId>> MatchHn() const;

  bool operator==(const Hypergraph& o) const {
    return vertices_ == o.vertices_ && edges_ == o.edges_;
  }
  bool operator!=(const Hypergraph& o) const { return !(*this == o); }

  std::string ToString() const;

 private:
  Schema vertices_;
  std::vector<Schema> edges_;  // sorted lexicographically, unique
};

}  // namespace bagc
