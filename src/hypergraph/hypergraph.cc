#include "hypergraph/hypergraph.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace bagc {

void Graph::AddEdge(size_t u, size_t v) {
  BAGC_DCHECK(u < n_ && v < n_ && u != v);
  if (!adj_[u * n_ + v]) {
    adj_[u * n_ + v] = true;
    adj_[v * n_ + u] = true;
    ++degree_[u];
    ++degree_[v];
  }
}

size_t Graph::num_edges() const {
  size_t total = std::accumulate(degree_.begin(), degree_.end(), size_t{0});
  return total / 2;
}

std::vector<size_t> Graph::Neighbors(size_t v) const {
  std::vector<size_t> out;
  out.reserve(degree_[v]);
  for (size_t u = 0; u < n_; ++u) {
    if (adj_[v * n_ + u]) out.push_back(u);
  }
  return out;
}

bool Graph::IsConnected() const {
  if (n_ == 0) return true;
  std::vector<bool> seen(n_, false);
  std::vector<size_t> stack = {0};
  seen[0] = true;
  size_t count = 1;
  while (!stack.empty()) {
    size_t v = stack.back();
    stack.pop_back();
    for (size_t u : Neighbors(v)) {
      if (!seen[u]) {
        seen[u] = true;
        ++count;
        stack.push_back(u);
      }
    }
  }
  return count == n_;
}

namespace {

// Canonical edge order: sorted lexicographically, deduplicated.
void Canonicalize(std::vector<Schema>* edges) {
  std::sort(edges->begin(), edges->end());
  edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
}

}  // namespace

Result<Hypergraph> Hypergraph::Make(Schema vertices, std::vector<Schema> edges) {
  for (const Schema& e : edges) {
    if (e.empty()) return Status::InvalidArgument("hyperedge must be non-empty");
    if (!e.IsSubsetOf(vertices)) {
      return Status::InvalidArgument("hyperedge mentions vertex outside V: " +
                                     e.ToString());
    }
  }
  Canonicalize(&edges);
  Hypergraph h;
  h.vertices_ = std::move(vertices);
  h.edges_ = std::move(edges);
  return h;
}

Result<Hypergraph> Hypergraph::FromEdges(std::vector<Schema> edges) {
  Schema vertices = Schema::UnionAll(edges);
  return Make(std::move(vertices), std::move(edges));
}

size_t Hypergraph::VertexDegree(AttrId a) const {
  size_t d = 0;
  for (const Schema& e : edges_) {
    if (e.Contains(a)) ++d;
  }
  return d;
}

Graph Hypergraph::PrimalGraph() const {
  Graph g(vertices_.arity());
  for (const Schema& e : edges_) {
    for (size_t i = 0; i < e.arity(); ++i) {
      for (size_t j = i + 1; j < e.arity(); ++j) {
        auto iu = vertices_.IndexOf(e.at(i));
        auto iv = vertices_.IndexOf(e.at(j));
        BAGC_DCHECK(iu.ok() && iv.ok());
        g.AddEdge(*iu, *iv);
      }
    }
  }
  return g;
}

Hypergraph Hypergraph::Reduction() const {
  std::vector<Schema> kept;
  for (const Schema& e : edges_) {
    bool covered = false;
    for (const Schema& f : edges_) {
      if (&e != &f && e.IsSubsetOf(f) && e != f) {
        covered = true;
        break;
      }
    }
    if (!covered) kept.push_back(e);
  }
  Hypergraph h;
  h.vertices_ = vertices_;
  h.edges_ = std::move(kept);
  return h;
}

bool Hypergraph::IsReduced() const { return Reduction().edges_.size() == edges_.size(); }

Hypergraph Hypergraph::Induce(const Schema& w) const {
  std::vector<Schema> edges;
  edges.reserve(edges_.size());
  for (const Schema& e : edges_) {
    Schema cut = Schema::Intersect(e, w);
    if (!cut.empty()) edges.push_back(std::move(cut));
  }
  Canonicalize(&edges);
  Hypergraph h;
  h.vertices_ = Schema::Intersect(vertices_, w);
  h.edges_ = std::move(edges);
  return h;
}

Hypergraph Hypergraph::DeleteVertex(AttrId a) const {
  return Induce(Schema::Difference(vertices_, Schema{{a}}));
}

Result<Hypergraph> Hypergraph::DeleteEdge(const Schema& e) const {
  auto it = std::find(edges_.begin(), edges_.end(), e);
  if (it == edges_.end()) {
    return Status::NotFound("edge not in hypergraph: " + e.ToString());
  }
  Hypergraph h;
  h.vertices_ = vertices_;
  h.edges_ = edges_;
  h.edges_.erase(h.edges_.begin() + (it - edges_.begin()));
  return h;
}

bool Hypergraph::EdgeIsCovered(const Schema& e) const {
  if (std::find(edges_.begin(), edges_.end(), e) == edges_.end()) return false;
  for (const Schema& f : edges_) {
    if (f != e && e.IsSubsetOf(f)) return true;
  }
  return false;
}

std::optional<size_t> Hypergraph::UniformityDegree() const {
  if (edges_.empty()) return std::nullopt;
  size_t k = edges_[0].arity();
  for (const Schema& e : edges_) {
    if (e.arity() != k) return std::nullopt;
  }
  return k;
}

std::optional<size_t> Hypergraph::RegularityDegree() const {
  if (vertices_.empty()) return std::nullopt;
  size_t d = VertexDegree(vertices_.at(0));
  for (size_t i = 1; i < vertices_.arity(); ++i) {
    if (VertexDegree(vertices_.at(i)) != d) return std::nullopt;
  }
  return d;
}

std::optional<std::vector<AttrId>> Hypergraph::MatchCycle() const {
  size_t n = num_vertices();
  if (n < 3 || num_edges() != n) return std::nullopt;
  for (const Schema& e : edges_) {
    if (e.arity() != 2) return std::nullopt;
  }
  Graph g = PrimalGraph();
  for (size_t v = 0; v < n; ++v) {
    if (g.Degree(v) != 2) return std::nullopt;
  }
  if (!g.IsConnected()) return std::nullopt;
  // With n distinct 2-edges on a connected 2-regular graph, H is the cycle.
  // Walk it to produce the cyclic vertex enumeration.
  std::vector<AttrId> order;
  order.reserve(n);
  size_t prev = n;  // sentinel
  size_t cur = 0;
  for (size_t step = 0; step < n; ++step) {
    order.push_back(vertices_.at(cur));
    std::vector<size_t> nbrs = g.Neighbors(cur);
    size_t next = (nbrs[0] == prev) ? nbrs[1] : nbrs[0];
    prev = cur;
    cur = next;
  }
  return order;
}

std::optional<std::vector<AttrId>> Hypergraph::MatchHn() const {
  size_t n = num_vertices();
  if (n < 3 || num_edges() != n) return std::nullopt;
  // Each edge must be V \ {A} for a distinct vertex A.
  std::vector<bool> seen(n, false);
  for (const Schema& e : edges_) {
    Schema missing = Schema::Difference(vertices_, e);
    if (missing.arity() != 1) return std::nullopt;
    auto idx = vertices_.IndexOf(missing.at(0));
    BAGC_DCHECK(idx.ok());
    if (seen[*idx]) return std::nullopt;
    seen[*idx] = true;
  }
  return vertices_.attrs();
}

std::string Hypergraph::ToString() const {
  std::string out = "H(V=" + vertices_.ToString() + ", E={";
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i > 0) out += ", ";
    out += edges_[i].ToString();
  }
  out += "})";
  return out;
}

}  // namespace bagc
