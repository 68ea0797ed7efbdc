#include "flow/network.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace bagc {

namespace {

constexpr size_t kMaxIds = std::numeric_limits<uint32_t>::max();

}  // namespace

FlowNetwork::FlowNetwork(size_t num_vertices)
    : num_vertices_(num_vertices), degree_(num_vertices, 0) {}

Result<FlowNetwork::EdgeId> FlowNetwork::AddEdge(size_t u, size_t v,
                                                 uint64_t capacity) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    return Status::InvalidArgument("flow edge endpoint out of range");
  }
  if (capacity > kUnbounded) {
    return Status::InvalidArgument("capacity exceeds kUnbounded");
  }
  // Endpoints and half-edge ids are stored as u32.
  if (std::max(u, v) > kMaxIds || edges_.size() + 2 > kMaxIds) {
    return Status::ResourceExhausted("flow network exceeds the u32 id range");
  }
  EdgeId id = orig_.size();
  edges_.push_back({capacity, static_cast<uint32_t>(v)});
  edges_.push_back({0, static_cast<uint32_t>(u)});
  orig_.push_back(capacity);
  ++degree_[u];
  ++degree_[v];
  adjacency_stale_ = true;
  return id;
}

void FlowNetwork::BuildAdjacency() {
  adj_start_.resize(num_vertices_ + 1);
  adj_start_[0] = 0;
  for (size_t v = 0; v < num_vertices_; ++v) adj_start_[v + 1] = adj_start_[v] + degree_[v];
  // iter_ doubles as the per-vertex fill cursor; Solve re-seeds it per phase.
  iter_.assign(adj_start_.begin(), adj_start_.end() - 1);
  adj_.resize(edges_.size());
  for (size_t e = 0; e < edges_.size(); ++e) {
    adj_[iter_[edges_[e ^ 1].to]++] = static_cast<uint32_t>(e);
  }
  adjacency_stale_ = false;
}

bool FlowNetwork::Bfs(size_t s, size_t t) {
  level_.assign(num_vertices_, -1);
  bfs_queue_.clear();
  bfs_queue_.push_back(s);
  level_[s] = 0;
  for (size_t qi = 0; qi < bfs_queue_.size(); ++qi) {
    size_t v = bfs_queue_[qi];
    const uint32_t* end = adj_.data() + adj_start_[v + 1];
    for (const uint32_t* it = adj_.data() + adj_start_[v]; it != end; ++it) {
      const Edge& e = edges_[*it];
      if (e.cap > 0 && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        bfs_queue_.push_back(e.to);
      }
    }
  }
  return level_[t] >= 0;
}

uint64_t FlowNetwork::Dfs(size_t v, size_t t, uint64_t limit) {
  if (v == t) return limit;
  const size_t end = adj_start_[v + 1];
  for (size_t& i = iter_[v]; i < end; ++i) {
    size_t eid = adj_[i];
    Edge& e = edges_[eid];
    if (e.cap == 0 || level_[e.to] != level_[v] + 1) continue;
    uint64_t pushed = Dfs(e.to, t, std::min(limit, e.cap));
    if (pushed > 0) {
      e.cap -= pushed;
      edges_[eid ^ 1].cap += pushed;
      return pushed;
    }
  }
  return 0;
}

Result<uint64_t> FlowNetwork::Solve(size_t s, size_t t) {
  if (s >= num_vertices_ || t >= num_vertices_ || s == t) {
    return Status::InvalidArgument("invalid source/sink");
  }
  if (adjacency_stale_) BuildAdjacency();
  // Reset residual capacities to originals.
  for (size_t k = 0; k < orig_.size(); ++k) {
    edges_[2 * k].cap = orig_[k];
    edges_[2 * k + 1].cap = 0;
  }
  uint64_t total = 0;
  while (Bfs(s, t)) {
    iter_.assign(adj_start_.begin(), adj_start_.end() - 1);
    while (uint64_t pushed = Dfs(s, t, kUnbounded)) {
      total += pushed;
    }
  }
  return total;
}

uint64_t FlowNetwork::FlowOn(EdgeId id) const {
  BAGC_DCHECK(id < orig_.size());
  // Forward edge 2*id: flow = original capacity - residual capacity.
  return orig_[id] - edges_[2 * id].cap;
}

uint64_t FlowNetwork::CapacityOf(EdgeId id) const {
  BAGC_DCHECK(id < orig_.size());
  return orig_[id];
}

}  // namespace bagc
