// The network N(R, S) of §3: source -> support tuples of R (capacity R(r))
// -> middle edges for each join tuple t in R' ⋈ S' (unbounded capacity) ->
// support tuples of S (capacity S(s)) -> sink. R and S are consistent iff
// N(R, S) admits a saturated flow (Lemma 2, (1) <=> (5)); an integral
// saturated flow *is* a witness bag.
//
// Served witnesses do not come from here: engine/two_bag_solver.h builds
// them as northwest-corner transportation vertices without a network.
// N(R, S) stays as the Lemma 2(5) / Corollary 1 oracle the tests compare
// those witnesses against.
//
// A middle edge is recorded as the (R row, S row) pair it joins — two
// u32s, never a materialized join Tuple. ExtractWitness gathers the
// joined columns of the positive-flow edges straight from the bags' ids
// and seals them columnar.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bag/bag.h"
#include "flow/network.h"
#include "tuple/tuple.h"
#include "util/result.h"

namespace bagc {

/// \brief N(R, S) plus the bookkeeping to map flows back to witness bags.
class ConsistencyNetwork {
 public:
  /// Builds N(R, S). Fails on schema errors or overflowing capacities.
  /// Keeps a (refcounted, copy-free) handle on both bags for
  /// ExtractWitness.
  static Result<ConsistencyNetwork> Make(const Bag& r, const Bag& s);

  /// Sum of source-side capacities (= ||R||_u); a flow saturates iff its
  /// value equals this and also equals ||S||_u.
  uint64_t SourceCapacity() const { return source_capacity_; }
  uint64_t SinkCapacity() const { return sink_capacity_; }

  size_t NumMiddleEdges() const { return middle_.size(); }

  /// Runs max-flow; returns true iff a saturated flow exists.
  Result<bool> HasSaturatedFlow();

  /// After a successful HasSaturatedFlow() == true, extracts the witness
  /// bag T(XY) with T(t) = flow on t's middle edge, in Tuple order.
  Result<Bag> ExtractWitness() const;

  const Schema& joined_schema() const { return joined_schema_; }

 private:
  ConsistencyNetwork() : net_(0) {}
  Status Build(const Bag& r, const Bag& s);

  FlowNetwork::EdgeId MiddleEdgeId(size_t i) const { return first_middle_ + i; }

  FlowNetwork net_;
  Bag r_;
  Bag s_;
  Schema joined_schema_;
  // Per joined slot: (read from R, source slot) — TupleJoiner's plan.
  std::vector<std::pair<bool, size_t>> slot_sources_;
  // Middle edge i joins R row middle_[i].first with S row .second; its
  // flow edge is first_middle_ + i (middle edges are added last, in order).
  std::vector<std::pair<uint32_t, uint32_t>> middle_;
  FlowNetwork::EdgeId first_middle_ = 0;
  uint64_t source_capacity_ = 0;
  uint64_t sink_capacity_ = 0;
  size_t source_ = 0;
  size_t sink_ = 0;
};

}  // namespace bagc
