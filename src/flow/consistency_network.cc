#include "flow/consistency_network.h"

#include "tuple/column_index.h"
#include "util/checked_math.h"

namespace bagc {

Result<ConsistencyNetwork> ConsistencyNetwork::Make(const Bag& r, const Bag& s) {
  ConsistencyNetwork cn;
  BAGC_RETURN_NOT_OK(cn.Build(r, s));
  return cn;
}

Status ConsistencyNetwork::Build(const Bag& r, const Bag& s) {
  BAGC_ASSIGN_OR_RETURN(TupleJoiner joiner, TupleJoiner::Make(r.schema(), s.schema()));
  joined_schema_ = joiner.joined_schema();
  slot_sources_ = joiner.slot_sources();
  r_ = r;
  s_ = s;

  // Vertex numbering: 0 = source, 1..|R'| = R tuples, then S tuples, then
  // sink last. The sorted row order gives the mapping directly: the i-th
  // row of R is vertex 1 + i, the j-th row of S is vertex 1 + |R'| + j.
  size_t nr = r.SupportSize();
  size_t ns = s.SupportSize();
  net_ = FlowNetwork(2 + nr + ns);
  source_ = 0;
  sink_ = 1 + nr + ns;

  for (size_t i = 0; i < nr; ++i) {
    uint64_t mult = r.MultiplicityAt(i);
    BAGC_RETURN_NOT_OK(net_.AddEdge(source_, 1 + i, mult).status());
    BAGC_ASSIGN_OR_RETURN(source_capacity_, CheckedAdd(source_capacity_, mult));
  }
  for (size_t j = 0; j < ns; ++j) {
    uint64_t mult = s.MultiplicityAt(j);
    BAGC_RETURN_NOT_OK(net_.AddEdge(1 + nr + j, sink_, mult).status());
    BAGC_ASSIGN_OR_RETURN(sink_capacity_, CheckedAdd(sink_capacity_, mult));
  }
  if (source_capacity_ > FlowNetwork::kUnbounded ||
      sink_capacity_ > FlowNetwork::kUnbounded) {
    return Status::ResourceExhausted("bag cardinalities exceed flow capacity range");
  }

  // Middle edges: one per join tuple of the supports, grouped via a
  // columnar hash join on the shared attributes — gather just the shared
  // columns of both sides, index S's, and resolve every R row in one
  // ProbeAll batch. An edge is its (R row, S row) pair; the join tuple is
  // only ever assembled column-wise, by ExtractWitness.
  BAGC_ASSIGN_OR_RETURN(Projector r_shared,
                        Projector::Make(r.schema(), joiner.shared_schema()));
  BAGC_ASSIGN_OR_RETURN(Projector s_shared,
                        Projector::Make(s.schema(), joiner.shared_schema()));
  ColumnJoinMatch match(r.Columns().Select(r_shared),
                        s.Columns().Select(s_shared));
  first_middle_ = net_.num_edges();
  for (size_t i = 0; i < nr; ++i) {
    if (match.MatchOf(i) == ColumnJoinMatch::kNoMatch) continue;
    for (uint32_t j : match.RightRows(match.MatchOf(i))) {
      BAGC_RETURN_NOT_OK(
          net_.AddEdge(1 + i, 1 + nr + j, FlowNetwork::kUnbounded).status());
      middle_.emplace_back(static_cast<uint32_t>(i), j);
    }
  }
  return Status::OK();
}

Result<bool> ConsistencyNetwork::HasSaturatedFlow() {
  if (source_capacity_ != sink_capacity_) {
    // A saturated flow must move exactly both totals; different totals make
    // saturation impossible (and indeed R[Z] != S[Z] then).
    return false;
  }
  BAGC_ASSIGN_OR_RETURN(uint64_t value, net_.Solve(source_, sink_));
  return value == source_capacity_;
}

Result<Bag> ConsistencyNetwork::ExtractWitness() const {
  std::vector<size_t> kept;
  std::vector<uint64_t> mults;
  for (size_t i = 0; i < middle_.size(); ++i) {
    uint64_t f = net_.FlowOn(MiddleEdgeId(i));
    if (f > 0) {
      kept.push_back(i);
      mults.push_back(f);
    }
  }
  // Gather the joined columns of the kept edges, one column at a time.
  const size_t n = kept.size();
  const size_t arity = slot_sources_.size();
  std::vector<ValueId> data(n * arity);
  for (size_t c = 0; c < arity; ++c) {
    const auto& [from_r, slot] = slot_sources_[c];
    ValueId* dst = data.data() + c * n;
    for (size_t k = 0; k < n; ++k) {
      const auto& [ri, sj] = middle_[kept[k]];
      dst[k] = from_r ? r_.IdAt(ri, slot) : s_.IdAt(sj, slot);
    }
  }
  ColumnStore columns = ColumnStore::FromColumnMajor(std::move(data), n, arity);
  // Edges enumerate by (R row, S row). When R's slots lead the joined
  // order that is already Tuple order and the columns seal as they are;
  // otherwise group them (every join tuple is distinct, so grouping only
  // sorts).
  ColumnView view = columns.View();
  bool ascending = true;
  for (size_t k = 1; k < n && ascending; ++k) {
    ascending = view.CompareRows(k - 1, view, k) < 0;
  }
  if (ascending) {
    return Bag::FromColumnar(joined_schema_, std::move(columns), std::move(mults));
  }
  return Bag::GroupColumns(joined_schema_, view, mults.data(), n);
}

}  // namespace bagc
