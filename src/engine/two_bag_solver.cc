#include "engine/two_bag_solver.h"

#include <algorithm>
#include <vector>

#include "tuple/column_index.h"

namespace bagc {

Result<std::optional<Bag>> TransportationWitness(const Bag& r, const Bag& s) {
  BAGC_ASSIGN_OR_RETURN(TupleJoiner joiner, TupleJoiner::Make(r.schema(), s.schema()));
  // The outer side is visited row by row; the inner side is where each
  // group's northwest-corner cursor walks. The corner rule fills the same
  // cells whichever side is outer (cell (r, s) of a group gets the overlap
  // of their cumulative-multiplicity intervals), so the choice only sets
  // the order the cells come out in, and Bag::JoinVisitsS picks the side
  // that makes it Tuple order when one can.
  const bool s_outer = Bag::JoinVisitsS(r, s, joiner);
  const Bag& outer = s_outer ? s : r;
  const Bag& inner = s_outer ? r : s;
  BAGC_ASSIGN_OR_RETURN(Projector outer_z,
                        Projector::Make(outer.schema(), joiner.shared_schema()));
  BAGC_ASSIGN_OR_RETURN(Projector inner_z,
                        Projector::Make(inner.schema(), joiner.shared_schema()));
  ColumnJoinMatch match(outer.Columns().Select(outer_z),
                        inner.Columns().Select(inner_z));

  // Per Z-group: the cursor's position in the group's inner rows and what
  // that row still has to give.
  const uint64_t* outer_mult = outer.MultiplicityData();
  const uint64_t* inner_mult = inner.MultiplicityData();
  const size_t groups = match.NumGroups();
  std::vector<uint32_t> cursor(groups, 0);
  std::vector<uint64_t> left(groups);
  for (size_t g = 0; g < groups; ++g) left[g] = inner_mult[match.RightRows(g)[0]];
  // Every cell either finishes an outer row or moves a cursor on, so
  // there are at most |outer'| + |inner'| of them (a consistent pair has
  // at most that minus the group count).
  const size_t outer_n = outer.SupportSize();
  const size_t max_cells = outer_n + inner.SupportSize();
  std::vector<uint32_t> outer_rows(max_cells);
  std::vector<uint32_t> inner_rows(max_cells);
  std::vector<uint64_t> mults(max_cells);
  size_t n = 0;
  for (size_t i = 0; i < outer_n; ++i) {
    const uint32_t g = match.MatchOf(i);
    if (g == ColumnJoinMatch::kNoMatch) return std::optional<Bag>();
    const ColumnIndex::Rows rows = match.RightRows(g);
    for (uint64_t need = outer_mult[i]; need > 0; ++n) {
      if (cursor[g] == rows.size()) return std::optional<Bag>();
      const uint64_t take = std::min(need, left[g]);
      outer_rows[n] = static_cast<uint32_t>(i);
      inner_rows[n] = rows[cursor[g]];
      mults[n] = take;
      need -= take;
      left[g] -= take;
      if (left[g] == 0 && ++cursor[g] < rows.size()) left[g] = inner_mult[rows[cursor[g]]];
    }
  }
  for (size_t g = 0; g < groups; ++g) {
    if (cursor[g] != match.RightRows(g).size()) return std::optional<Bag>();
  }
  outer_rows.resize(n);
  inner_rows.resize(n);
  mults.resize(n);
  BAGC_ASSIGN_OR_RETURN(
      Bag witness, Bag::FromJoinPairs(joiner, r, s, s_outer ? inner_rows : outer_rows,
                                      s_outer ? outer_rows : inner_rows, std::move(mults)));
  return std::optional<Bag>(std::move(witness));
}

}  // namespace bagc
