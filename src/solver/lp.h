// The linear program P(R1, ..., Rm) of Equations (3) and (14): one variable
// x_t per tuple t in the join J = R'1 ⋈ ... ⋈ R'm of the supports, and one
// equality row per (bag i, support tuple r) requiring the marginal of x on
// Xi to match Ri. Integral solutions are exactly the witnesses of global
// consistency.
#pragma once

#include <cstdint>
#include <vector>

#include "bag/bag.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "util/result.h"

namespace bagc {

/// One equality constraint: sum of the listed variables equals rhs.
struct LpRow {
  /// Which input bag this row marginalizes onto.
  size_t bag_index;
  /// The support tuple r of that bag.
  Tuple marginal_tuple;
  /// Ri(r).
  uint64_t rhs;
  /// Indices into ConsistencyLp::variables of the join tuples t with
  /// t[Xi] == r.
  std::vector<uint32_t> vars;
};

/// \brief P(R1, ..., Rm) in explicit sparse form.
struct ConsistencyLp {
  Schema joined_schema;
  /// The join tuples t ∈ J, in deterministic (sorted) order.
  std::vector<Tuple> variables;
  std::vector<LpRow> rows;

  /// Total number of non-zeros of the constraint matrix.
  size_t NumNonZeros() const;
};

/// Builds P(R1, ..., Rm). The join of the supports can be exponentially
/// large (Example 1); construction aborts with ResourceExhausted once the
/// join support exceeds `max_join_support`.
Result<ConsistencyLp> BuildConsistencyLp(const std::vector<Bag>& bags,
                                         size_t max_join_support = 1u << 22);

/// Builds the same rows but over a caller-chosen variable set (tuples over
/// the union schema). Used for restricted-support feasibility questions
/// (minimal witnesses, Carathéodory-style pruning).
Result<ConsistencyLp> BuildLpWithVariables(const std::vector<Bag>& bags,
                                           std::vector<Tuple> variables);

}  // namespace bagc
