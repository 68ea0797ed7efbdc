// The linear program P(R1, ..., Rm) of Equations (3) and (14): one variable
// x_t per tuple t in the join J = R'1 ⋈ ... ⋈ R'm of the supports, and one
// equality row per (bag i, support tuple r) requiring the marginal of x on
// Xi to match Ri. Integral solutions are exactly the witnesses of global
// consistency.
//
// Layout. The variables are J's sorted rows held as columns (variable v is
// row v). The rows are CSR: row k sums the variables
// vars[offsets[k] .. offsets[k+1]) (u32 ids, ascending) and names its bag,
// its support row of that bag and its rhs, so no row holds a Tuple. Every
// variable sits in exactly one row per bag, so the program has m·|J|
// non-zeros. Rows come bag by bag, each bag's in support order.
//
// Construction builds no Tuple either. J is a bag-order fold that keeps
// provenance rather than columns: after each step, every partial row knows
// which support row of each bag so far it joins. A step matches the shared
// attributes through ColumnJoinMatch and refuses, from the group sizes
// alone and before anything is gathered, when it would pass
// max_join_support. The provenance then is each row's support row per bag,
// so the rows fall out of one counting sort per bag. (A Bag::Join fold
// over 0/1 copies would seal every intermediate, sort those whose layout
// interleaves, and need one more match per bag to find the rows: about
// three times the allocations and the time.)
#pragma once

#include <cstdint>
#include <vector>

#include "bag/bag.h"
#include "tuple/column_store.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "util/result.h"

namespace bagc {

/// \brief The variables of P(R1, ..., Rm): the join tuples t ∈ J, sorted
/// ascending and column-major over the joined schema. Variable v is row v.
struct LpVariables {
  ColumnStore columns;

  size_t size() const { return columns.num_rows(); }
  bool empty() const { return size() == 0; }
  /// Variable v's join tuple. Cold paths only (tests, witness pruning).
  Tuple RowAt(size_t v) const { return columns.RowAt(v); }
};

/// \brief The equality rows of P(R1, ..., Rm) in CSR form: row k is
/// "Σ x_v over v in Vars(k) = rhs[k]".
struct LpRows {
  /// support_row of a rhs-0 row that pins to zero the variables whose
  /// projection onto the bag is one tuple outside its support. Only
  /// BuildLpWithVariables emits such rows: every tuple of J projects into
  /// every support.
  static constexpr uint32_t kOutsideSupport = 0xFFFFFFFFu;

  /// One run of ascending variable ids.
  struct Vars {
    const uint32_t* first = nullptr;
    size_t count = 0;
    const uint32_t* begin() const { return first; }
    const uint32_t* end() const { return first + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    uint32_t operator[](size_t i) const { return first[i]; }
  };

  /// Per row: the input bag it marginalizes onto, ...
  std::vector<uint32_t> bag;
  /// ... the support row r of that bag (then rhs = R(r)), or
  /// kOutsideSupport, ...
  std::vector<uint32_t> support_row;
  /// ... and its right-hand side.
  std::vector<uint64_t> rhs;
  /// Row k's variables are vars[offsets[k] .. offsets[k + 1]).
  std::vector<size_t> offsets;
  std::vector<uint32_t> vars;

  size_t size() const { return rhs.size(); }
  bool empty() const { return rhs.empty(); }
  /// Row k's variables, ascending.
  Vars VarsOf(size_t k) const {
    return {vars.data() + offsets[k], offsets[k + 1] - offsets[k]};
  }
};

/// \brief P(R1, ..., Rm) in explicit sparse form.
struct ConsistencyLp {
  Schema joined_schema;
  LpVariables variables;
  LpRows rows;

  /// Total number of non-zeros of the constraint matrix.
  size_t NumNonZeros() const { return rows.vars.size(); }
};

/// Builds P(R1, ..., Rm). The join of the supports can be exponentially
/// large (Example 1): once a fold step would hold more than
/// `max_join_support` rows, construction fails with ResourceExhausted
/// before that step's rows are materialized.
Result<ConsistencyLp> BuildConsistencyLp(const std::vector<Bag>& bags,
                                         size_t max_join_support = 1u << 22);

/// Builds the same rows but over a caller-chosen variable set (tuples over
/// the union schema; sorted and deduplicated here). Used for
/// restricted-support feasibility questions (minimal witnesses,
/// Carathéodory-style pruning).
Result<ConsistencyLp> BuildLpWithVariables(const std::vector<Bag>& bags,
                                           std::vector<Tuple> variables);

}  // namespace bagc
