// The linear program P(R1, ..., Rm) of Equations (3) and (14): one variable
// x_t per tuple t in the join J = R'1 ⋈ ... ⋈ R'm of the supports, and one
// equality row per (bag i, support tuple r) requiring the marginal of x on
// Xi to match Ri. Integral solutions are exactly the witnesses of global
// consistency.
//
// The join. JoinSupports computes J by a leapfrog triejoin (Veldhuizen
// 2014), one joined-schema attribute at a time, over the bags' own sorted
// columns: every bag is sorted by its attributes in ascending id order,
// which is the joined schema's order restricted to the bag, so each bag is
// already a trie for it and no intermediate join is built. J comes out in
// Tuple order as provenance: for each tuple of J, the support row of each
// bag it joins. The cap max_join_support bounds every level of the walk,
// not only J: level d binds the tuples of the join of the supports'
// projections onto the joined schema's first d + 1 attributes, which can
// dwarf J, so the walk's work is at most arity x cap bindings. A J larger
// than about the largest support is counted before it is written, so the
// join refuses at the cap without writing it. Every tuple of J projects
// into every support, so variable v sits in exactly one row per bag: the
// row of its provenance there.
//
// The served path (ConsistencyEngine's cyclic GLOBAL, KWISE and exact
// witness) decides the program from that provenance alone — see
// SolveJoinProgram in integer_feasibility.h — and never lays out a row.
//
// The CSR layout. BuildConsistencyLp lays the whole program out, for the
// oracles, simplex/rational_witness and cold callers: the variables are
// J's sorted rows held as columns (variable v is row v), and the rows are
// CSR — row k sums the variables vars[offsets[k] .. offsets[k+1]) (u32
// ids, ascending) and names its bag, its support row of that bag and its
// rhs. Rows come bag by bag, each bag's in support order, one per support
// row, so the program has m·|J| non-zeros; a support row no tuple of J
// extends is a row with no variables.
#pragma once

#include <cstdint>
#include <vector>

#include "bag/bag.h"
#include "tuple/column_store.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "util/result.h"

namespace bagc {

/// \brief J = R'1 ⋈ ... ⋈ R'm as provenance, in Tuple order: variable v
/// (J's v-th smallest tuple) joins support row RowsOf(v)[i] of bag i.
struct JoinProvenance {
  /// The union of the bags' schemas, J's schema.
  Schema joined;
  /// |J|.
  size_t size = 0;
  /// m, the number of bags.
  size_t bags = 0;
  /// Tuple-major: tuple v's support rows are rows[v * bags .. (v + 1) * bags).
  std::vector<uint32_t> rows;

  const uint32_t* RowsOf(size_t v) const { return rows.data() + v * bags; }
};

/// Joins the bags' supports. Fails with ResourceExhausted when J, or the
/// join of the supports' projections onto any prefix of J's attributes,
/// would pass `max_join_support` tuples (J can be exponentially large,
/// Example 1): J's tuples are written as the join finds them up to a
/// quarter past the largest support, and a larger J is counted, and
/// refused at the cap, before any more of it is written.
Result<JoinProvenance> JoinSupports(const std::vector<Bag>& bags,
                                    size_t max_join_support = 1u << 22);

/// J's tuples `vars` (ascending variable ids), gathered column-major over
/// join.joined through the provenance.
ColumnStore GatherJoinRows(const std::vector<Bag>& bags, const JoinProvenance& join,
                           const std::vector<uint32_t>& vars);

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
  /// ... the support row r of that bag, ...
  std::vector<uint32_t> support_row;
  /// ... and its right-hand side R(r).
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

/// Builds P(R1, ..., Rm) in CSR form from JoinSupports' J; fails like it
/// past `max_join_support`.
Result<ConsistencyLp> BuildConsistencyLp(const std::vector<Bag>& bags,
                                         size_t max_join_support = 1u << 22);

}  // namespace bagc
