// Two-bag witness construction (paper §3). By Lemma 2, R(X) and S(Y) are
// consistent iff R[Z] = S[Z] for Z = X ∩ Y, and then P(R, S) splits into
// one transportation problem per Z-group: the group's R rows supply,
// its S rows demand, and every (R row, S row) cell of the group is an
// edge of the complete bipartite graph between them. The northwest-corner
// rule fills each group in O(a + b) and lands on a vertex of the
// transportation polytope, so the witness it builds is
//   - minimal: a vertex's support columns are independent, so no witness
//     has a support strictly inside it (the Theorem 5 / Corollary 4
//     witness, with no §5.3 pruning);
//   - small: at most a + b − 1 cells per group, i.e.
//     ||W||supp <= ||R||supp + ||S||supp − (number of Z-groups);
//   - bounded: every cell is at most min(R(r), S(s)), so ||W||mu never
//     exceeds the inputs' and no sum is ever formed.
// Served WITNESS (plain and MINIMAL), the single-shot core/two_bag.h
// wrappers and the engine's Theorem 6 fold all build witnesses here; the
// flow network N(R, S) in flow/ remains only as the Lemma 2(5) /
// Corollary 1 oracle the tests check against.
#pragma once

#include <optional>

#include "bag/bag.h"
#include "util/result.h"

namespace bagc {

/// The northwest-corner witness of consistency for R and S, or nullopt
/// when R[X∩Y] != S[X∩Y] (the construction itself notices: an R row with
/// no S partner, or a group whose rows on one side run out first). Rows
/// are visited in sorted order on both sides, so the witness is
/// deterministic; it is sealed in Tuple order without a sort whenever one
/// side's attributes lead the joined schema.
Result<std::optional<Bag>> TransportationWitness(const Bag& r, const Bag& s);

}  // namespace bagc
