// Consistency of two bags (paper §3). Lemma 2 gives five equivalent
// characterizations; this module exposes:
//   - the O(sort) decision procedure  R[X∩Y] == S[X∩Y]          (Lemma 2(2))
//   - witness construction as an integral vertex of P(R, S): one
//     northwest-corner transportation solve per Z-group  (Lemma 2, Cor. 1)
// A vertex is a *minimal* witness (Theorem 5, via Carathéodory; §5.3,
// Corollary 4): no witness has a support strictly inside it, and it has
// ||W||supp <= ||R||supp + ||S||supp − (number of Z-groups). The
// construction lives in engine/two_bag_solver.h; flow/ keeps the
// saturated-flow form of Lemma 2(5) only as a test oracle.
#pragma once

#include <optional>

#include "bag/bag.h"
#include "util/result.h"

namespace bagc {

/// Lemma 2(2): R and S are consistent iff their marginals on the shared
/// attributes coincide. Runs in time O(|R'| + |S'|) map operations.
Result<bool> AreConsistent(const Bag& r, const Bag& s);

/// True iff T[X] == R and T[Y] == S (the definition of "T witnesses the
/// consistency of R and S").
Result<bool> IsWitness(const Bag& t, const Bag& r, const Bag& s);

/// Builds a witness of consistency (the northwest-corner vertex of
/// P(R, S), hence minimal); returns nullopt when R and S are
/// inconsistent. O(|R'| + |S'|) after the shared-attribute hash match.
Result<std::optional<Bag>> FindWitness(const Bag& r, const Bag& s);

/// Builds a *minimal* witness: no witness has a support strictly inside
/// it (§5.3, Corollary 4). The FindWitness vertex already is one, so this
/// returns the same bag at the same cost — the §5.3 self-reducibility loop
/// (one max-flow per middle edge) is not needed. Returns nullopt when
/// inconsistent.
Result<std::optional<Bag>> FindMinimalWitness(const Bag& r, const Bag& s);

}  // namespace bagc
