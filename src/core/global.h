// Global consistency of bag collections (paper §4-§5).
//
//   - Acyclic schemas: the polynomial Theorem 6 algorithm — join tree,
//     running-intersection listing, then a left fold of minimal two-bag
//     witnesses (northwest-corner transportation vertices, Corollary 4).
//     Output support size <= Σ ||Ri||supp.
//   - Arbitrary schemas: the exact NP decision procedure — build
//     P(R1..Rm) and search for an integral solution (Corollary 3 bounds
//     guarantee a small witness exists when any does).
//   - IsGloballyConsistent dispatches: acyclic => pairwise test
//     (Theorem 2), cyclic => exact search.
#pragma once

#include <optional>

#include "core/collection.h"
#include "solver/integer_feasibility.h"
#include "util/result.h"

namespace bagc {

/// Tuning for the exact (cyclic-schema) path.
struct GlobalSolveOptions {
  /// Cap on |R'1 ⋈ ... ⋈ R'm| when materializing P(R1..Rm).
  size_t max_join_support = 1u << 22;
  /// Search budget for the integer-feasibility DFS.
  SolveOptions search;
};

/// Theorem 6: polynomial algorithm for acyclic schemas. Fails with
/// FailedPrecondition when the schema hypergraph is cyclic. Returns nullopt
/// when the collection is not globally consistent (equivalently, by
/// Theorem 2, not pairwise consistent). Every fold step is a minimal
/// two-bag witness — the northwest-corner vertex of core/two_bag.h, with
/// ||T||supp <= ||A||supp + ||B||supp − (number of shared-attribute
/// groups) by Corollary 4 — so the returned witness satisfies
/// ||W||supp <= Σ ||Ri||supp and ||W||mu <= max ||Ri||mu.
Result<std::optional<Bag>> SolveGlobalConsistencyAcyclic(
    const BagCollection& collection);

/// Exact decision for arbitrary schemas via integer feasibility of
/// P(R1..Rm). Exponential worst case (Theorem 4(2): NP-complete for every
/// fixed cyclic schema).
Result<std::optional<Bag>> SolveGlobalConsistencyExact(
    const BagCollection& collection, const GlobalSolveOptions& options = {});

/// Decides global consistency, dispatching on schema acyclicity.
Result<bool> IsGloballyConsistent(const BagCollection& collection,
                                  const GlobalSolveOptions& options = {});

/// Greedily prunes the support of a verified witness until it is a
/// *minimal* witness (no witness has strictly smaller support): each test
/// solves P(R1..Rm) with every variable outside the candidate support
/// pinned to 0, over the witness's rows alone (J is not built, so
/// options.max_join_support does not apply). Exponential worst case;
/// used to validate the Theorem 3(3) Carathéodory bound
/// ||W||supp <= Σ ||Ri||_b on small instances.
Result<Bag> MinimizeWitnessSupport(const BagCollection& collection,
                                   const Bag& witness,
                                   const GlobalSolveOptions& options = {});

}  // namespace bagc
