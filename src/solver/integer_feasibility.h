// Exact solver for the integer feasibility of P(R1, ..., Rm): find x >= 0
// integral with Ax = b. This is the NP-complete side of the dichotomy
// (Theorem 4(2)); the solver is a depth-first branch-and-prune over the
// join tuples, exact but exponential in the worst case — which is the
// point: the dichotomy benchmarks measure exactly this blowup on cyclic
// schemas versus the polynomial acyclic algorithm. The search is
// iterative (its frames live on the heap, one per variable), so its
// depth is bounded by memory, not by the calling thread's stack.
//
// Deciding feasibility works from J's provenance (lp.h), component by
// component, and never needs the program's rows laid out:
//
//   1. Early exit. A support row with rhs > 0 that no variable covers is
//      an empty row, so the program is infeasible before any search. On a
//      pairwise consistent collection only the cycle can leave a row
//      uncovered: every in-tree Tseitin collection has an empty J.
//   2. Components. Variables that share a row — the same support row of
//      one bag — are joined by union-find; a component's rows mention only
//      its own variables, so the program is feasible iff each component
//      is. (On the perfbench write_global C4, 1,029 variables fall into
//      about 1,015 components of at most 5.)
//   3. Search. The depth-first search runs once per component, in the
//      order of each component's least variable, on scratch buffers
//      reused across components.
//
// The search prunes only values that cannot complete, so it returns the
// first solution in variable order (largest values first, or smallest
// with descend_values off). The solutions of the program are the products
// of the components' solutions, so the components' first solutions,
// concatenated, are exactly the whole-program search's first solution:
// only the node count changes. CountIntegerSolutions and
// EnumerateIntegerSolutions still search the whole program at once.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "solver/lp.h"
#include "util/result.h"

namespace bagc {

/// Knobs for the exact search.
struct SolveOptions {
  /// Abort with ResourceExhausted after this many search nodes.
  uint64_t node_limit = 200'000'000;
  /// Try large values first (tends to saturate rows quickly).
  bool descend_values = true;
};

/// Counters reported back by the solver.
struct SolveStats {
  /// Values tried, over all variables.
  uint64_t nodes = 0;
  /// Components searched (0 when an uncovered row decided the program).
  uint64_t components = 0;
};

/// Decides P(R1, ..., Rm) over `join` = JoinSupports(bags) without laying
/// out its rows: early exit, then one search per component. True when an
/// integral solution exists; `solution`, when non-null, then receives it,
/// indexed like J. With `pinned`, every variable v with (*pinned)[v] is
/// held at 0 (InvalidArgument when the mask's size is not |J|). `join` may
/// also list only some of J's tuples, in J's order, with their support
/// rows: that is the program with J's other variables pinned to 0.
Result<bool> SolveJoinProgram(const std::vector<Bag>& bags, const JoinProvenance& join,
                              const SolveOptions& options = {},
                              SolveStats* stats = nullptr,
                              std::vector<uint64_t>* solution = nullptr,
                              const std::vector<bool>* pinned = nullptr);

/// Finds one non-negative integral solution of BuildConsistencyLp's program,
/// or nullopt when infeasible, by the same early exit and per-component
/// search. With `pinned`, every variable v with (*pinned)[v] is held at 0:
/// the program restricted to the other variables (InvalidArgument when the
/// mask's size is not the variable count). The returned vector is indexed
/// like lp.variables.
Result<std::optional<std::vector<uint64_t>>> SolveIntegerFeasibility(
    const ConsistencyLp& lp, const SolveOptions& options = {},
    SolveStats* stats = nullptr, const std::vector<bool>* pinned = nullptr);

/// Counts all integral solutions, stopping (with ResourceExhausted) once
/// `count_limit` solutions are found.
Result<uint64_t> CountIntegerSolutions(const ConsistencyLp& lp,
                                       uint64_t count_limit = 1u << 24,
                                       const SolveOptions& options = {},
                                       SolveStats* stats = nullptr);

/// Enumerates all integral solutions (small instances only; the §3 witness
/// enumeration experiment). Stops with ResourceExhausted past `limit`.
Result<std::vector<std::vector<uint64_t>>> EnumerateIntegerSolutions(
    const ConsistencyLp& lp, size_t limit = 1u << 20,
    const SolveOptions& options = {}, SolveStats* stats = nullptr);

}  // namespace bagc
