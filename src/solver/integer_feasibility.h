// Exact solver for the integer feasibility of P(R1, ..., Rm): find x >= 0
// integral with Ax = b. This is the NP-complete side of the dichotomy
// (Theorem 4(2)); the solver is a depth-first branch-and-prune over the
// join tuples, exact but exponential in the worst case — which is the
// point: the dichotomy benchmarks measure exactly this blowup on cyclic
// schemas versus the polynomial acyclic algorithm. The search is
// iterative (its frames live on the heap, one per variable), so its
// depth is bounded by memory, not by the calling thread's stack.
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
};

/// Finds one non-negative integral solution of the LP, or nullopt when
/// infeasible. The returned vector is indexed like lp.variables.
Result<std::optional<std::vector<uint64_t>>> SolveIntegerFeasibility(
    const ConsistencyLp& lp, const SolveOptions& options = {},
    SolveStats* stats = nullptr);

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
