#include "core/global.h"

#include <utility>

#include "engine/consistency_engine.h"
#include "solver/integer_feasibility.h"
#include "solver/lp.h"

namespace bagc {

// The single-shot solvers below are thin wrappers over the batch
// ConsistencyEngine (src/engine/): each call seals a throwaway engine —
// every pair's shared marginals and verdict — and runs one query.
// Server-style callers with many queries against one collection should
// hold a ConsistencyEngine directly and let it amortize the seal and the
// thread pool.

Result<std::optional<Bag>> SolveGlobalConsistencyAcyclic(
    const BagCollection& collection) {
  BAGC_ASSIGN_OR_RETURN(ConsistencyEngine engine,
                        ConsistencyEngine::Make(collection));
  return engine.SolveGlobalAcyclic();
}

Result<std::optional<Bag>> SolveGlobalConsistencyExact(
    const BagCollection& collection, const GlobalSolveOptions& options) {
  EngineOptions engine_options;
  engine_options.global = options;
  BAGC_ASSIGN_OR_RETURN(ConsistencyEngine engine,
                        ConsistencyEngine::Make(collection, engine_options));
  return engine.SolveGlobalExact();
}

Result<bool> IsGloballyConsistent(const BagCollection& collection,
                                  const GlobalSolveOptions& options) {
  EngineOptions engine_options;
  engine_options.global = options;
  BAGC_ASSIGN_OR_RETURN(ConsistencyEngine engine,
                        ConsistencyEngine::Make(collection, engine_options));
  return engine.Global();
}

Result<Bag> MinimizeWitnessSupport(const BagCollection& collection,
                                   const Bag& witness,
                                   const GlobalSolveOptions& options) {
  BAGC_ASSIGN_OR_RETURN(bool is_witness, collection.IsWitness(witness));
  if (!is_witness) {
    return Status::InvalidArgument("MinimizeWitnessSupport: not a witness");
  }
  // Every witness row projects into every support, so the witness's rows
  // are some of J's tuples, in J's order, and the program restricted to
  // them is J's with every other variable pinned to 0. It is decided from
  // the witness's own provenance, the support row each of its rows
  // projects onto in each bag, without joining the supports.
  const std::vector<Bag>& bags = collection.bags();
  const size_t n = witness.SupportSize();
  JoinProvenance join;
  join.joined = witness.schema();
  join.size = n;
  join.bags = bags.size();
  join.rows.resize(n * join.bags);
  const ColumnView rows = witness.Columns();
  for (size_t i = 0; i < bags.size(); ++i) {
    BAGC_ASSIGN_OR_RETURN(Projector proj, Projector::Make(join.joined, bags[i].schema()));
    const ColumnView projected = rows.Select(proj);
    const ColumnView support = bags[i].Columns();
    for (size_t e = 0; e < n; ++e) {
      size_t lo = 0;
      size_t hi = support.num_rows();
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (support.CompareRows(mid, projected, e) < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      join.rows[e * join.bags + i] = static_cast<uint32_t>(lo);
    }
  }
  // Greedy: try pinning each free row in turn; keep the pin when the
  // program stays feasible.
  std::vector<bool> pinned(n, false);
  std::vector<uint64_t> current(witness.MultiplicityData(), witness.MultiplicityData() + n);
  size_t v = 0;
  while (v < n) {
    if (pinned[v]) {
      ++v;
      continue;
    }
    pinned[v] = true;
    std::vector<uint64_t> solution;
    BAGC_ASSIGN_OR_RETURN(bool feasible, SolveJoinProgram(bags, join, options.search,
                                                          nullptr, &solution, &pinned));
    if (feasible) {
      current = std::move(solution);
      // Restart scanning: feasibility over a smaller support can change
      // which further deletions are possible.
      v = 0;
    } else {
      pinned[v] = false;
      ++v;
    }
  }
  BagBuilder builder(witness.schema());
  for (size_t k = 0; k < n; ++k) {
    if (current[k] > 0) {
      BAGC_RETURN_NOT_OK(builder.Add(witness.RowAt(k), current[k]));
    }
  }
  return builder.Build();
}

}  // namespace bagc
