#include "core/global.h"

#include <algorithm>

#include "engine/consistency_engine.h"
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
                        ConsistencyEngine::MakeView(collection));
  return engine.SolveGlobalAcyclic();
}

Result<std::optional<Bag>> SolveGlobalConsistencyExact(
    const BagCollection& collection, const GlobalSolveOptions& options) {
  EngineOptions engine_options;
  engine_options.global = options;
  BAGC_ASSIGN_OR_RETURN(ConsistencyEngine engine,
                        ConsistencyEngine::MakeView(collection, engine_options));
  return engine.SolveGlobalExact();
}

Result<bool> IsGloballyConsistent(const BagCollection& collection,
                                  const GlobalSolveOptions& options) {
  EngineOptions engine_options;
  engine_options.global = options;
  BAGC_ASSIGN_OR_RETURN(ConsistencyEngine engine,
                        ConsistencyEngine::MakeView(collection, engine_options));
  return engine.Global();
}

Result<Bag> MinimizeWitnessSupport(const BagCollection& collection,
                                   const Bag& witness,
                                   const GlobalSolveOptions& options) {
  BAGC_ASSIGN_OR_RETURN(bool is_witness, collection.IsWitness(witness));
  if (!is_witness) {
    return Status::InvalidArgument("MinimizeWitnessSupport: not a witness");
  }
  // The witness's rows are sorted and distinct, so they are exactly the
  // variables BuildLpWithVariables makes of them, in the same order; so is
  // every list with one row erased.
  std::vector<Tuple> support;
  std::vector<uint64_t> current;  // solution aligned with `support`
  support.reserve(witness.SupportSize());
  for (size_t e = 0; e < witness.SupportSize(); ++e) {
    support.push_back(witness.RowAt(e));
    current.push_back(witness.MultiplicityAt(e));
  }
  // Greedy: try dropping each support tuple; keep the drop when the
  // restricted program stays feasible.
  size_t i = 0;
  while (i < support.size()) {
    std::vector<Tuple> reduced = support;
    reduced.erase(reduced.begin() + i);
    BAGC_ASSIGN_OR_RETURN(ConsistencyLp lp,
                          BuildLpWithVariables(collection.bags(), reduced));
    BAGC_ASSIGN_OR_RETURN(auto solution,
                          SolveIntegerFeasibility(lp, options.search));
    if (solution.has_value()) {
      support = std::move(reduced);
      current = *solution;
      // Restart scanning: feasibility over a smaller support can change
      // which further deletions are possible.
      i = 0;
    } else {
      ++i;
    }
  }
  BagBuilder builder(witness.schema());
  for (size_t k = 0; k < support.size(); ++k) {
    if (current[k] > 0) {
      BAGC_RETURN_NOT_OK(builder.Add(support[k], current[k]));
    }
  }
  return builder.Build();
}

}  // namespace bagc
