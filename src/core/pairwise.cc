#include "core/pairwise.h"

#include "engine/consistency_engine.h"

namespace bagc {

Result<bool> ArePairwiseConsistent(const BagCollection& collection,
                                   std::pair<size_t, size_t>* witness_pair) {
  // Single-shot wrapper over the batch engine: copy the collection (a
  // refcount bump per bag) into a throwaway engine, whose seal decides
  // every pair and reports the lexicographically first failing one — the
  // pair the historical double loop reported.
  BAGC_ASSIGN_OR_RETURN(ConsistencyEngine engine,
                        ConsistencyEngine::Make(collection));
  BAGC_ASSIGN_OR_RETURN(PairwiseVerdict verdict, engine.PairwiseAll());
  if (!verdict.consistent && witness_pair != nullptr) {
    *witness_pair = verdict.witness_pair;
  }
  return verdict.consistent;
}

Result<bool> AreKWiseConsistent(const BagCollection& collection, size_t k,
                                std::optional<std::vector<size_t>>* failing_subset) {
  // Single-shot wrapper over the batch engine, mirroring
  // ArePairwiseConsistent: one sealed engine serves the entire subset
  // sweep, so each pair's shared marginals are computed once across all
  // C(m, k) subsets instead of once per throwaway engine-per-subset as
  // the historical implementation did.
  BAGC_ASSIGN_OR_RETURN(ConsistencyEngine engine,
                        ConsistencyEngine::Make(collection));
  return engine.KWiseConsistent(k, failing_subset);
}

}  // namespace bagc
