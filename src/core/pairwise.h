// Pairwise and k-wise consistency of bag collections (paper §4). Pairwise
// consistency is polynomial (Lemma 2); k-wise consistency for k >= 3 is
// exponential in the worst case. Both are thin wrappers over one
// ConsistencyEngine (engine/consistency_engine.h): the k-wise sweep reads
// the engine's sealed pair verdicts in every subset, decides
// acyclic subsets by Theorem 2, and runs the exact feasibility search only
// on cyclic subsets.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "util/result.h"

namespace bagc {

/// Decides pairwise (= 2-wise) consistency; when inconsistent and
/// `witness_pair` is non-null, stores the first failing index pair.
Result<bool> ArePairwiseConsistent(const BagCollection& collection,
                                   std::pair<size_t, size_t>* witness_pair = nullptr);

/// Decides k-wise consistency: every sub-collection of size <= k is
/// globally consistent. Exponential in both the number of subsets and the
/// per-subset (cyclic) solve; intended for tests and small experiments.
/// k >= 2. Shared marginals are computed once for the whole sweep, not
/// once per subset.
Result<bool> AreKWiseConsistent(const BagCollection& collection, size_t k,
                                std::optional<std::vector<size_t>>* failing_subset =
                                    nullptr);

}  // namespace bagc
