// Reusable two-bag consistency solver. Owns a ConsistencyNetwork whose
// FlowNetwork arena survives across solves, so the §5.3 minimal-witness
// suppress/restore loop and the Theorem 6 fold rebuild into the same
// allocations instead of paying a fresh network per step. The single-shot
// wrappers in core/two_bag.cc and the engine's witness queries construct
// one solver per call; the engine's Theorem 6 fold keeps one alive across
// its steps.
#pragma once

#include <optional>

#include "bag/bag.h"
#include "flow/consistency_network.h"
#include "util/result.h"

namespace bagc {

/// \brief Two-bag decision + witness construction over a reused flow arena.
class TwoBagSolver {
 public:
  TwoBagSolver() = default;

  /// Lemma 2(2): R and S are consistent iff their marginals on the shared
  /// attributes coincide.
  static Result<bool> AreConsistent(const Bag& r, const Bag& s);

  /// Witness via an integral saturated flow of N(R, S); nullopt when
  /// inconsistent (Corollary 1).
  Result<std::optional<Bag>> FindWitness(const Bag& r, const Bag& s);

  /// Minimal witness by middle-edge self-reducibility (§5.3, Corollary 4);
  /// nullopt when inconsistent.
  Result<std::optional<Bag>> FindMinimalWitness(const Bag& r, const Bag& s);

  /// As FindWitness / FindMinimalWitness but skipping the Lemma 2(2)
  /// pre-check: the caller has already established consistency (the
  /// ConsistencyEngine answers it from its sealed pair verdicts). Errors with
  /// Internal if the bags are in fact inconsistent.
  Result<Bag> FindWitnessKnownConsistent(const Bag& r, const Bag& s,
                                         bool minimal);

 private:
  ConsistencyNetwork arena_;
};

}  // namespace bagc
