#include "core/two_bag.h"

#include "engine/two_bag_solver.h"

namespace bagc {

// The single-shot entry points below route through engine/TwoBagSolver,
// which owns the reusable ConsistencyNetwork arena; each call here spins
// up a throwaway solver, while batch callers (the engine's Theorem 6
// fold) keep one solver alive across many solves.

Result<bool> AreConsistent(const Bag& r, const Bag& s) {
  return TwoBagSolver::AreConsistent(r, s);
}

Result<bool> IsWitness(const Bag& t, const Bag& r, const Bag& s) {
  Schema xy = Schema::Union(r.schema(), s.schema());
  if (t.schema() != xy) return false;
  BAGC_ASSIGN_OR_RETURN(Bag tx, t.Marginal(r.schema()));
  if (tx != r) return false;
  BAGC_ASSIGN_OR_RETURN(Bag ty, t.Marginal(s.schema()));
  return ty == s;
}

Result<std::optional<Bag>> FindWitness(const Bag& r, const Bag& s) {
  TwoBagSolver solver;
  return solver.FindWitness(r, s);
}

Result<std::optional<Bag>> FindMinimalWitness(const Bag& r, const Bag& s) {
  TwoBagSolver solver;
  return solver.FindMinimalWitness(r, s);
}

}  // namespace bagc
