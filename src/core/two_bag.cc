#include "core/two_bag.h"

#include "engine/two_bag_solver.h"

namespace bagc {

Result<bool> AreConsistent(const Bag& r, const Bag& s) {
  Schema z = Schema::Intersect(r.schema(), s.schema());
  BAGC_ASSIGN_OR_RETURN(Bag rz, r.Marginal(z));
  BAGC_ASSIGN_OR_RETURN(Bag sz, s.Marginal(z));
  return rz == sz;
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
  return TransportationWitness(r, s);
}

Result<std::optional<Bag>> FindMinimalWitness(const Bag& r, const Bag& s) {
  return TransportationWitness(r, s);
}

}  // namespace bagc
