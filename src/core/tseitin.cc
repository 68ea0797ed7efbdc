#include "core/tseitin.h"

#include "util/checked_math.h"

namespace bagc {

namespace {

// The bag over X holding, with multiplicity 1, every tuple
// t: X -> {0..d-1} whose value sum is congruent to `target` mod d.
Result<Bag> CongruenceBag(const Schema& x, size_t d, size_t target) {
  BagBuilder bag(x);
  std::vector<Value> values(x.arity(), 0);
  // Odometer enumeration of {0..d-1}^arity.
  while (true) {
    uint64_t sum = 0;
    for (Value v : values) sum += static_cast<uint64_t>(v);
    if (sum % d == target) {
      BAGC_RETURN_NOT_OK(bag.Add(Tuple{values}, 1));
    }
    size_t pos = 0;
    while (pos < values.size()) {
      if (static_cast<size_t>(++values[pos]) < d) break;
      values[pos] = 0;
      ++pos;
    }
    if (pos == values.size()) break;
  }
  return bag.Build();
}

}  // namespace

Result<std::vector<Bag>> MakeTseitinCollection(const Hypergraph& h) {
  auto k = h.UniformityDegree();
  auto d = h.RegularityDegree();
  if (!k.has_value() || !d.has_value()) {
    return Status::InvalidArgument(
        "Tseitin construction needs a k-uniform, d-regular hypergraph");
  }
  if (*d < 2) {
    return Status::InvalidArgument("Tseitin construction needs regularity d >= 2");
  }
  if (h.num_edges() < 2) {
    return Status::InvalidArgument("Tseitin construction needs at least 2 edges");
  }
  std::vector<Bag> bags;
  bags.reserve(h.num_edges());
  for (size_t i = 0; i < h.num_edges(); ++i) {
    size_t target = (i + 1 == h.num_edges()) ? 1 : 0;
    BAGC_ASSIGN_OR_RETURN(Bag bag, CongruenceBag(h.edges()[i], *d, target));
    bags.push_back(std::move(bag));
  }
  return bags;
}

uint64_t TseitinMarginalMultiplicity(size_t d, size_t k, size_t shared_arity) {
  // d^(k - shared_arity - 1); callers guarantee shared_arity < k.
  uint64_t result = 1;
  for (size_t i = shared_arity + 1; i < k; ++i) {
    result = SaturatingMul(result, d);
  }
  return result;
}

}  // namespace bagc
