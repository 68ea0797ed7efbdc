#include "reductions/hn_chain.h"

#include <algorithm>
#include <set>

#include "util/checked_math.h"

namespace bagc {

namespace {

Schema HnEdgeSchema(size_t skip, size_t n) {
  std::vector<AttrId> attrs;
  attrs.reserve(n - 1);
  for (size_t i = 0; i < n; ++i) {
    if (i != skip) attrs.push_back(static_cast<AttrId>(i));
  }
  return Schema{attrs};
}

// Active domain of each attribute id 0..n-1 across the supports.
Result<std::vector<std::vector<Value>>> ActiveDomains(const HnInstance& input) {
  std::vector<std::set<Value>> doms(input.n);
  for (const Bag& bag : input.bags) {
    const Schema& x = bag.schema();
    for (size_t e = 0; e < bag.SupportSize(); ++e) {
      Tuple t = bag.RowAt(e);
      for (size_t slot = 0; slot < x.arity(); ++slot) {
        doms[x.at(slot)].insert(t.at(slot));
      }
    }
  }
  std::vector<std::vector<Value>> out(input.n);
  for (size_t i = 0; i < input.n; ++i) {
    if (doms[i].empty()) {
      return Status::FailedPrecondition("attribute A" + std::to_string(i + 1) +
                                        " has empty active domain");
    }
    out[i].assign(doms[i].begin(), doms[i].end());
  }
  return out;
}

// Calls `body` with every tuple over the product of the given value lists.
template <typename Body>
Status ForEachProductTuple(const std::vector<const std::vector<Value>*>& doms,
                           const Body& body) {
  std::vector<size_t> idx(doms.size(), 0);
  while (true) {
    std::vector<Value> values(doms.size());
    for (size_t i = 0; i < doms.size(); ++i) values[i] = (*doms[i])[idx[i]];
    BAGC_RETURN_NOT_OK(body(Tuple{std::move(values)}));
    size_t pos = 0;
    while (pos < idx.size()) {
      if (++idx[pos] < doms[pos]->size()) break;
      idx[pos] = 0;
      ++pos;
    }
    if (pos == idx.size() || idx.empty()) break;
  }
  return Status::OK();
}

uint64_t MaxMultiplicity(const HnInstance& input) {
  uint64_t m = 0;
  for (const Bag& bag : input.bags) m = std::max(m, bag.MultiplicityBound());
  return m;
}

// Appends `v` to the (sorted-layout) tuple `t` whose schema's attributes
// all precede the new attribute id — the fresh attribute always has the
// largest id, so it lands in the last slot.
Tuple AppendValue(const Tuple& t, Value v) {
  std::vector<ValueId> row(t.ids());
  row.push_back(EncodeValue(v));
  return Tuple::OfIds(std::move(row));
}

}  // namespace

Result<HnInstance> MakeHnInstance(std::vector<Bag> bags) {
  size_t n = bags.size();
  if (n < 3) return Status::InvalidArgument("Hn instance needs n >= 3 bags");
  for (size_t i = 0; i < n; ++i) {
    if (bags[i].schema() != HnEdgeSchema(i, n)) {
      return Status::InvalidArgument("bag " + std::to_string(i) +
                                     " does not have the Hn edge schema");
    }
  }
  HnInstance out;
  out.n = n;
  out.bags = std::move(bags);
  return out;
}

Result<HnInstance> ExtendHn(const HnInstance& input) {
  size_t n = input.n;
  BAGC_ASSIGN_OR_RETURN(auto doms, ActiveDomains(input));
  uint64_t big_m = MaxMultiplicity(input);
  HnInstance out;
  out.n = n + 1;
  out.bags.reserve(n + 1);
  AttrId fresh = static_cast<AttrId>(n);

  for (size_t i = 0; i < n; ++i) {
    const Schema& xi = input.bags[i].schema();
    Schema yi = Schema::Union(xi, Schema{{fresh}});
    BagBuilder si(yi);
    // Slack level: M * D_i, where D_i is the active-domain size of the
    // *missing* attribute A_{i+1}.
    BAGC_ASSIGN_OR_RETURN(uint64_t slack_total,
                          CheckedMul(big_m, doms[i].size()));
    std::vector<const std::vector<Value>*> product;
    for (size_t slot = 0; slot < xi.arity(); ++slot) {
      product.push_back(&doms[xi.at(slot)]);
    }
    BAGC_RETURN_NOT_OK(ForEachProductTuple(
        product, [&](const Tuple& t) -> Status {
          uint64_t r = input.bags[i].Multiplicity(t);
          if (r > slack_total) {
            return Status::InvalidArgument(
                "multiplicity exceeds M*D slack (not a valid Hn instance)");
          }
          BAGC_RETURN_NOT_OK(si.Add(AppendValue(t, 1), r));
          return si.Add(AppendValue(t, 2), slack_total - r);
        }));
    BAGC_ASSIGN_OR_RETURN(Bag built, si.Build());
    out.bags.push_back(std::move(built));
  }

  // The closing bag S_{n+1} over the full old attribute set: constant M.
  Schema yn = HnEdgeSchema(n, n + 1);  // = {A_1..A_n}
  BagBuilder sn(yn);
  std::vector<const std::vector<Value>*> product;
  for (size_t slot = 0; slot < yn.arity(); ++slot) {
    product.push_back(&doms[yn.at(slot)]);
  }
  BAGC_RETURN_NOT_OK(ForEachProductTuple(product, [&](const Tuple& t) -> Status {
    return sn.Add(t, big_m);
  }));
  BAGC_ASSIGN_OR_RETURN(Bag closing, sn.Build());
  out.bags.push_back(std::move(closing));
  return out;
}

Result<Bag> ExtendHnWitness(const HnInstance& input, const Bag& witness) {
  size_t n = input.n;
  BAGC_ASSIGN_OR_RETURN(auto doms, ActiveDomains(input));
  uint64_t big_m = MaxMultiplicity(input);
  std::vector<AttrId> attrs(n + 1);
  for (size_t i = 0; i <= n; ++i) attrs[i] = static_cast<AttrId>(i);
  BagBuilder out(Schema{attrs});
  std::vector<const std::vector<Value>*> product;
  for (size_t i = 0; i < n; ++i) product.push_back(&doms[i]);
  BAGC_RETURN_NOT_OK(ForEachProductTuple(product, [&](const Tuple& t) -> Status {
    uint64_t r = witness.Multiplicity(t);
    if (r > big_m) {
      return Status::InvalidArgument(
          "witness multiplicity exceeds M (violates Theorem 3(1))");
    }
    BAGC_RETURN_NOT_OK(out.Add(AppendValue(t, 1), r));
    return out.Add(AppendValue(t, 2), big_m - r);
  }));
  // Witness tuples outside the active product would violate the bag
  // marginals, so there are none.
  return out.Build();
}

Result<Bag> RestrictHnWitness(const HnInstance& input, const Bag& witness) {
  size_t n = input.n;
  std::vector<AttrId> attrs(n);
  for (size_t i = 0; i < n; ++i) attrs[i] = static_cast<AttrId>(i);
  Schema old_schema{attrs};
  BagBuilder out(old_schema);
  // Keep only the A_{n+1} = 1 layer (the fresh attribute has the largest
  // id, hence the last slot).
  for (size_t e = 0; e < witness.SupportSize(); ++e) {
    Tuple t = witness.RowAt(e);
    if (t.at(t.arity() - 1) != 1) continue;
    std::vector<ValueId> row(t.ids().begin(), t.ids().end() - 1);
    BAGC_RETURN_NOT_OK(
        out.Add(Tuple::OfIds(std::move(row)), witness.MultiplicityAt(e)));
  }
  return out.Build();
}

Result<BagCollection> ToCollection(const HnInstance& input) {
  return BagCollection::Make(input.bags);
}

}  // namespace bagc
