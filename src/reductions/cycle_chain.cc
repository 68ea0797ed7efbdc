#include "reductions/cycle_chain.h"

namespace bagc {

namespace {

Schema CycleEdgeSchema(size_t i, size_t n) {
  // Edge i joins attributes i and (i+1) mod n.
  return Schema{{static_cast<AttrId>(i), static_cast<AttrId>((i + 1) % n)}};
}

}  // namespace

Result<CycleInstance> MakeCycleInstance(std::vector<Bag> bags) {
  size_t n = bags.size();
  if (n < 3) return Status::InvalidArgument("cycle instance needs n >= 3 bags");
  for (size_t i = 0; i < n; ++i) {
    if (bags[i].schema() != CycleEdgeSchema(i, n)) {
      return Status::InvalidArgument("bag " + std::to_string(i) +
                                     " does not have the C_n edge schema");
    }
  }
  CycleInstance out;
  out.n = n;
  out.bags = std::move(bags);
  return out;
}

Result<CycleInstance> ExtendCycle(const CycleInstance& input) {
  size_t n = input.n;
  CycleInstance out;
  out.n = n + 1;
  out.bags.reserve(n + 1);
  // Bags 0..n-2 are unchanged.
  for (size_t i = 0; i + 1 < n; ++i) out.bags.push_back(input.bags[i]);

  // The closing bag R_n(A_n A_1) becomes an identical copy over
  // (A_n, A_{n+1}): the value at A_1 moves to the fresh attribute.
  const Bag& closing = input.bags[n - 1];
  // closing's schema is {0, n-1}: slot 0 = A_1, slot 1 = A_n.
  Schema rehomed_schema{{static_cast<AttrId>(n - 1), static_cast<AttrId>(n)}};
  BagBuilder rehomed_builder(rehomed_schema);
  rehomed_builder.Reserve(closing.SupportSize());
  for (size_t e = 0; e < closing.SupportSize(); ++e) {
    Tuple t = closing.RowAt(e);
    // New layout {n-1, n}: slot 0 = A_n = t.at(1), slot 1 = A_{n+1} = t.at(0).
    BAGC_RETURN_NOT_OK(
        rehomed_builder.Add(Tuple{{t.at(1), t.at(0)}}, closing.MultiplicityAt(e)));
  }
  BAGC_ASSIGN_OR_RETURN(Bag rehomed, rehomed_builder.Build());
  out.bags.push_back(std::move(rehomed));

  // The equality bag R_{n+1}(A_{n+1} A_1): diagonal support with
  // multiplicities from the A_1-marginal of the closing bag.
  Schema a1{{0}};
  BAGC_ASSIGN_OR_RETURN(Bag closing_a1, closing.Marginal(a1));
  Schema eq_schema{{static_cast<AttrId>(0), static_cast<AttrId>(n)}};
  BagBuilder equality(eq_schema);
  for (size_t e = 0; e < closing_a1.SupportSize(); ++e) {
    Tuple t = closing_a1.RowAt(e);
    // Layout {0, n}: slot 0 = A_1, slot 1 = A_{n+1}; both carry the value.
    BAGC_RETURN_NOT_OK(
        equality.Add(Tuple{{t.at(0), t.at(0)}}, closing_a1.MultiplicityAt(e)));
  }
  BAGC_ASSIGN_OR_RETURN(Bag equality_bag, equality.Build());
  out.bags.push_back(std::move(equality_bag));
  return out;
}

Result<Bag> ExtendCycleWitness(const CycleInstance& input, const Bag& witness) {
  size_t n = input.n;
  std::vector<AttrId> attrs(n + 1);
  for (size_t i = 0; i <= n; ++i) attrs[i] = static_cast<AttrId>(i);
  Schema extended{attrs};
  BagBuilder out(extended);
  for (size_t e = 0; e < witness.SupportSize(); ++e) {
    Tuple t = witness.RowAt(e);
    // Witness schema is {0..n-1} in sorted layout; append A_{n+1} := A_1.
    std::vector<ValueId> row(t.ids());
    row.push_back(t.id(0));
    BAGC_RETURN_NOT_OK(
        out.Add(Tuple::OfIds(std::move(row)), witness.MultiplicityAt(e)));
  }
  return out.Build();
}

Result<Bag> RestrictCycleWitness(const CycleInstance& input, const Bag& witness) {
  size_t n = input.n;
  std::vector<AttrId> attrs(n);
  for (size_t i = 0; i < n; ++i) attrs[i] = static_cast<AttrId>(i);
  return witness.Marginal(Schema{attrs});
}

Result<BagCollection> ToCollection(const CycleInstance& input) {
  return BagCollection::Make(input.bags);
}

}  // namespace bagc
