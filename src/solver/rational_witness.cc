#include "solver/rational_witness.h"

#include <limits>

#include "tuple/column_index.h"

namespace bagc {

namespace {

// Every variable's multiplicity in `bag` after projecting onto its schema
// (0 outside the support), matched columnar against the bag's rows.
Result<std::vector<uint64_t>> ProjectedMultiplicities(const ConsistencyLp& lp,
                                                      const Bag& bag) {
  BAGC_ASSIGN_OR_RETURN(Projector proj, Projector::Make(lp.joined_schema, bag.schema()));
  // Support rows are distinct, so a matched group is one support row.
  ColumnJoinMatch match(lp.variables.columns.View().Select(proj), bag.Columns());
  std::vector<uint64_t> out(lp.variables.size(), 0);
  for (size_t v = 0; v < out.size(); ++v) {
    const uint32_t g = match.MatchOf(v);
    if (g != ColumnJoinMatch::kNoMatch) out[v] = bag.MultiplicityAt(match.RightRows(g)[0]);
  }
  return out;
}

}  // namespace

Result<RationalSolution> BuildRationalSolution(const Bag& r, const Bag& s,
                                               const ConsistencyLp& lp) {
  Schema z = Schema::Intersect(r.schema(), s.schema());
  BAGC_ASSIGN_OR_RETURN(Bag rz, r.Marginal(z));
  BAGC_ASSIGN_OR_RETURN(Bag sz, s.Marginal(z));
  if (rz != sz) {
    return Status::FailedPrecondition(
        "R[X∩Y] != S[X∩Y]: P(R,S) is infeasible (Lemma 2)");
  }
  BAGC_ASSIGN_OR_RETURN(std::vector<uint64_t> rx, ProjectedMultiplicities(lp, r));
  BAGC_ASSIGN_OR_RETURN(std::vector<uint64_t> sy, ProjectedMultiplicities(lp, s));
  BAGC_ASSIGN_OR_RETURN(std::vector<uint64_t> rzv, ProjectedMultiplicities(lp, rz));
  constexpr uint64_t kMax = static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  RationalSolution sol;
  sol.values.reserve(lp.variables.size());
  for (size_t v = 0; v < lp.variables.size(); ++v) {
    if (rzv[v] == 0) {
      // t is in the join of the supports, so rx >= 1 and the Z-marginal of
      // R at t[Z] is at least rx — this cannot happen.
      return Status::Internal("join tuple with zero shared marginal");
    }
    if (rx[v] > kMax || sy[v] > kMax || rzv[v] > kMax) {
      return Status::ArithmeticOverflow("multiplicity exceeds rational range");
    }
    BAGC_ASSIGN_OR_RETURN(
        Rational num,
        Rational::Mul(Rational(static_cast<int64_t>(rx[v])),
                      Rational(static_cast<int64_t>(sy[v]))));
    BAGC_ASSIGN_OR_RETURN(Rational val,
                          Rational::Div(num, Rational(static_cast<int64_t>(rzv[v]))));
    sol.values.push_back(val);
  }
  return sol;
}

Result<bool> VerifyRationalSolution(const ConsistencyLp& lp,
                                    const RationalSolution& solution) {
  if (solution.values.size() != lp.variables.size()) {
    return Status::InvalidArgument("solution size does not match variable count");
  }
  for (const Rational& v : solution.values) {
    if (v.is_negative()) return false;
  }
  for (size_t k = 0; k < lp.rows.size(); ++k) {
    Rational sum;
    for (uint32_t v : lp.rows.VarsOf(k)) {
      BAGC_ASSIGN_OR_RETURN(sum, Rational::Add(sum, solution.values[v]));
    }
    const uint64_t rhs = lp.rows.rhs[k];
    if (rhs > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      return Status::ArithmeticOverflow("rhs exceeds rational range");
    }
    if (sum != Rational(static_cast<int64_t>(rhs))) return false;
  }
  return true;
}

}  // namespace bagc
