#include "solver/simplex.h"

#include <limits>

namespace bagc {

namespace {

// Dense phase-1 tableau with exact rational entries.
class Tableau {
 public:
  Tableau(size_t rows, size_t cols) : rows_(rows), cols_(cols), t_(rows * cols) {}

  Rational& At(size_t i, size_t j) { return t_[i * cols_ + j]; }
  const Rational& At(size_t i, size_t j) const { return t_[i * cols_ + j]; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<Rational> t_;
};

}  // namespace

Result<SimplexResult> SolveRationalFeasibility(const ConsistencyLp& lp) {
  size_t m = lp.rows.size();
  size_t n = lp.variables.size();
  if (m * (n + m + 1) > (size_t{1} << 24)) {
    return Status::ResourceExhausted("simplex tableau would exceed memory budget");
  }
  // Columns: n structural + m artificial + 1 rhs.
  size_t rhs_col = n + m;
  Tableau t(m, n + m + 1);
  for (size_t i = 0; i < m; ++i) {
    for (uint32_t v : lp.rows.VarsOf(i)) t.At(i, v) = Rational(1);
    t.At(i, n + i) = Rational(1);
    const uint64_t rhs = lp.rows.rhs[i];
    if (rhs > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      return Status::ArithmeticOverflow("rhs exceeds rational range");
    }
    t.At(i, rhs_col) = Rational(static_cast<int64_t>(rhs));
  }
  std::vector<size_t> basis(m);
  for (size_t i = 0; i < m; ++i) basis[i] = n + i;

  // Reduced-cost row for phase-1 (cost 1 on artificials, 0 elsewhere),
  // expressed for the all-artificial basis: d[j] = c[j] - Σ_i T[i][j].
  std::vector<Rational> d(n + m);
  Rational z;  // current phase-1 objective = Σ rhs
  for (size_t j = 0; j < n + m; ++j) {
    Rational col_sum;
    for (size_t i = 0; i < m; ++i) {
      BAGC_ASSIGN_OR_RETURN(col_sum, Rational::Add(col_sum, t.At(i, j)));
    }
    Rational cost = (j >= n) ? Rational(1) : Rational(0);
    BAGC_ASSIGN_OR_RETURN(d[j], Rational::Sub(cost, col_sum));
  }
  for (size_t i = 0; i < m; ++i) {
    BAGC_ASSIGN_OR_RETURN(z, Rational::Add(z, t.At(i, rhs_col)));
  }

  SimplexResult result;
  const Rational kZero;
  while (true) {
    // Bland: entering column = smallest index with negative reduced cost.
    size_t enter = n + m;
    for (size_t j = 0; j < n + m; ++j) {
      if (d[j] < kZero) {
        enter = j;
        break;
      }
    }
    if (enter == n + m) break;  // optimal
    // Ratio test with Bland tie-breaking on the leaving basis index.
    size_t leave = m;
    Rational best_ratio;
    for (size_t i = 0; i < m; ++i) {
      if (!(t.At(i, enter) > kZero)) continue;
      BAGC_ASSIGN_OR_RETURN(Rational ratio,
                            Rational::Div(t.At(i, rhs_col), t.At(i, enter)));
      if (leave == m || ratio < best_ratio ||
          (ratio == best_ratio && basis[i] < basis[leave])) {
        leave = i;
        best_ratio = ratio;
      }
    }
    if (leave == m) {
      // Phase-1 objective is bounded below by 0; an unbounded ray would
      // contradict that.
      return Status::Internal("phase-1 simplex reported unbounded");
    }
    // Pivot on (leave, enter).
    ++result.pivots;
    Rational pivot = t.At(leave, enter);
    for (size_t j = 0; j <= rhs_col; ++j) {
      BAGC_ASSIGN_OR_RETURN(t.At(leave, j), Rational::Div(t.At(leave, j), pivot));
    }
    for (size_t i = 0; i < m; ++i) {
      if (i == leave || t.At(i, enter).is_zero()) continue;
      Rational factor = t.At(i, enter);
      for (size_t j = 0; j <= rhs_col; ++j) {
        BAGC_ASSIGN_OR_RETURN(Rational delta,
                              Rational::Mul(factor, t.At(leave, j)));
        BAGC_ASSIGN_OR_RETURN(t.At(i, j), Rational::Sub(t.At(i, j), delta));
      }
    }
    // Update the reduced-cost row and objective.
    Rational dfactor = d[enter];
    if (!dfactor.is_zero()) {
      for (size_t j = 0; j < n + m; ++j) {
        BAGC_ASSIGN_OR_RETURN(Rational delta, Rational::Mul(dfactor, t.At(leave, j)));
        BAGC_ASSIGN_OR_RETURN(d[j], Rational::Sub(d[j], delta));
      }
      // New objective value: w + d[enter] * θ, where θ is the entering
      // variable's new value (= normalized pivot-row rhs).
      BAGC_ASSIGN_OR_RETURN(Rational delta,
                            Rational::Mul(dfactor, t.At(leave, rhs_col)));
      BAGC_ASSIGN_OR_RETURN(z, Rational::Add(z, delta));
    }
    basis[leave] = enter;
  }

  result.feasible = z.is_zero();
  if (result.feasible) {
    result.solution.assign(n, Rational());
    for (size_t i = 0; i < m; ++i) {
      if (basis[i] < n) result.solution[basis[i]] = t.At(i, rhs_col);
    }
  }
  return result;
}

}  // namespace bagc
