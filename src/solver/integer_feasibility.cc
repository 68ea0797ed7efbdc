#include "solver/integer_feasibility.h"

#include <algorithm>
#include <limits>
#include <optional>

namespace bagc {

namespace {

// Shared DFS driver. Invokes `on_solution` for every complete assignment;
// stops the whole search when it returns true. Variables are assigned in
// index order. The depth-first walk keeps its frames in assignment_ (the
// value a variable holds) and last_ (the last value its range allows), not
// on the thread's stack, so a program of any size fits in any thread.
class Search {
 public:
  Search(const ConsistencyLp& lp, const SolveOptions& options, SolveStats* stats)
      : options_(options), stats_(stats) {
    const size_t n = lp.variables.size();
    const LpRows& rows = lp.rows;
    residual_ = rows.rhs;
    remaining_.resize(rows.size());
    // Each variable's rows, ascending, as CSR: a counting pass over the
    // row-major vars, then a fill in row order.
    var_offsets_.assign(n + 1, 0);
    for (uint32_t v : rows.vars) ++var_offsets_[v + 1];
    for (size_t v = 0; v < n; ++v) var_offsets_[v + 1] += var_offsets_[v];
    var_rows_.resize(rows.vars.size());
    std::vector<size_t> fill(var_offsets_.begin(), var_offsets_.end() - 1);
    for (size_t ri = 0; ri < rows.size(); ++ri) {
      LpRows::Vars vars = rows.VarsOf(ri);
      remaining_[ri] = static_cast<uint32_t>(vars.size());
      for (uint32_t v : vars) var_rows_[fill[v]++] = static_cast<uint32_t>(ri);
    }
    assignment_.assign(n, 0);
    last_.assign(n, 0);
  }

  Status Run(const std::function<bool(const std::vector<uint64_t>&)>& on_solution) {
    // Rows with no variables at all must have rhs == 0.
    for (size_t ri = 0; ri < remaining_.size(); ++ri) {
      if (remaining_[ri] == 0 && residual_[ri] != 0) return Status::OK();
    }
    const size_t n = assignment_.size();
    size_t v = 0;
    while (true) {
      // Descend: give variable v its first value, or meet a dead end. Every
      // row is closed by its last variable (see Range), so reaching v == n
      // means every row holds exactly.
      if (v == n) {
        if (on_solution(assignment_)) return Status::OK();
      } else if (Range(v)) {
        BAGC_RETURN_NOT_OK(Assign(v, assignment_[v]));
        ++v;
        continue;
      }
      // Backtrack to the deepest variable with a value left to try.
      while (true) {
        if (v == 0) return Status::OK();
        --v;
        const uint64_t val = assignment_[v];
        Unassign(v, val);
        if (val == last_[v]) continue;
        BAGC_RETURN_NOT_OK(Assign(v, options_.descend_values ? val - 1 : val + 1));
        ++v;
        break;
      }
    }
  }

 private:
  // Rows of variable v.
  const uint32_t* RowsBegin(size_t v) const { return var_rows_.data() + var_offsets_[v]; }
  const uint32_t* RowsEnd(size_t v) const { return var_rows_.data() + var_offsets_[v + 1]; }

  // Sets variable v's first value in assignment_[v] and its last in
  // last_[v]; false when no value fits. The upper bound is the least
  // residual over v's rows (0 when v is in none). A row whose last
  // variable v is must be paid in full by x_v.
  bool Range(size_t v) {
    uint64_t ub = std::numeric_limits<uint64_t>::max();
    for (const uint32_t* ri = RowsBegin(v); ri != RowsEnd(v); ++ri) {
      ub = std::min(ub, residual_[*ri]);
    }
    if (RowsBegin(v) == RowsEnd(v)) ub = 0;
    std::optional<uint64_t> forced;
    for (const uint32_t* ri = RowsBegin(v); ri != RowsEnd(v); ++ri) {
      if (remaining_[*ri] == 1) {
        if (forced.has_value() && *forced != residual_[*ri]) return false;
        forced = residual_[*ri];
      }
    }
    if (forced.has_value()) {
      if (*forced > ub) return false;
      assignment_[v] = last_[v] = *forced;
    } else if (options_.descend_values) {
      assignment_[v] = ub;
      last_[v] = 0;
    } else {
      assignment_[v] = 0;
      last_[v] = ub;
    }
    return true;
  }

  // One search node: x_v := val.
  Status Assign(size_t v, uint64_t val) {
    if (++stats_->nodes > options_.node_limit) {
      assignment_[v] = 0;
      return Status::ResourceExhausted("search node limit exceeded");
    }
    assignment_[v] = val;
    for (const uint32_t* ri = RowsBegin(v); ri != RowsEnd(v); ++ri) {
      residual_[*ri] -= val;
      --remaining_[*ri];
    }
    return Status::OK();
  }

  void Unassign(size_t v, uint64_t val) {
    for (const uint32_t* ri = RowsBegin(v); ri != RowsEnd(v); ++ri) {
      residual_[*ri] += val;
      ++remaining_[*ri];
    }
    assignment_[v] = 0;
  }

  const SolveOptions& options_;
  SolveStats* stats_;
  // CSR: variable v's rows are var_rows_[var_offsets_[v] .. var_offsets_[v+1]).
  std::vector<size_t> var_offsets_;
  std::vector<uint32_t> var_rows_;
  std::vector<uint64_t> residual_;
  std::vector<uint32_t> remaining_;
  std::vector<uint64_t> assignment_;
  std::vector<uint64_t> last_;
};

}  // namespace

Result<std::optional<std::vector<uint64_t>>> SolveIntegerFeasibility(
    const ConsistencyLp& lp, const SolveOptions& options, SolveStats* stats) {
  SolveStats local;
  if (stats == nullptr) stats = &local;
  Search search(lp, options, stats);
  std::optional<std::vector<uint64_t>> found;
  BAGC_RETURN_NOT_OK(search.Run([&](const std::vector<uint64_t>& x) {
    found = x;
    return true;  // stop at first solution
  }));
  return found;
}

Result<uint64_t> CountIntegerSolutions(const ConsistencyLp& lp, uint64_t count_limit,
                                       const SolveOptions& options,
                                       SolveStats* stats) {
  SolveStats local;
  if (stats == nullptr) stats = &local;
  Search search(lp, options, stats);
  uint64_t count = 0;
  bool over_limit = false;
  BAGC_RETURN_NOT_OK(search.Run([&](const std::vector<uint64_t>&) {
    ++count;
    if (count >= count_limit) {
      over_limit = true;
      return true;
    }
    return false;
  }));
  if (over_limit) {
    return Status::ResourceExhausted("solution count limit reached");
  }
  return count;
}

Result<std::vector<std::vector<uint64_t>>> EnumerateIntegerSolutions(
    const ConsistencyLp& lp, size_t limit, const SolveOptions& options,
    SolveStats* stats) {
  SolveStats local;
  if (stats == nullptr) stats = &local;
  Search search(lp, options, stats);
  std::vector<std::vector<uint64_t>> out;
  bool over_limit = false;
  BAGC_RETURN_NOT_OK(search.Run([&](const std::vector<uint64_t>& x) {
    out.push_back(x);
    if (out.size() >= limit) {
      over_limit = true;
      return true;
    }
    return false;
  }));
  if (over_limit) {
    return Status::ResourceExhausted("enumeration limit reached");
  }
  return out;
}

}  // namespace bagc
