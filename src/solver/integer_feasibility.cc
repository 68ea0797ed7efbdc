#include "solver/integer_feasibility.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>

namespace bagc {

namespace {

constexpr uint32_t kNone = 0xFFFFFFFFu;

// Shared DFS driver over one program: the whole of P(R1..Rm) (Load) or one
// of its components (Reset, then AddRow/SetRow). Invokes
// `on_solution` for every complete assignment; stops the whole search when
// it returns true. Variables are assigned in index order. The depth-first
// walk keeps its frames in assignment_ (the value a variable holds) and
// last_ (the last value its range allows), not on the thread's stack, so a
// program of any size fits in any thread. The buffers keep their capacity
// across programs.
class Search {
 public:
  Search(const SolveOptions& options, SolveStats* stats)
      : options_(options), stats_(stats) {}

  // The whole program: each variable's rows, ascending, as CSR — a
  // counting pass over the row-major vars, then a fill in row order.
  void Load(const ConsistencyLp& lp) {
    const size_t n = lp.variables.size();
    const LpRows& rows = lp.rows;
    residual_ = rows.rhs;
    remaining_.resize(rows.size());
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
  }

  // A program of n variables, each in m rows still to be set, and no row.
  void Reset(size_t n, size_t m) {
    var_offsets_.resize(n + 1);
    for (size_t k = 0; k <= n; ++k) var_offsets_[k] = k * m;
    var_rows_.resize(n * m);
    residual_.clear();
    remaining_.clear();
  }
  // A new row with right-hand side rhs and no variable yet; returns its id.
  uint32_t AddRow(uint64_t rhs) {
    residual_.push_back(rhs);
    remaining_.push_back(0);
    return static_cast<uint32_t>(residual_.size() - 1);
  }
  // Makes row r variable k's j-th row.
  void SetRow(size_t k, size_t j, uint32_t r) {
    var_rows_[var_offsets_[k] + j] = r;
    ++remaining_[r];
  }

  Status Run(const std::function<bool(const std::vector<uint64_t>&)>& on_solution) {
    // Rows with no variables at all must have rhs == 0.
    for (size_t ri = 0; ri < remaining_.size(); ++ri) {
      if (remaining_[ri] == 0 && residual_[ri] != 0) return Status::OK();
    }
    const size_t n = var_offsets_.size() - 1;
    assignment_.assign(n, 0);
    last_.assign(n, 0);
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

// P(R1..Rm) as J's provenance: variable v sits in one row of each bag i,
// support row r = prov[v * m + i] of the support[i] there, whose
// right-hand side is rhs[i][r].
struct Incidence {
  size_t n = 0;
  const uint32_t* prov = nullptr;
  std::vector<size_t> support;
  std::vector<const uint64_t*> rhs;
};

uint32_t Find(std::vector<uint32_t>& parent, uint32_t v) {
  uint32_t root = v;
  while (parent[root] != root) root = parent[root];
  while (parent[v] != root) {
    const uint32_t up = parent[v];
    parent[v] = root;
    v = up;
  }
  return root;
}

// The early exit, the components, and one search per component (see the
// header). Variables with (*pinned)[v] take no part and stay 0.
Result<bool> SolveByComponents(const Incidence& p, const std::vector<bool>* pinned,
                               const SolveOptions& options, SolveStats* stats,
                               std::vector<uint64_t>* solution) {
  const size_t n = p.n;
  const size_t m = p.rhs.size();
  auto is_free = [pinned](size_t v) { return pinned == nullptr || !(*pinned)[v]; };
  if (solution != nullptr) solution->assign(n, 0);
  // Bag by bag, slot[r] is the first free variable of support row r, and
  // every later one joins its component (a root is its component's least
  // variable). A row left with none and rhs > 0 decides the program.
  size_t most = 0;
  for (size_t support : p.support) most = std::max(most, support);
  std::vector<uint32_t> slot(most, kNone);
  std::vector<uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  for (size_t i = 0; i < m; ++i) {
    for (size_t v = 0; v < n; ++v) {
      if (!is_free(v)) continue;
      uint32_t& f = slot[p.prov[v * m + i]];
      if (f == kNone) {
        f = static_cast<uint32_t>(v);
        continue;
      }
      const uint32_t a = Find(parent, f);
      const uint32_t b = Find(parent, static_cast<uint32_t>(v));
      parent[std::max(a, b)] = std::min(a, b);
    }
    for (size_t r = 0; r < p.support[i]; ++r) {
      if (slot[r] == kNone && p.rhs[i][r] != 0) return false;
      slot[r] = kNone;
    }
  }
  // The free variables grouped by component, components in the order of
  // their least variable and each ascending: a counting sort by root.
  std::vector<uint32_t> order;
  {
    std::vector<uint32_t> start(n + 1, 0);
    for (size_t v = 0; v < n; ++v) {
      if (!is_free(v)) continue;
      parent[v] = Find(parent, static_cast<uint32_t>(v));
      ++start[parent[v] + 1];
    }
    for (size_t v = 0; v < n; ++v) start[v + 1] += start[v];
    order.resize(start[n]);
    for (size_t v = 0; v < n; ++v) {
      if (is_free(v)) order[start[parent[v]]++] = static_cast<uint32_t>(v);
    }
  }
  Search search(options, stats);
  for (size_t a = 0; a < order.size();) {
    const uint32_t root = parent[order[a]];
    size_t b = a + 1;
    while (b < order.size() && parent[order[b]] == root) ++b;
    ++stats->components;
    if (b - a == 1) {
      // A variable alone in its rows must pay each in full: the search
      // would take one node when their rhs agree and none otherwise.
      const uint32_t* rows = p.prov + order[a] * m;
      const uint64_t value = p.rhs[0][rows[0]];
      for (size_t i = 1; i < m; ++i) {
        if (p.rhs[i][rows[i]] != value) return false;
      }
      if (++stats->nodes > options.node_limit) {
        return Status::ResourceExhausted("search node limit exceeded");
      }
      if (solution != nullptr) (*solution)[order[a]] = value;
      a = b;
      continue;
    }
    // The component's rows, bag by bag: slot[r] is support row r's id in
    // the component's program while its bag is being laid out.
    search.Reset(b - a, m);
    for (size_t i = 0; i < m; ++i) {
      for (size_t k = a; k < b; ++k) {
        const uint32_t r = p.prov[order[k] * m + i];
        if (slot[r] == kNone) slot[r] = search.AddRow(p.rhs[i][r]);
        search.SetRow(k - a, i, slot[r]);
      }
      for (size_t k = a; k < b; ++k) slot[p.prov[order[k] * m + i]] = kNone;
    }
    // The callback captures one pointer, so std::function holds it inline.
    struct Sink {
      const uint32_t* vars;
      std::vector<uint64_t>* solution;
      bool found;
    } sink{order.data() + a, solution, false};
    BAGC_RETURN_NOT_OK(search.Run([sink = &sink](const std::vector<uint64_t>& x) {
      sink->found = true;
      if (sink->solution != nullptr) {
        for (size_t k = 0; k < x.size(); ++k) (*sink->solution)[sink->vars[k]] = x[k];
      }
      return true;
    }));
    if (!sink.found) return false;
    a = b;
  }
  return true;
}

}  // namespace

Result<bool> SolveJoinProgram(const std::vector<Bag>& bags, const JoinProvenance& join,
                              const SolveOptions& options, SolveStats* stats,
                              std::vector<uint64_t>* solution,
                              const std::vector<bool>* pinned) {
  SolveStats local;
  if (stats == nullptr) stats = &local;
  if (pinned != nullptr && pinned->size() != join.size) {
    return Status::InvalidArgument("pin mask size does not match the variable count");
  }
  Incidence p;
  p.n = join.size;
  p.prov = join.rows.data();
  for (const Bag& bag : bags) {
    p.support.push_back(bag.SupportSize());
    p.rhs.push_back(bag.MultiplicityData());
  }
  return SolveByComponents(p, pinned, options, stats, solution);
}

Result<std::optional<std::vector<uint64_t>>> SolveIntegerFeasibility(
    const ConsistencyLp& lp, const SolveOptions& options, SolveStats* stats,
    const std::vector<bool>* pinned) {
  SolveStats local;
  if (stats == nullptr) stats = &local;
  const size_t n = lp.variables.size();
  if (pinned != nullptr && pinned->size() != n) {
    return Status::InvalidArgument("pin mask size does not match the variable count");
  }
  // The provenance back from the rows: bag i's rows are its support rows
  // in order, and each variable sits in exactly one of them.
  const LpRows& rows = lp.rows;
  const size_t m = rows.empty() ? 0 : rows.bag.back() + 1;
  Incidence p;
  p.n = n;
  p.support.assign(m, 0);
  for (uint32_t i : rows.bag) ++p.support[i];
  std::vector<uint32_t> prov(m * n);
  for (size_t i = 0, k = 0; i < m; k += p.support[i++]) {
    p.rhs.push_back(rows.rhs.data() + k);
    for (size_t r = 0; r < p.support[i]; ++r) {
      for (uint32_t v : rows.VarsOf(k + r)) prov[v * m + i] = static_cast<uint32_t>(r);
    }
  }
  p.prov = prov.data();
  std::vector<uint64_t> x;
  BAGC_ASSIGN_OR_RETURN(bool feasible, SolveByComponents(p, pinned, options, stats, &x));
  if (!feasible) return std::optional<std::vector<uint64_t>>();
  return std::optional<std::vector<uint64_t>>(std::move(x));
}

Result<uint64_t> CountIntegerSolutions(const ConsistencyLp& lp, uint64_t count_limit,
                                       const SolveOptions& options,
                                       SolveStats* stats) {
  SolveStats local;
  if (stats == nullptr) stats = &local;
  Search search(options, stats);
  search.Load(lp);
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
  Search search(options, stats);
  search.Load(lp);
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
