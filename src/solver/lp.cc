#include "solver/lp.h"

#include <algorithm>

#include "tuple/column_index.h"
#include "tuple/column_store.h"

namespace bagc {

size_t ConsistencyLp::NumNonZeros() const {
  size_t total = 0;
  for (const LpRow& row : rows) total += row.vars.size();
  return total;
}

namespace {

// Appends every bag's rows to `lp->rows`, in bag order, given the chosen
// variable tuples. `var_columns` is the column-major transpose of
// `lp->variables` over the joined layout, re-selected per bag: the
// variable grouping and the per-support-tuple lookups both run columnar
// (batch-hashed ProbeAll, no per-row Tuple projection).
Status AppendAllRows(const std::vector<Bag>& bags, const Schema& joined,
                     const ColumnView& var_columns, ConsistencyLp* lp) {
  for (size_t i = 0; i < bags.size(); ++i) {
    const Bag& bag = bags[i];
    BAGC_ASSIGN_OR_RETURN(Projector proj, Projector::Make(joined, bag.schema()));
    // Group variables by their projection onto Xi (zero-copy column select).
    ColumnIndex groups(var_columns.Select(proj));
    // Resolve every support tuple of Ri against the groups in one batch.
    std::vector<uint32_t> match;
    groups.ProbeAll(bag.Columns(), &match);
    std::vector<bool> in_support(groups.NumGroups(), false);
    for (size_t e = 0; e < bag.SupportSize(); ++e) {
      LpRow row;
      row.bag_index = i;
      row.marginal_tuple = bag.RowAt(e);
      row.rhs = bag.MultiplicityAt(e);
      if (match[e] != ColumnIndex::kNoGroup) {
        ColumnIndex::Rows vars = groups.GroupRows(match[e]);
        row.vars.assign(vars.begin(), vars.end());
        in_support[match[e]] = true;
      }
      lp->rows.push_back(std::move(row));
    }
    // Variables projecting onto tuples *outside* the support of Ri must be
    // 0; emit a rhs=0 row for each such group so solvers see the
    // restriction. A group is outside the support iff no support tuple
    // probed into it. Sorted by group key so row order stays deterministic
    // and matches the historical (sorted-map) layout.
    std::vector<std::pair<Tuple, size_t>> zero_groups;
    for (size_t g = 0; g < groups.NumGroups(); ++g) {
      if (!in_support[g]) {
        zero_groups.emplace_back(groups.keys().RowAt(groups.LeadRow(g)), g);
      }
    }
    std::sort(zero_groups.begin(), zero_groups.end(),
              [](const std::pair<Tuple, size_t>& a,
                 const std::pair<Tuple, size_t>& b) { return a.first < b.first; });
    for (auto& [key, g] : zero_groups) {
      LpRow row;
      row.bag_index = i;
      row.marginal_tuple = std::move(key);
      row.rhs = 0;
      ColumnIndex::Rows vars = groups.GroupRows(g);
      row.vars.assign(vars.begin(), vars.end());
      lp->rows.push_back(std::move(row));
    }
  }
  return Status::OK();
}

}  // namespace

Result<ConsistencyLp> BuildConsistencyLp(const std::vector<Bag>& bags,
                                         size_t max_join_support) {
  if (bags.empty()) return Status::InvalidArgument("empty bag collection");
  // Join of the supports: a bag-order fold of 0/1 copies, with a size
  // cap. Its sorted rows are the variables.
  Bag join = bags[0].Support();
  for (size_t i = 1; i < bags.size(); ++i) {
    BAGC_ASSIGN_OR_RETURN(join, Bag::Join(join, bags[i].Support()));
    if (join.SupportSize() > max_join_support) {
      return Status::ResourceExhausted(
          "join support exceeds cap (" + std::to_string(max_join_support) + ")");
    }
  }
  ConsistencyLp lp;
  lp.joined_schema = join.schema();
  lp.variables.reserve(join.SupportSize());
  for (size_t r = 0; r < join.SupportSize(); ++r) lp.variables.push_back(join.RowAt(r));
  BAGC_RETURN_NOT_OK(AppendAllRows(bags, lp.joined_schema, join.Columns(), &lp));
  return lp;
}

Result<ConsistencyLp> BuildLpWithVariables(const std::vector<Bag>& bags,
                                           std::vector<Tuple> variables) {
  if (bags.empty()) return Status::InvalidArgument("empty bag collection");
  std::vector<Schema> schemas;
  schemas.reserve(bags.size());
  for (const Bag& b : bags) schemas.push_back(b.schema());
  ConsistencyLp lp;
  lp.joined_schema = Schema::UnionAll(schemas);
  std::sort(variables.begin(), variables.end());
  variables.erase(std::unique(variables.begin(), variables.end()), variables.end());
  for (const Tuple& t : variables) {
    if (t.arity() != lp.joined_schema.arity()) {
      return Status::InvalidArgument("variable tuple arity does not match XY schema");
    }
  }
  lp.variables = std::move(variables);
  BAGC_ASSIGN_OR_RETURN(Projector identity,
                        Projector::Make(lp.joined_schema, lp.joined_schema));
  ColumnStore var_columns = ColumnStore::FromTuples(lp.variables, identity);
  BAGC_RETURN_NOT_OK(
      AppendAllRows(bags, lp.joined_schema, var_columns.View(), &lp));
  return lp;
}

}  // namespace bagc
