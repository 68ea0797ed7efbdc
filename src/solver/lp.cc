#include "solver/lp.h"

#include <algorithm>
#include <numeric>

#include "tuple/column_index.h"
#include "tuple/value_codec.h"

namespace bagc {

namespace {

// Where one attribute of the joined schema is read from: the first bag, in
// bag order, that has it, and its slot there.
struct AttrSource {
  size_t bag;
  size_t slot;
};

Schema JoinedSchema(const std::vector<Bag>& bags) {
  Schema joined = bags[0].schema();
  for (size_t i = 1; i < bags.size(); ++i) {
    joined = Schema::Union(joined, bags[i].schema());
  }
  return joined;
}

size_t SlotOf(const Schema& schema, AttrId a) {
  const std::vector<AttrId>& attrs = schema.attrs();
  return static_cast<size_t>(std::lower_bound(attrs.begin(), attrs.end(), a) -
                             attrs.begin());
}

std::vector<AttrSource> AttrSources(const std::vector<Bag>& bags,
                                    const Schema& joined) {
  std::vector<AttrSource> sources(joined.arity(), {bags.size(), 0});
  for (size_t i = 0; i < bags.size(); ++i) {
    const Schema& x = bags[i].schema();
    for (size_t c = 0; c < x.arity(); ++c) {
      AttrSource& s = sources[SlotOf(joined, x.at(c))];
      if (s.bag == bags.size()) s = {i, c};
    }
  }
  return sources;
}

// J = R'1 ⋈ ... ⋈ R'm as a bag-order fold that keeps provenance instead of
// columns: on return, row v of J (*rows of them, in fold order) joins
// support row (*prov)[i * *rows + v] of every bag i. Each step gathers the
// fold's side of the shared attributes through the provenance, matches it
// against the next bag with ColumnJoinMatch, and counts the step's pairs
// from the group sizes: past `cap` it refuses before writing a row.
Status FoldJoin(const std::vector<Bag>& bags, const Schema& joined,
                const std::vector<AttrSource>& sources, size_t cap,
                std::vector<uint32_t>* prov, size_t* rows) {
  size_t n = bags[0].SupportSize();
  prov->resize(n);
  std::iota(prov->begin(), prov->end(), 0u);
  std::vector<ValueId> keys;
  for (size_t k = 1; k < bags.size(); ++k) {
    const Bag& next = bags[k];
    const Schema& x = next.schema();
    // The shared attributes are bag k's slots some earlier bag also has.
    size_t shared = 0;
    for (size_t c = 0; c < x.arity(); ++c) {
      shared += sources[SlotOf(joined, x.at(c))].bag < k;
    }
    keys.resize(shared * n);
    std::vector<const ValueId*> left(shared);
    std::vector<const ValueId*> right(shared);
    for (size_t c = 0, z = 0; c < x.arity(); ++c) {
      const AttrSource& s = sources[SlotOf(joined, x.at(c))];
      if (s.bag >= k) continue;
      const ValueId* col = bags[s.bag].Column(s.slot);
      const uint32_t* from = prov->data() + s.bag * n;
      ValueId* dst = keys.data() + z * n;
      for (size_t v = 0; v < n; ++v) dst[v] = col[from[v]];
      left[z] = dst;
      right[z++] = next.Column(c);
    }
    ColumnJoinMatch match(ColumnView(std::move(left), n),
                          ColumnView(std::move(right), next.SupportSize()));
    const size_t pairs = match.CountPairs();
    if (pairs > cap) {
      return Status::ResourceExhausted("join support exceeds cap (" +
                                       std::to_string(cap) + ")");
    }
    std::vector<uint32_t> extended((k + 1) * pairs);
    size_t o = 0;
    match.ForEachPair([&](uint32_t l, uint32_t j) {
      for (size_t i = 0; i < k; ++i) extended[i * pairs + o] = (*prov)[i * n + l];
      extended[k * pairs + o++] = j;
    });
    *prov = std::move(extended);
    n = pairs;
  }
  *rows = n;
  return Status::OK();
}

// Gathers J's columns through the provenance into lp->variables, sorted.
// The fold emits Tuple order whenever each step's schema so far leads the
// next one; otherwise one index sort reorders the columns and the
// provenance together.
void GatherVariables(const std::vector<Bag>& bags,
                     const std::vector<AttrSource>& sources, size_t n,
                     std::vector<uint32_t>* prov, ConsistencyLp* lp) {
  const size_t arity = lp->joined_schema.arity();
  std::vector<ValueId> data(arity * n);
  for (size_t c = 0; c < arity; ++c) {
    const ValueId* col = bags[sources[c].bag].Column(sources[c].slot);
    const uint32_t* from = prov->data() + sources[c].bag * n;
    ValueId* dst = data.data() + c * n;
    for (size_t v = 0; v < n; ++v) dst[v] = col[from[v]];
  }
  // Row a < row b in Tuple order (ValueIdLess-aware, as
  // ColumnView::CompareRows, but inline: the sort calls it n log n times).
  auto less = [&](size_t a, size_t b) {
    for (const ValueId* col = data.data(); col != data.data() + arity * n; col += n) {
      if (col[a] != col[b]) return ValueIdLess(col[a], col[b]);
    }
    return false;
  };
  size_t v = 1;
  while (v < n && less(v - 1, v)) ++v;
  if (v < n) {
    // Distinct rows (each is one choice of support row per bag), so the
    // order is strict.
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), less);
    std::vector<ValueId> sorted(arity * n);
    for (size_t c = 0; c < arity; ++c) {
      for (size_t w = 0; w < n; ++w) sorted[c * n + w] = data[c * n + order[w]];
    }
    std::vector<uint32_t> permuted(prov->size());
    for (size_t i = 0; i < bags.size(); ++i) {
      for (size_t w = 0; w < n; ++w) permuted[i * n + w] = (*prov)[i * n + order[w]];
    }
    data = std::move(sorted);
    *prov = std::move(permuted);
  }
  lp->variables.columns = ColumnStore::FromColumnMajor(std::move(data), n, arity);
}

// Appends bag i's rows given every variable's support row in that bag
// (src[v], or LpRows::kOutsideSupport): one row per support row, in
// support order, then one rhs-0 row per outside tuple, in tuple order.
// A counting sort over src lays the support rows' variables out
// ascending. `keys` (the variables projected onto the bag) orders the
// outside tuples; it may be null when no src is outside.
void AppendBagRows(uint32_t i, const Bag& bag, const uint32_t* src, size_t n,
                   const ColumnView* keys, LpRows* rows) {
  const size_t support = bag.SupportSize();
  const size_t base = rows->vars.size();
  std::vector<size_t> cursor(support + 1, 0);
  std::vector<uint32_t> pinned;
  for (size_t v = 0; v < n; ++v) {
    if (src[v] == LpRows::kOutsideSupport) {
      pinned.push_back(static_cast<uint32_t>(v));
    } else {
      ++cursor[src[v] + 1];
    }
  }
  const uint64_t* mults = bag.MultiplicityData();
  for (size_t e = 0; e < support; ++e) {
    cursor[e + 1] += cursor[e];
    rows->bag.push_back(i);
    rows->support_row.push_back(static_cast<uint32_t>(e));
    rows->rhs.push_back(mults[e]);
    rows->offsets.push_back(base + cursor[e + 1]);
  }
  rows->vars.resize(base + n);
  uint32_t* vars = rows->vars.data() + base;
  for (size_t v = 0; v < n; ++v) {
    if (src[v] != LpRows::kOutsideSupport) vars[cursor[src[v]]++] = static_cast<uint32_t>(v);
  }
  if (pinned.empty()) return;
  // Stable, so each outside tuple's variables stay ascending.
  std::stable_sort(pinned.begin(), pinned.end(), [&](uint32_t a, uint32_t b) {
    return keys->CompareRows(a, *keys, b) < 0;
  });
  size_t at = n - pinned.size();
  for (size_t a = 0; a < pinned.size();) {
    size_t b = a + 1;
    while (b < pinned.size() && keys->RowsEqual(pinned[a], *keys, pinned[b])) ++b;
    for (; a < b; ++a) vars[at++] = pinned[a];
    rows->bag.push_back(i);
    rows->support_row.push_back(LpRows::kOutsideSupport);
    rows->rhs.push_back(0);
    rows->offsets.push_back(base + at);
  }
}

void ReserveRows(const std::vector<Bag>& bags, size_t n, LpRows* rows) {
  size_t support = 0;
  for (const Bag& b : bags) support += b.SupportSize();
  rows->bag.reserve(support);
  rows->support_row.reserve(support);
  rows->rhs.reserve(support);
  rows->offsets.reserve(support + 1);
  rows->offsets.push_back(0);
  rows->vars.reserve(bags.size() * n);
}

}  // namespace

Result<ConsistencyLp> BuildConsistencyLp(const std::vector<Bag>& bags,
                                         size_t max_join_support) {
  if (bags.empty()) return Status::InvalidArgument("empty bag collection");
  ConsistencyLp lp;
  lp.joined_schema = JoinedSchema(bags);
  const std::vector<AttrSource> sources = AttrSources(bags, lp.joined_schema);
  std::vector<uint32_t> prov;
  size_t n = 0;
  BAGC_RETURN_NOT_OK(
      FoldJoin(bags, lp.joined_schema, sources, max_join_support, &prov, &n));
  GatherVariables(bags, sources, n, &prov, &lp);
  ReserveRows(bags, n, &lp.rows);
  for (size_t i = 0; i < bags.size(); ++i) {
    AppendBagRows(static_cast<uint32_t>(i), bags[i], prov.data() + i * n, n,
                  nullptr, &lp.rows);
  }
  return lp;
}

Result<ConsistencyLp> BuildLpWithVariables(const std::vector<Bag>& bags,
                                           std::vector<Tuple> variables) {
  if (bags.empty()) return Status::InvalidArgument("empty bag collection");
  ConsistencyLp lp;
  lp.joined_schema = JoinedSchema(bags);
  std::sort(variables.begin(), variables.end());
  variables.erase(std::unique(variables.begin(), variables.end()), variables.end());
  for (const Tuple& t : variables) {
    if (t.arity() != lp.joined_schema.arity()) {
      return Status::InvalidArgument("variable tuple arity does not match XY schema");
    }
  }
  BAGC_ASSIGN_OR_RETURN(Projector identity,
                        Projector::Make(lp.joined_schema, lp.joined_schema));
  lp.variables.columns = ColumnStore::FromTuples(variables, identity);
  const size_t n = variables.size();
  const ColumnView view = lp.variables.columns.View();
  ReserveRows(bags, n, &lp.rows);
  std::vector<uint32_t> src(n);
  for (size_t i = 0; i < bags.size(); ++i) {
    const Bag& bag = bags[i];
    BAGC_ASSIGN_OR_RETURN(Projector proj, Projector::Make(lp.joined_schema, bag.schema()));
    const ColumnView keys = view.Select(proj);
    // Support rows are distinct, so a matched group is one support row.
    ColumnJoinMatch match(keys, bag.Columns());
    for (size_t v = 0; v < n; ++v) {
      const uint32_t g = match.MatchOf(v);
      src[v] = g == ColumnJoinMatch::kNoMatch ? LpRows::kOutsideSupport
                                               : match.RightRows(g)[0];
    }
    AppendBagRows(static_cast<uint32_t>(i), bag, src.data(), n, &keys, &lp.rows);
  }
  return lp;
}

}  // namespace bagc
