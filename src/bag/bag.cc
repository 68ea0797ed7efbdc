#include "bag/bag.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>

#include "bag/entry_seal.h"
#include "tuple/column_index.h"
#include "tuple/value_codec.h"

namespace bagc {

namespace {

// GroupColumns inputs below this many rows sort-merge their row indices:
// at that size a comparison sort beats hashing every row.
constexpr size_t kSortGroupMaxRows = 32;

// True iff x's attributes are the first x.arity() attributes of xy.
bool LeadsLayout(const Schema& x, const Schema& xy) {
  return std::equal(x.attrs().begin(), x.attrs().end(), xy.attrs().begin());
}

// The first row r > 0 of `n` that does not sort strictly after row r - 1
// in Tuple order, or n when every one does: the sealed-row check of a
// segment reload. A row is compared without a branch per slot (less is
// x < y, or x == y and the later slots are less); one that touches a
// side-table id is compared again through ValueIdLess.
size_t FirstUnascendingRow(const ValueId* const* columns, size_t arity, size_t n) {
  for (size_t r = 1; r < n; ++r) {
    bool less = false;
    ValueId ids = 0;
    for (size_t c = arity; c-- > 0;) {
      const ValueId x = columns[c][r - 1];
      const ValueId y = columns[c][r];
      ids |= x | y;
      less = (x < y) | ((x == y) & less);
    }
    if (ids >= kDirectValueLimit) {
      size_t c = 0;
      while (c < arity && columns[c][r - 1] == columns[c][r]) ++c;
      less = c < arity && ValueIdLess(columns[c][r - 1], columns[c][r]);
    }
    if (!less) return r;
  }
  return n;
}

}  // namespace

Bag Bag::Sealed(Schema schema, ColumnStore columns,
                std::vector<uint64_t> mults) {
  Bag bag(std::move(schema));
  if (columns.num_rows() == 0) return bag;
  auto rep = std::make_shared<Columnar>();
  rep->columns = std::move(columns);
  rep->mults = std::move(mults);
  bag.rep_ = std::move(rep);
  return bag;
}

ColumnView Bag::Columns() const {
  if (rep_ == nullptr) {
    return ColumnView(std::vector<const ValueId*>(schema_.arity(), nullptr), 0);
  }
  return rep_->columns.View();
}

std::shared_ptr<const ColumnStore> Bag::SharedColumns() const {
  if (rep_ == nullptr) return nullptr;
  return std::shared_ptr<const ColumnStore>(rep_, &rep_->columns);
}

Status Bag::ValidateColumnar(const Schema& schema, const ColumnView& rows,
                             const uint64_t* mults) {
  if (rows.arity() != schema.arity()) {
    return Status::InvalidArgument("columnar arity does not match bag schema");
  }
  const size_t n = rows.num_rows();
  std::vector<const ValueId*> columns(rows.arity());
  for (size_t c = 0; c < columns.size(); ++c) columns[c] = rows.column(c);
  const size_t unascending = FirstUnascendingRow(columns.data(), columns.size(), n);
  // Row by row, a zero multiplicity is reported before an out-of-order
  // row; so the first failing row decides which message is returned.
  const size_t zero = std::find(mults, mults + n, uint64_t{0}) - mults;
  if (zero < n && zero <= unascending) {
    return Status::InvalidArgument(
        "sealed columnar bag carries a zero multiplicity at row " + std::to_string(zero));
  }
  if (unascending < n) {
    return Status::InvalidArgument(
        "sealed columnar rows not strictly ascending at row " + std::to_string(unascending));
  }
  return Status::OK();
}

Result<Bag> Bag::FromColumnar(Schema schema, ColumnStore columns,
                              std::vector<uint64_t> mults) {
  if (columns.num_rows() != mults.size()) {
    return Status::InvalidArgument("columnar rows and multiplicities differ");
  }
  BAGC_RETURN_NOT_OK(ValidateColumnar(schema, columns.View(), mults.data()));
  return Sealed(std::move(schema), std::move(columns), std::move(mults));
}

Result<Bag> Bag::BorrowColumnar(Schema schema, const ValueId* column_major,
                                const uint64_t* mults, size_t rows,
                                std::shared_ptr<const void> keep_alive) {
  ColumnStore store = ColumnStore::Borrow(column_major, rows, schema.arity());
  BAGC_RETURN_NOT_OK(ValidateColumnar(schema, store.View(), mults));
  Bag bag(std::move(schema));
  if (rows == 0) return bag;
  auto rep = std::make_shared<Columnar>();
  rep->columns = std::move(store);
  rep->borrowed_mults = mults;
  rep->keep_alive = std::move(keep_alive);
  bag.rep_ = std::move(rep);
  return bag;
}

Status Bag::Set(const Tuple& t, uint64_t mult) {
  if (t.arity() != schema_.arity()) {
    return Status::InvalidArgument("tuple arity does not match bag schema");
  }
  if (mult == 0 && Multiplicity(t) == 0) return Status::OK();  // no-op erase
  MergeRows({{t, mult}});
  return Status::OK();
}

Status Bag::Add(const Tuple& t, uint64_t mult) {
  if (t.arity() != schema_.arity()) {
    return Status::InvalidArgument("tuple arity does not match bag schema");
  }
  if (mult == 0) return Status::OK();
  BAGC_ASSIGN_OR_RETURN(uint64_t sum, CheckedAdd(Multiplicity(t), mult));
  MergeRows({{t, sum}});
  return Status::OK();
}

uint64_t Bag::Multiplicity(const Tuple& t) const {
  if (rep_ == nullptr || t.arity() != schema_.arity()) return 0;
  const ColumnStore& cs = rep_->columns;
  size_t arity = schema_.arity();
  // Binary search replicating Tuple::operator< exactly (including value
  // order for side-table ids) against the column layout.
  auto row_less = [&](size_t r) {
    for (size_t c = 0; c < arity; ++c) {
      ValueId x = cs.column(c)[r];
      ValueId y = t.id(c);
      if (x == y) continue;
      if ((x | y) < kDirectValueLimit) return x < y;
      return ValueIdLess(x, y);
    }
    return false;
  };
  size_t lo = 0;
  size_t hi = cs.num_rows();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (row_less(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == cs.num_rows()) return 0;
  for (size_t c = 0; c < arity; ++c) {
    if (cs.column(c)[lo] != t.id(c)) return 0;
  }
  return rep_->mult_data()[lo];
}

void Bag::MergeRows(const std::vector<std::pair<Tuple, uint64_t>>& updates) {
  const size_t n = SupportSize();
  const size_t arity = schema_.arity();
  ColumnView old = Columns();
  const uint64_t* old_mults = MultiplicityData();
  Projector identity = Projector::Make(schema_, schema_).value();
  ColumnStore upd_store = ColumnStore::FromEntries(updates, identity);
  ColumnView upd = upd_store.View();
  // Output row sources: an old row index, or kFromUpdate | update index.
  constexpr size_t kFromUpdate = size_t{1} << (sizeof(size_t) * 8 - 1);
  std::vector<size_t> source;
  std::vector<uint64_t> mults;
  source.reserve(n + updates.size());
  mults.reserve(n + updates.size());
  size_t i = 0;
  for (size_t k = 0; k < updates.size(); ++k) {
    int cmp = 1;
    while (i < n && (cmp = old.CompareRows(i, upd, k)) < 0) {
      source.push_back(i);
      mults.push_back(old_mults[i++]);
    }
    if (cmp == 0) ++i;  // the update replaces old row i
    if (updates[k].second != 0) {
      source.push_back(kFromUpdate | k);
      mults.push_back(updates[k].second);
    }
  }
  for (; i < n; ++i) {
    source.push_back(i);
    mults.push_back(old_mults[i]);
  }
  const size_t rows = source.size();
  std::vector<ValueId> data(arity * rows);
  for (size_t c = 0; c < arity; ++c) {
    ValueId* dst = data.data() + c * rows;
    for (size_t r = 0; r < rows; ++r) {
      size_t s = source[r];
      dst[r] = (s & kFromUpdate) ? upd.at(s & ~kFromUpdate, c) : old.at(s, c);
    }
  }
  *this = Sealed(schema_,
                 ColumnStore::FromColumnMajor(std::move(data), rows, arity),
                 std::move(mults));
}

Result<size_t> Bag::ApplyRowDeltas(const RowDeltas& deltas,
                                   RowDeltas* applied) {
  // Net the stream per tuple first so `insert x, delete x` cancels and a
  // repeated row accumulates once — validation then sees one signed net
  // per tuple, which is what all-or-nothing semantics must judge.
  std::map<Tuple, int64_t> net;
  for (const auto& [t, d] : deltas) {
    if (t.arity() != schema_.arity()) {
      return Status::InvalidArgument("tuple arity does not match bag schema");
    }
    int64_t& acc = net[t];
    if (__builtin_add_overflow(acc, d, &acc)) {
      return Status::OutOfRange("delta net overflows int64 for row " +
                                t.ToString());
    }
  }
  // Validate every net against the current multiplicities before touching
  // storage: a delete below zero or an insert overflow must leave the bag
  // exactly as it was.
  std::vector<std::pair<Tuple, uint64_t>> next;
  next.reserve(net.size());
  for (const auto& [t, d] : net) {
    if (d == 0) continue;
    uint64_t have = Multiplicity(t);
    if (d < 0) {
      // |d| without negating INT64_MIN (UB): -(d + 1) is in range.
      uint64_t drop = static_cast<uint64_t>(-(d + 1)) + 1;
      if (drop > have) {
        return Status::OutOfRange("DELETE below zero multiplicity: bag has " +
                                  std::to_string(have) + " of row " +
                                  t.ToString());
      }
      next.emplace_back(t, have - drop);
    } else {
      BAGC_ASSIGN_OR_RETURN(uint64_t bumped,
                            CheckedAdd(have, static_cast<uint64_t>(d)));
      next.emplace_back(t, bumped);
    }
  }
  // `net` is a sorted map, so `next` is strictly ascending.
  if (!next.empty()) MergeRows(next);
  if (applied != nullptr) {
    applied->clear();
    for (const auto& [t, d] : net) {
      if (d != 0) applied->emplace_back(t, d);
    }
  }
  return next.size();
}

Result<Bag> Bag::Marginal(const Schema& z) const {
  BAGC_ASSIGN_OR_RETURN(Projector proj, Projector::Make(schema_, z));
  return GroupColumns(z, Columns().Select(proj), MultiplicityData(),
                      SupportSize());
}

Result<Bag> Bag::GroupColumns(const Schema& z, const ColumnView& projected,
                              const uint64_t* mults, size_t n) {
  if (projected.arity() != z.arity() || projected.num_rows() != n) {
    return Status::InvalidArgument("projected columns do not match source rows");
  }
  if (n == 0) return Bag(z);
  if (n < kSortGroupMaxRows) return GroupSorted(z, projected, mults, n);
  size_t arity = z.arity();
  // Radix-style dense path for the common shared-attribute arities: pack
  // the (<= 2) key ids into one integer and count into a flat table. Only
  // when every id is direct-range (so ascending packed key == ascending
  // Tuple order) and the key space passed the density gate.
  if (arity >= 1 && arity <= 2) {
    ValueId max_a = projected.MaxId(0);
    ValueId max_b = arity == 2 ? projected.MaxId(1) : 0;
    if (max_a < kDirectValueLimit && max_b < kDirectValueLimit) {
      uint64_t stride = static_cast<uint64_t>(max_b) + 1;
      uint64_t table = (static_cast<uint64_t>(max_a) + 1) * stride;
      uint64_t cap = std::max<uint64_t>(4096, 4 * static_cast<uint64_t>(n));
      if (table <= cap) {
        return GroupDense(z, projected, mults, n, stride, table);
      }
    }
  }
  return GroupHashed(z, projected, mults);
}

Result<Bag> Bag::GroupSorted(const Schema& z, const ColumnView& projected,
                             const uint64_t* mults, size_t n) {
  // Insertion sort of the row indices: stable, so equal rows stay in
  // ascending row order and each run sums in the same order as the other
  // kernels — overflow trips at the identical row.
  uint32_t order[kSortGroupMaxRows];
  for (uint32_t r = 0; r < n; ++r) {
    size_t k = r;
    for (; k > 0 && projected.CompareRows(r, projected, order[k - 1]) < 0; --k) {
      order[k] = order[k - 1];
    }
    order[k] = r;
  }
  uint32_t leads[kSortGroupMaxRows];
  std::vector<uint64_t> sums;
  sums.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    uint32_t r = order[k];
    if (!sums.empty() && projected.RowsEqual(leads[sums.size() - 1], projected, r)) {
      BAGC_ASSIGN_OR_RETURN(sums.back(), CheckedAdd(sums.back(), mults[r]));
    } else {
      leads[sums.size()] = r;
      sums.push_back(mults[r]);
    }
  }
  return EmitGroups(z, projected, leads, std::move(sums));
}

Result<Bag> Bag::GroupDense(const Schema& z, const ColumnView& projected,
                            const uint64_t* mults, size_t n, uint64_t stride,
                            uint64_t table) {
  size_t arity = projected.arity();
  std::vector<uint64_t> acc(table, 0);
  size_t groups = 0;
  // Accumulation visits rows in ascending order — the same per-group add
  // order as the hash path, so overflow trips at the identical row.
  if (arity == 1) {
    const ValueId* a = projected.column(0);
    for (size_t r = 0; r < n; ++r) {
      uint64_t& slot = acc[a[r]];
      if (slot == 0) ++groups;
      BAGC_ASSIGN_OR_RETURN(slot, CheckedAdd(slot, mults[r]));
    }
  } else {
    const ValueId* a = projected.column(0);
    const ValueId* b = projected.column(1);
    for (size_t r = 0; r < n; ++r) {
      uint64_t& slot = acc[static_cast<uint64_t>(a[r]) * stride + b[r]];
      if (slot == 0) ++groups;
      BAGC_ASSIGN_OR_RETURN(slot, CheckedAdd(slot, mults[r]));
    }
  }
  // Emit straight into the sealed columnar layout: a linear scan of the
  // table is ascending packed-key order, which the gate guarantees is
  // ascending Tuple order.
  std::vector<ValueId> data(arity * groups);
  std::vector<uint64_t> out_mults(groups);
  size_t g = 0;
  if (arity == 1) {
    for (uint64_t k = 0; k < table; ++k) {
      if (acc[k] == 0) continue;
      data[g] = static_cast<ValueId>(k);
      out_mults[g] = acc[k];
      ++g;
    }
  } else {
    ValueId* col_a = data.data();
    ValueId* col_b = data.data() + groups;
    uint64_t k = 0;
    for (uint64_t va = 0; k < table; ++va) {
      for (uint64_t vb = 0; vb < stride; ++vb, ++k) {
        if (acc[k] == 0) continue;
        col_a[g] = static_cast<ValueId>(va);
        col_b[g] = static_cast<ValueId>(vb);
        out_mults[g] = acc[k];
        ++g;
      }
    }
  }
  return Sealed(z, ColumnStore::FromColumnMajor(std::move(data), groups, arity),
                std::move(out_mults));
}

Result<Bag> Bag::GroupHashed(const Schema& z, const ColumnView& projected,
                             const uint64_t* mults) {
  ColumnIndex groups(projected);
  size_t ng = groups.NumGroups();
  std::vector<uint64_t> sums(ng);
  for (size_t g = 0; g < ng; ++g) {
    ColumnIndex::Rows rows = groups.GroupRows(g);
    uint64_t total = mults[rows[0]];
    for (size_t k = 1; k < rows.size(); ++k) {
      BAGC_ASSIGN_OR_RETURN(total, CheckedAdd(total, mults[rows[k]]));
    }
    sums[g] = total;
  }
  // Sort groups into Tuple order by their lead rows (ValueIdLess-aware).
  std::vector<uint32_t> order(ng);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return projected.CompareRows(groups.LeadRow(x), projected,
                                 groups.LeadRow(y)) < 0;
  });
  std::vector<uint32_t> leads(ng);
  std::vector<uint64_t> sorted_sums(ng);
  for (size_t g = 0; g < ng; ++g) {
    leads[g] = groups.LeadRow(order[g]);
    sorted_sums[g] = sums[order[g]];
  }
  return EmitGroups(z, projected, leads.data(), std::move(sorted_sums));
}

Bag Bag::EmitGroups(const Schema& z, const ColumnView& projected,
                    const uint32_t* leads, std::vector<uint64_t> sums) {
  // Straight into the sealed columnar layout — no per-group Tuple.
  size_t arity = projected.arity();
  size_t ng = sums.size();
  std::vector<ValueId> data(arity * ng);
  for (size_t c = 0; c < arity; ++c) {
    for (size_t g = 0; g < ng; ++g) data[c * ng + g] = projected.at(leads[g], c);
  }
  return Sealed(z, ColumnStore::FromColumnMajor(std::move(data), ng, arity),
                std::move(sums));
}

Result<Bag> Bag::Join(const Bag& r, const Bag& s) {
  BAGC_ASSIGN_OR_RETURN(TupleJoiner joiner, TupleJoiner::Make(r.schema(), s.schema()));
  const bool s_outer = JoinVisitsS(r, s, joiner);
  const Bag& outer = s_outer ? s : r;
  const Bag& inner = s_outer ? r : s;
  BAGC_ASSIGN_OR_RETURN(Projector outer_z,
                        Projector::Make(outer.schema(), joiner.shared_schema()));
  BAGC_ASSIGN_OR_RETURN(Projector inner_z,
                        Projector::Make(inner.schema(), joiner.shared_schema()));
  ColumnJoinMatch match(outer.Columns().Select(outer_z),
                        inner.Columns().Select(inner_z));
  const size_t n = match.CountPairs();
  std::vector<uint32_t> outer_rows(n);
  std::vector<uint32_t> inner_rows(n);
  size_t k = 0;
  match.ForEachPair([&](uint32_t i, uint32_t j) {
    outer_rows[k] = i;
    inner_rows[k++] = j;
  });
  std::vector<uint64_t> mults(n);
  const uint64_t* outer_mult = outer.MultiplicityData();
  const uint64_t* inner_mult = inner.MultiplicityData();
  for (k = 0; k < n; ++k) {
    BAGC_ASSIGN_OR_RETURN(mults[k],
                          CheckedMul(outer_mult[outer_rows[k]], inner_mult[inner_rows[k]]));
  }
  return FromJoinPairs(joiner, r, s, s_outer ? inner_rows : outer_rows,
                       s_outer ? outer_rows : inner_rows, std::move(mults));
}

bool Bag::JoinVisitsS(const Bag& r, const Bag& s, const TupleJoiner& joiner) {
  const Schema& xy = joiner.joined_schema();
  return !LeadsLayout(r.schema(), xy) && LeadsLayout(s.schema(), xy);
}

Result<Bag> Bag::FromJoinPairs(const TupleJoiner& joiner, const Bag& r,
                               const Bag& s, const std::vector<uint32_t>& r_rows,
                               const std::vector<uint32_t>& s_rows,
                               std::vector<uint64_t> mults) {
  const Schema& xy = joiner.joined_schema();
  const size_t n = mults.size();
  const size_t arity = xy.arity();
  // Gather the joined columns, one column at a time.
  std::vector<ValueId> data(n * arity);
  for (size_t c = 0; c < arity; ++c) {
    const auto& [from_r, slot] = joiner.slot_sources()[c];
    const ValueId* src = from_r ? r.Column(slot) : s.Column(slot);
    const uint32_t* at = from_r ? r_rows.data() : s_rows.data();
    ValueId* dst = data.data() + c * n;
    for (size_t k = 0; k < n; ++k) dst[k] = src[at[k]];
  }
  ColumnStore columns = ColumnStore::FromColumnMajor(std::move(data), n, arity);
  // The visited side's rows sort on the leading attributes, and within one
  // of its rows the partners of one shared-attribute group differ only on
  // attributes past them, so the pairs are already Tuple order.
  if (LeadsLayout(r.schema(), xy) || LeadsLayout(s.schema(), xy)) {
    return Sealed(xy, std::move(columns), std::move(mults));
  }
  // Neither side leads (their attributes interleave): sort the rows. They
  // are distinct join tuples, so grouping merges nothing.
  return GroupColumns(xy, columns.View(), mults.data(), n);
}

bool Bag::Contained(const Bag& r, const Bag& s) {
  if (r.schema() != s.schema()) return false;
  size_t n = r.SupportSize();
  for (size_t i = 0; i < n; ++i) {
    if (r.MultiplicityAt(i) > s.Multiplicity(r.RowAt(i))) return false;
  }
  return true;
}

bool Bag::operator==(const Bag& o) const {
  if (schema_ != o.schema_) return false;
  size_t n = SupportSize();
  if (n != o.SupportSize()) return false;
  if (n == 0 || rep_ == o.rep_) return true;
  // The whole id layout is one contiguous column-major span per side.
  size_t arity = schema_.arity();
  if (arity != 0 && std::memcmp(rep_->columns.column(0), o.rep_->columns.column(0),
                                n * arity * sizeof(ValueId)) != 0) {
    return false;
  }
  return std::memcmp(rep_->mult_data(), o.rep_->mult_data(),
                     n * sizeof(uint64_t)) == 0;
}

uint64_t Bag::MultiplicityBound() const {
  uint64_t best = 0;
  size_t n = SupportSize();
  for (size_t i = 0; i < n; ++i) best = std::max(best, MultiplicityAt(i));
  return best;
}

uint64_t Bag::MultiplicitySize() const {
  uint64_t best = 0;
  size_t n = SupportSize();
  for (size_t i = 0; i < n; ++i) {
    best = std::max<uint64_t>(best, BitLength(MultiplicityAt(i) + 1));
  }
  return best;
}

Result<uint64_t> Bag::UnarySize() const {
  uint64_t total = 0;
  size_t n = SupportSize();
  for (size_t i = 0; i < n; ++i) {
    BAGC_ASSIGN_OR_RETURN(total, CheckedAdd(total, MultiplicityAt(i)));
  }
  return total;
}

uint64_t Bag::BinarySize() const {
  uint64_t total = 0;
  size_t n = SupportSize();
  for (size_t i = 0; i < n; ++i) total += BitLength(MultiplicityAt(i) + 1);
  return total;
}

size_t Bag::ApproxBytes() const {
  if (rep_ == nullptr) return 0;
  size_t n = SupportSize();
  size_t bytes = sizeof(Columnar);
  if (!rep_->columns.is_borrowed()) bytes += n * schema_.arity() * sizeof(ValueId);
  if (rep_->borrowed_mults == nullptr) bytes += n * sizeof(uint64_t);
  return bytes;
}

std::string Bag::ToString(const AttributeCatalog& catalog) const {
  std::string out = schema_.ToString(catalog) + " [\n";
  size_t n = SupportSize();
  for (size_t i = 0; i < n; ++i) {
    out += "  " + RowAt(i).ToString() + " : " + std::to_string(MultiplicityAt(i)) + "\n";
  }
  out += "]";
  return out;
}

std::string Bag::ToString() const {
  std::string out = schema_.ToString() + " [\n";
  size_t n = SupportSize();
  for (size_t i = 0; i < n; ++i) {
    out += "  " + RowAt(i).ToString() + " : " + std::to_string(MultiplicityAt(i)) + "\n";
  }
  out += "]";
  return out;
}

Status BagBuilder::Add(Tuple t, uint64_t mult) {
  if (t.arity() != schema_.arity()) {
    return Status::InvalidArgument("tuple arity does not match bag schema");
  }
  pending_.emplace_back(std::move(t), mult);
  return Status::OK();
}

Status BagBuilder::AddExternal(const std::vector<std::string>& tokens,
                               uint64_t mult, DictionarySet* dicts) {
  if (dicts == nullptr) {
    return Status::InvalidArgument("AddExternal requires a dictionary set");
  }
  BAGC_ASSIGN_OR_RETURN(Tuple t, dicts->EncodeRow(schema_, tokens));
  return Add(std::move(t), mult);
}

template <typename Plus>
Result<Bag> BagBuilder::Seal(Plus&& plus) {
  std::vector<std::pair<Tuple, uint64_t>> rows = std::move(pending_);
  pending_.clear();
  BAGC_RETURN_NOT_OK(internal::SealEntries(&rows, std::forward<Plus>(plus),
                                           [](uint64_t m) { return m == 0; }));
  // The identity projection is always valid.
  Projector identity = Projector::Make(schema_, schema_).value();
  std::vector<uint64_t> mults(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) mults[i] = rows[i].second;
  return Bag::Sealed(schema_, ColumnStore::FromEntries(rows, identity),
                     std::move(mults));
}

Result<Bag> BagBuilder::Build() {
  return Seal([](const Tuple&, uint64_t a, uint64_t b) { return CheckedAdd(a, b); });
}

Result<Bag> BagBuilder::BuildDistinct() {
  return Seal([](const Tuple& t, uint64_t, uint64_t) -> Result<uint64_t> {
    return Status::InvalidArgument("duplicate tuple: " + t.ToString());
  });
}

Result<Bag> MakeBag(
    const Schema& schema,
    const std::vector<std::pair<std::vector<Value>, uint64_t>>& rows) {
  BagBuilder builder(schema);
  builder.Reserve(rows.size());
  for (const auto& [values, mult] : rows) {
    if (values.size() != schema.arity()) {
      return Status::InvalidArgument("row arity does not match schema");
    }
    BAGC_RETURN_NOT_OK(builder.Add(Tuple{values}, mult));
  }
  // BuildDistinct fails only on a repeated tuple.
  Result<Bag> bag = builder.BuildDistinct();
  if (!bag.ok()) return Status::AlreadyExists(bag.status().message());
  return bag;
}

}  // namespace bagc
