#include "bag/bag.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>

#include "bag/entry_seal.h"
#include "tuple/tuple_index.h"
#include "tuple/value_codec.h"

namespace bagc {

namespace {

bool EntryTupleLess(const Bag::Entry& e, const Tuple& t) { return e.first < t; }

}  // namespace

const Bag::Entries& Bag::NoEntries() {
  static const Entries kEmpty;
  return kEmpty;
}

Bag::Entries& Bag::MutableEntries() {
  if (columnar_ != nullptr) {
    // De-seal: materialize the row form from the columns (delta staging
    // and the other mutators are cold paths). Other bags sharing the
    // columnar rep keep it — the rep is immutable.
    std::shared_ptr<const Columnar> rep = columnar_;
    size_t n = rep->columns.num_rows();
    auto es = std::make_shared<Entries>();
    es->reserve(n);
    const uint64_t* mults = rep->mult_data();
    for (size_t i = 0; i < n; ++i) {
      es->emplace_back(rep->columns.RowAt(i), mults[i]);
    }
    entries_ = std::move(es);
    columnar_.reset();
  } else if (entries_ == nullptr) {
    entries_ = std::make_shared<Entries>();
  } else if (entries_.use_count() > 1) {
    entries_ = std::make_shared<Entries>(*entries_);
  }
  return *entries_;
}

void Bag::SealColumnar() {
  if (columnar_ != nullptr) return;
  const Entries& es = entries_ ? *entries_ : NoEntries();
  size_t n = es.size();
  auto rep = std::make_shared<Columnar>();
  Projector identity = Projector::Make(schema_, schema_).value();
  rep->columns = ColumnStore::FromEntries(es, identity);
  rep->mults.resize(n);
  for (size_t i = 0; i < n; ++i) rep->mults[i] = es[i].second;
  AdoptColumnar(std::move(rep));
}

std::shared_ptr<const ColumnStore> Bag::SharedColumns() const {
  if (columnar_ == nullptr) return nullptr;
  return std::shared_ptr<const ColumnStore>(columnar_, &columnar_->columns);
}

Status Bag::ValidateColumnar(const Schema& schema, const ColumnView& rows,
                             const uint64_t* mults) {
  if (rows.arity() != schema.arity()) {
    return Status::InvalidArgument("columnar arity does not match bag schema");
  }
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    if (mults[r] == 0) {
      return Status::InvalidArgument(
          "sealed columnar bag carries a zero multiplicity at row " +
          std::to_string(r));
    }
    if (r > 0 && rows.CompareRows(r - 1, rows, r) >= 0) {
      return Status::InvalidArgument(
          "sealed columnar rows not strictly ascending at row " +
          std::to_string(r));
    }
  }
  return Status::OK();
}

Result<Bag> Bag::FromColumnar(Schema schema, ColumnStore columns,
                              std::vector<uint64_t> mults) {
  if (columns.num_rows() != mults.size()) {
    return Status::InvalidArgument("columnar rows and multiplicities differ");
  }
  BAGC_RETURN_NOT_OK(ValidateColumnar(schema, columns.View(), mults.data()));
  auto rep = std::make_shared<Columnar>();
  rep->columns = std::move(columns);
  rep->mults = std::move(mults);
  Bag bag(std::move(schema));
  bag.AdoptColumnar(std::move(rep));
  return bag;
}

Result<Bag> Bag::BorrowColumnar(Schema schema, const ValueId* column_major,
                                const uint64_t* mults, size_t rows,
                                std::shared_ptr<const void> keep_alive) {
  ColumnStore store = ColumnStore::Borrow(column_major, rows, schema.arity());
  BAGC_RETURN_NOT_OK(ValidateColumnar(schema, store.View(), mults));
  auto rep = std::make_shared<Columnar>();
  rep->columns = std::move(store);
  rep->borrowed_mults = mults;
  rep->keep_alive = std::move(keep_alive);
  Bag bag(std::move(schema));
  bag.AdoptColumnar(std::move(rep));
  return bag;
}

Bag::Entries::iterator Bag::LowerBound(Entries& es, const Tuple& t) {
  return std::lower_bound(es.begin(), es.end(), t, EntryTupleLess);
}

Bag::Entries::const_iterator Bag::LowerBound(const Tuple& t) const {
  const Entries& es = entries();
  return std::lower_bound(es.begin(), es.end(), t, EntryTupleLess);
}

Status Bag::Set(const Tuple& t, uint64_t mult) {
  if (t.arity() != schema_.arity()) {
    return Status::InvalidArgument("tuple arity does not match bag schema");
  }
  if (mult == 0 && Multiplicity(t) == 0) return Status::OK();  // no-op erase
  Entries& es = MutableEntries();
  auto it = LowerBound(es, t);
  bool present = it != es.end() && it->first == t;
  if (mult == 0) {
    if (present) es.erase(it);
  } else if (present) {
    it->second = mult;
  } else {
    es.insert(it, Entry{t, mult});
  }
  return Status::OK();
}

Status Bag::Add(const Tuple& t, uint64_t mult) {
  if (t.arity() != schema_.arity()) {
    return Status::InvalidArgument("tuple arity does not match bag schema");
  }
  if (mult == 0) return Status::OK();
  Entries& es = MutableEntries();
  auto it = LowerBound(es, t);
  if (it != es.end() && it->first == t) {
    BAGC_ASSIGN_OR_RETURN(it->second, CheckedAdd(it->second, mult));
  } else {
    es.insert(it, Entry{t, mult});
  }
  return Status::OK();
}

uint64_t Bag::Multiplicity(const Tuple& t) const {
  if (columnar_ != nullptr) {
    if (t.arity() != schema_.arity()) return 0;  // never in the support
    const ColumnStore& cs = columnar_->columns;
    size_t arity = schema_.arity();
    // Binary search replicating Tuple::operator< exactly (including
    // value order for side-table ids) against the column layout.
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
    return columnar_->mult_data()[lo];
  }
  auto it = LowerBound(t);
  return (it != entries().end() && it->first == t) ? it->second : 0;
}

Result<size_t> Bag::ApplyRowDeltas(
    const std::vector<std::pair<Tuple, int64_t>>& deltas) {
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
  // Commit: Set with a validated arity and multiplicity cannot fail.
  for (const auto& [t, mult] : next) {
    Status set = Set(t, mult);
    if (!set.ok()) return set;
  }
  return next.size();
}

Result<Bag> Bag::Marginal(const Schema& z) const {
  // A columnar-sealed bag always groups columnar — the row path would
  // materialize every row first.
  if (columnar_ != nullptr || SupportSize() >= kColumnarMinRows) {
    return MarginalColumnar(z);
  }
  return MarginalRows(z);
}

Result<Bag> Bag::MarginalRows(const Schema& z) const {
  BAGC_ASSIGN_OR_RETURN(Projector proj, Projector::Make(schema_, z));
  BagBuilder builder(z);
  size_t n = SupportSize();
  builder.Reserve(n);
  if (columnar_ != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      BAGC_RETURN_NOT_OK(builder.Add(RowAt(i).Project(proj), MultiplicityAt(i)));
    }
  } else {
    for (const auto& [t, mult] : entries()) {
      BAGC_RETURN_NOT_OK(builder.Add(t.Project(proj), mult));
    }
  }
  return builder.Build();
}

Result<Bag> Bag::MarginalColumnar(const Schema& z,
                                  simd::SimdLevel level) const {
  BAGC_ASSIGN_OR_RETURN(Projector proj, Projector::Make(schema_, z));
  size_t n = SupportSize();
  if (columnar_ != nullptr) {
    // Zero-copy: select the Z columns straight out of the live store.
    ColumnView sel = columnar_->columns.View().Select(proj);
    return GroupColumns(z, sel, columnar_->mult_data(), n, level);
  }
  // Row form: gather only the Z columns — the projection happens during
  // the transpose, so the grouping below never touches a non-Z slot.
  ColumnStore cols = ColumnStore::FromEntries(entries(), proj);
  std::vector<uint64_t> mults(n);
  for (size_t i = 0; i < n; ++i) mults[i] = (*entries_)[i].second;
  return GroupColumns(z, cols.View(), mults.data(), n, level);
}

Result<Bag> Bag::GroupColumns(const Schema& z, const ColumnView& projected,
                              const uint64_t* mults, size_t n,
                              simd::SimdLevel level) {
  if (projected.arity() != z.arity() || projected.num_rows() != n) {
    return Status::InvalidArgument("projected columns do not match source rows");
  }
  level = simd::Resolve(level);
  if (n == 0) return Bag(z);
  size_t arity = z.arity();
  // Radix-style dense path for the common shared-attribute arities: pack
  // the (<= 2) key ids into one integer and count into a flat table. Only
  // when every id is direct-range (so ascending packed key == ascending
  // Tuple order) and the key space passed the density gate. kScalar
  // deliberately skips this — it is the hash path's differential twin.
  if (level != simd::SimdLevel::kScalar && arity >= 1 && arity <= 2) {
    uint32_t max_a = simd::MaxU32(projected.column(0), n, level);
    uint32_t max_b =
        arity == 2 ? simd::MaxU32(projected.column(1), n, level) : 0;
    if (max_a < kDirectValueLimit && max_b < kDirectValueLimit) {
      uint64_t stride = static_cast<uint64_t>(max_b) + 1;
      uint64_t table = (static_cast<uint64_t>(max_a) + 1) * stride;
      uint64_t cap = std::max<uint64_t>(4096, 4 * static_cast<uint64_t>(n));
      if (table <= cap) {
        return GroupDense(z, projected, mults, n, stride, table, level);
      }
    }
  }
  return GroupHashed(z, projected, mults, level);
}

Result<Bag> Bag::GroupDense(const Schema& z, const ColumnView& projected,
                            const uint64_t* mults, size_t n, uint64_t stride,
                            uint64_t table, simd::SimdLevel level) {
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
    std::vector<uint64_t> keys(n);
    simd::PackKeys2(projected.column(0), projected.column(1), stride, n,
                    keys.data(), level);
    for (size_t r = 0; r < n; ++r) {
      uint64_t& slot = acc[keys[r]];
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
  auto rep = std::make_shared<Columnar>();
  rep->columns = ColumnStore::FromColumnMajor(std::move(data), groups, arity);
  rep->mults = std::move(out_mults);
  Bag bag(z);
  bag.AdoptColumnar(std::move(rep));
  return bag;
}

Result<Bag> Bag::GroupHashed(const Schema& z, const ColumnView& projected,
                             const uint64_t* mults, simd::SimdLevel level) {
  ColumnIndex groups(projected, level);
  size_t ng = groups.NumGroups();
  std::vector<uint64_t> sums(ng);
  for (size_t g = 0; g < ng; ++g) {
    const std::vector<uint32_t>& rows = groups.GroupRows(g);
    uint64_t total = mults[rows[0]];
    for (size_t k = 1; k < rows.size(); ++k) {
      BAGC_ASSIGN_OR_RETURN(total, CheckedAdd(total, mults[rows[k]]));
    }
    sums[g] = total;
  }
  // Sort groups into Tuple order by their lead rows (ValueIdLess-aware),
  // then emit the sealed columnar layout directly — no per-group Tuple.
  std::vector<uint32_t> order(ng);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return projected.CompareRows(groups.LeadRow(x), projected,
                                 groups.LeadRow(y)) < 0;
  });
  size_t arity = projected.arity();
  std::vector<ValueId> data(arity * ng);
  std::vector<uint64_t> out_mults(ng);
  for (size_t g = 0; g < ng; ++g) {
    uint32_t lead = groups.LeadRow(order[g]);
    for (size_t c = 0; c < arity; ++c) {
      data[c * ng + g] = projected.at(lead, c);
    }
    out_mults[g] = sums[order[g]];
  }
  auto rep = std::make_shared<Columnar>();
  rep->columns = ColumnStore::FromColumnMajor(std::move(data), ng, arity);
  rep->mults = std::move(out_mults);
  Bag bag(z);
  bag.AdoptColumnar(std::move(rep));
  return bag;
}

ColumnStore Bag::ToColumns() const {
  if (columnar_ != nullptr) {
    const ColumnStore& cs = columnar_->columns;
    // Borrow the live store (the bag must outlive the result). The
    // column-major span is contiguous for owned and borrowed stores
    // alike, so column(0) is the base of the whole layout.
    return ColumnStore::Borrow(
        schema_.arity() == 0 ? nullptr : cs.column(0), cs.num_rows(),
        schema_.arity());
  }
  // The identity projection is always valid.
  Projector identity = Projector::Make(schema_, schema_).value();
  return ColumnStore::FromEntries(entries(), identity);
}

ColumnView Bag::ProjectedView(const Projector& proj,
                              ColumnStore* backing) const {
  if (columnar_ != nullptr) return columnar_->columns.View().Select(proj);
  *backing = ColumnStore::FromEntries(entries(), proj);
  return backing->View();
}

Result<Bag> Bag::Join(const Bag& r, const Bag& s) {
  BAGC_ASSIGN_OR_RETURN(TupleJoiner joiner, TupleJoiner::Make(r.schema(), s.schema()));
  // Hash-partition the right side on the shared attributes, columnar: the
  // matching phase projects just the shared columns of both sides —
  // zero-copy when a side is columnar-sealed — and resolves every probe
  // in one ProbeAll batch. Output tuples assemble via RowAt (the join
  // build is a sanctioned materialization point).
  BAGC_ASSIGN_OR_RETURN(Projector r_shared,
                        Projector::Make(r.schema(), joiner.shared_schema()));
  BAGC_ASSIGN_OR_RETURN(Projector s_shared,
                        Projector::Make(s.schema(), joiner.shared_schema()));
  ColumnStore r_backing;
  ColumnStore s_backing;
  ColumnView r_sh = r.ProjectedView(r_shared, &r_backing);
  ColumnView s_sh = s.ProjectedView(s_shared, &s_backing);
  ColumnJoinMatch match(r_sh, s_sh);
  BagBuilder builder(joiner.joined_schema());
  size_t rn = r.SupportSize();
  for (size_t i = 0; i < rn; ++i) {
    uint32_t group = match.MatchOf(i);
    if (group == ColumnJoinMatch::kNoMatch) continue;
    Tuple x = r.RowAt(i);
    uint64_t xm = r.MultiplicityAt(i);
    for (uint32_t j : match.RightRows(group)) {
      BAGC_ASSIGN_OR_RETURN(uint64_t mult, CheckedMul(xm, s.MultiplicityAt(j)));
      BAGC_RETURN_NOT_OK(builder.Add(joiner.Join(x, s.RowAt(j)), mult));
    }
  }
  return builder.Build();
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
  if (n == 0) return true;
  if (entries_ != nullptr && o.entries_ != nullptr) {
    return entries_ == o.entries_ || *entries_ == *o.entries_;
  }
  size_t arity = schema_.arity();
  if (columnar_ != nullptr && o.columnar_ != nullptr) {
    if (columnar_ == o.columnar_) return true;
    // Both columnar: the whole id layout is one contiguous span per side.
    const ColumnStore& a = columnar_->columns;
    const ColumnStore& b = o.columnar_->columns;
    if (arity != 0 &&
        std::memcmp(a.column(0), b.column(0), n * arity * sizeof(ValueId)) != 0) {
      return false;
    }
    return std::memcmp(columnar_->mult_data(), o.columnar_->mult_data(),
                       n * sizeof(uint64_t)) == 0;
  }
  // Mixed representations: compare row-wise without materializing.
  for (size_t i = 0; i < n; ++i) {
    if (MultiplicityAt(i) != o.MultiplicityAt(i)) return false;
    for (size_t c = 0; c < arity; ++c) {
      if (IdAt(i, c) != o.IdAt(i, c)) return false;
    }
  }
  return true;
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
  size_t n = SupportSize();
  size_t arity = schema_.arity();
  if (columnar_ != nullptr) {
    size_t bytes = sizeof(Columnar);
    if (!columnar_->columns.is_borrowed()) bytes += n * arity * sizeof(ValueId);
    if (columnar_->borrowed_mults == nullptr) bytes += n * sizeof(uint64_t);
    return bytes;
  }
  // Row form: one (Tuple, u64) pair per entry plus the Tuple's heap ids.
  return sizeof(Entries) + n * (sizeof(Entry) + arity * sizeof(ValueId));
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
  if (mult == 0) return Status::OK();
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

Result<Bag> BagBuilder::Build() {
  BAGC_RETURN_NOT_OK(internal::SealEntries(
      &pending_, [](uint64_t a, uint64_t b) { return CheckedAdd(a, b); },
      [](uint64_t m) { return m == 0; }));
  Bag bag(schema_);
  bag.AdoptEntries(std::move(pending_));
  pending_ = Bag::Entries();
  return bag;
}

Result<Bag> MakeBag(
    const Schema& schema,
    const std::vector<std::pair<std::vector<Value>, uint64_t>>& rows) {
  BagBuilder builder(schema);
  builder.Reserve(rows.size());
  // Tuples already carrying a nonzero multiplicity; a repeat is an error.
  TupleIndex seen(rows.size());
  for (const auto& [values, mult] : rows) {
    if (values.size() != schema.arity()) {
      return Status::InvalidArgument("row arity does not match schema");
    }
    Tuple t{values};
    if (seen.Find(t) != nullptr) {
      return Status::AlreadyExists("duplicate tuple in MakeBag rows: " + t.ToString());
    }
    if (mult != 0) {
      seen.Insert(t, 0);
      BAGC_RETURN_NOT_OK(builder.Add(std::move(t), mult));
    }
  }
  return builder.Build();
}

}  // namespace bagc
