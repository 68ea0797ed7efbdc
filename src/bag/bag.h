// Bag (multiset relation): a finite-support function Tup(X) -> Z_{>=0}
// (paper §2). Marginals implement Equation (2); the bag join implements
// ⋈_b. Support rows are kept sorted by tuple so iteration order — and
// hence all downstream algorithms and printouts — is deterministic.
//
// Storage has two representations, exactly one of which is live:
//
//  * Row (AoS): a flat vector of (Tuple, multiplicity) entries. The
//    construction/mutation form — builders, Set/Add, delta staging.
//  * Columnar (SoA): one ColumnStore holding the sorted rows column-major
//    plus a flat multiplicity array. The *serving* form: sealed bags hand
//    ownership of their rows to the ColumnStore and keep no per-row
//    Tuples alive at all (SealColumnar), which roughly halves resident
//    memory and is the layout every hot kernel (HashRows, ProbeAll,
//    GroupColumns) runs on. The BAGCSEG mmap segment format is the
//    on-disk twin: BorrowColumnar serves a mapped segment in place.
//
// "ColumnStore is the bag": on a columnar-sealed bag, per-row Tuples
// exist only on demand via RowAt, and only cold paths may ask — text
// write-out, delta staging (any mutator materializes the row form first
// via copy-on-write). Hot paths use IdAt/MultiplicityAt/
// Columns() and never allocate. entries() CHECK-fails on a columnar bag
// so a hot path regressing into row iteration aborts tests instead of
// silently re-materializing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tuple/attribute.h"
#include "tuple/column_store.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "util/checked_math.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/simd.h"

namespace bagc {

class BagBuilder;

/// \brief A finite bag over a schema X: tuples with positive multiplicity.
///
/// The multiplicity of any tuple not in the support is 0. All arithmetic on
/// multiplicities is overflow-checked; mutators return Status.
class Bag {
 public:
  using Entry = std::pair<Tuple, uint64_t>;
  /// Flat storage, sorted ascending by tuple; multiplicities positive.
  using Entries = std::vector<Entry>;

  Bag() = default;
  explicit Bag(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// Sets R(t) := mult (erasing the entry when mult == 0).
  Status Set(const Tuple& t, uint64_t mult);
  /// Adds mult to R(t), overflow-checked.
  Status Add(const Tuple& t, uint64_t mult);

  /// R(t); 0 when t not in the support. Columnar bags binary-search the
  /// column store (same Tuple::operator< order, no materialization).
  uint64_t Multiplicity(const Tuple& t) const;

  /// Applies signed row deltas in place: delta > 0 inserts (multiplicity
  /// bump, overflow-checked), delta < 0 deletes (a delete to zero removes
  /// the row from the support). Opposed deltas on the same tuple cancel
  /// before validation. All-or-nothing: arity mismatches
  /// (InvalidArgument), a delete below zero or a per-row net past int64
  /// (OutOfRange), or a multiplicity overflow leave the bag untouched.
  /// Copy-on-write as with every mutator — other bags sharing this
  /// storage keep the pre-delta rows. A columnar-sealed bag materializes
  /// its row form first (delta staging is a sanctioned cold path);
  /// re-seal with SealColumnar afterwards. Returns how many rows changed
  /// multiplicity (0 when the deltas net to nothing; the bag is then
  /// untouched).
  Result<size_t> ApplyRowDeltas(
      const std::vector<std::pair<Tuple, int64_t>>& deltas);

  /// |Supp(R)| — the support size ||R||_supp of §5.2.
  size_t SupportSize() const {
    return columnar_ ? columnar_->columns.num_rows()
                     : (entries_ ? entries_->size() : 0);
  }
  bool IsEmpty() const { return SupportSize() == 0; }

  // ---- Representation-agnostic row access ----

  /// Id of (sorted row i, schema slot c); never allocates.
  ValueId IdAt(size_t i, size_t c) const {
    return columnar_ ? columnar_->columns.column(c)[i]
                     : (*entries_)[i].first.id(c);
  }
  /// Multiplicity of the i-th smallest support tuple.
  uint64_t MultiplicityAt(size_t i) const {
    return columnar_ ? columnar_->mult_data()[i] : (*entries_)[i].second;
  }
  /// Materializes the i-th smallest support tuple. COLD PATHS ONLY
  /// (text write-out, delta staging): allocates a fresh
  /// Tuple per call on a columnar bag.
  Tuple RowAt(size_t i) const {
    return columnar_ ? columnar_->columns.RowAt(i) : (*entries_)[i].first;
  }

  // ---- Columnar (sealed) representation ----

  /// True when the bag's storage is the column store (no row vector).
  bool columnar_sealed() const { return columnar_ != nullptr; }

  /// Converts row storage into the columnar form, dropping the flat
  /// entry vector (other bags sharing it keep theirs). No-op when
  /// already columnar. Every later mutation materializes rows again
  /// via copy-on-write.
  void SealColumnar();

  /// View over the sorted rows (all schema slots). Columnar bags only.
  ColumnView Columns() const {
    BAGC_CHECK(columnar_ != nullptr && "Columns() requires a columnar-sealed bag");
    return columnar_->columns.View();
  }

  /// The multiplicity array, index-aligned with Columns(). Columnar only.
  const uint64_t* MultiplicityData() const {
    BAGC_CHECK(columnar_ != nullptr &&
               "MultiplicityData() requires a columnar-sealed bag");
    return columnar_->mult_data();
  }

  /// Shares the bag's own column store (aliased shared_ptr keeping the
  /// whole columnar rep alive); null for a row-form bag.
  std::shared_ptr<const ColumnStore> SharedColumns() const;

  /// Builds a columnar-sealed bag from an owned column store + aligned
  /// multiplicities. Validates the sealed-bag invariants — rows strictly
  /// ascending (Tuple order), multiplicities positive, sizes aligned.
  static Result<Bag> FromColumnar(Schema schema, ColumnStore columns,
                                  std::vector<uint64_t> mults);

  /// Zero-copy columnar bag over external memory (the BAGCSEG mmap path):
  /// `column_major` / `mults` must stay valid for the bag's lifetime,
  /// which `keep_alive` (e.g. a shared SegmentReader) guarantees.
  /// Validates the same invariants as FromColumnar.
  static Result<Bag> BorrowColumnar(Schema schema, const ValueId* column_major,
                                    const uint64_t* mults, size_t rows,
                                    std::shared_ptr<const void> keep_alive);

  /// Sorted (tuple, multiplicity) entries of a ROW-FORM bag. CHECK-fails
  /// on a columnar-sealed bag: migrate the caller to IdAt/MultiplicityAt/
  /// RowAt (hot) or Columns() (bulk) instead. The reference is
  /// invalidated by any later mutation of this bag (entries are
  /// copy-on-write; a mutation may swap the storage).
  const Entries& entries() const {
    BAGC_CHECK(columnar_ == nullptr &&
               "entries() on a columnar-sealed bag - use RowAt/IdAt/Columns");
    return entries_ ? *entries_ : NoEntries();
  }

  /// The i-th entry in sorted order; requires i < SupportSize().
  const Entry& entry(size_t i) const { return entries()[i]; }

  /// Marginal R[Z] per Equation (2); requires Z ⊆ X. The row/columnar
  /// dispatch every caller goes through: columnar-sealed bags always
  /// group columnar; row-form bags group columnar from kColumnarMinRows
  /// rows up and via the row path below it (identical output).
  Result<Bag> Marginal(const Schema& z) const;

  /// Marginal via the row path: per-row Tuple projection + sort/merge.
  /// The reference implementation the differential harness pins the
  /// columnar path against; also the small-bag fast path.
  Result<Bag> MarginalRows(const Schema& z) const;

  /// Marginal via the columnar path: project the Z columns (zero-copy on
  /// a columnar bag), group them with GroupColumns.
  Result<Bag> MarginalColumnar(const Schema& z,
                               simd::SimdLevel level = simd::SimdLevel::kAuto) const;

  /// Columnar grouping core: `projected` holds Z-layout columns whose row
  /// i carries multiplicity mults[i] (> 0); both have n rows. Sums
  /// multiplicities of equal rows (overflow-checked) and returns the
  /// sorted marginal over z, columnar-sealed. `level` picks the kernel:
  /// arity <= 2 key ranges that pass the density gate use the radix
  /// (dense-key) group-by with SIMD max/pack; everything else — and all
  /// of kScalar, the differential twin — hash-groups via ColumnIndex.
  /// All paths produce bit-identical bags.
  static Result<Bag> GroupColumns(const Schema& z, const ColumnView& projected,
                                  const uint64_t* mults, size_t n,
                                  simd::SimdLevel level = simd::SimdLevel::kAuto);

  /// Column-major copy of the sorted rows (one contiguous ValueId column
  /// per schema slot). On a columnar-sealed bag this borrows the live
  /// store (zero-copy; the bag must outlive the result); on a row-form
  /// bag it gathers. Multiplicities stay with the bag (MultiplicityAt).
  ColumnStore ToColumns() const;

  /// Projects onto proj's columns: zero-copy Select on a columnar bag,
  /// a gather into *backing otherwise. The view borrows from this bag
  /// (or from *backing), so both must outlive it.
  ColumnView ProjectedView(const Projector& proj, ColumnStore* backing) const;

  /// Bag join R ⋈_b S: support R' ⋈ S', multiplicity R(t[X]) * S(t[Y]).
  static Result<Bag> Join(const Bag& r, const Bag& s);

  /// Bag containment R ⊆_b S: R(t) <= S(t) for all t.
  static bool Contained(const Bag& r, const Bag& s);

  /// Equality as functions (schema and all multiplicities). Two columnar
  /// bags compare by flat memcmp of columns + multiplicities; mixed
  /// representations compare row-wise without materializing.
  bool operator==(const Bag& o) const;
  bool operator!=(const Bag& o) const { return !(*this == o); }

  // ---- Size measures of §5.2 ----

  /// ||R||_mu: the largest multiplicity (0 for the empty bag).
  uint64_t MultiplicityBound() const;
  /// ||R||_mb: max over support of ceil(log2(R(r) + 1)) bits.
  uint64_t MultiplicitySize() const;
  /// ||R||_u = Σ R(r): total multiset cardinality, overflow-checked.
  Result<uint64_t> UnarySize() const;
  /// ||R||_b = Σ ceil(log2(R(r) + 1)): binary representation size.
  uint64_t BinarySize() const;

  /// Approximate resident bytes of this bag's storage (the STATS
  /// `sealed_bytes` accounting): columnar = columns + mult array (0 for
  /// borrowed/mmap-backed spans), row form = per-entry Tuple vectors.
  size_t ApproxBytes() const;

  /// The support as a set-semantics Relation is provided by
  /// Relation::SupportOf (see relation.h) to keep layering acyclic.

  /// Tabular rendering ("a b : 3" rows) with attribute names.
  std::string ToString(const AttributeCatalog& catalog) const;
  std::string ToString() const;

 private:
  friend class BagBuilder;

  // Columnar (SoA) storage: sorted rows column-major plus an aligned
  // multiplicity array. Immutable once built; shared across Bag copies
  // (and aliased by SharedColumns), so a copy is a refcount bump exactly
  // like the row form. `keep_alive` pins external memory (an mmap'd
  // segment) behind a borrowed store/mult span.
  struct Columnar {
    ColumnStore columns;
    std::vector<uint64_t> mults;             // owned; empty when borrowed
    const uint64_t* borrowed_mults = nullptr;
    std::shared_ptr<const void> keep_alive;
    const uint64_t* mult_data() const {
      return borrowed_mults != nullptr ? borrowed_mults : mults.data();
    }
  };

  // Position of the first entry with tuple >= t (within `es`).
  static Entries::iterator LowerBound(Entries& es, const Tuple& t);
  Entries::const_iterator LowerBound(const Tuple& t) const;

  // The shared empty vector behind entries() of a bag with no storage.
  static const Entries& NoEntries();
  // Copy-on-write gate: returns uniquely-owned row storage, cloning the
  // shared vector — or materializing rows from the columnar form — first
  // if needed. Every mutator goes through here; const accessors never do.
  Entries& MutableEntries();
  // Adopts freshly built storage (bulk construction paths).
  void AdoptEntries(Entries entries) {
    entries_ = std::make_shared<Entries>(std::move(entries));
    columnar_.reset();
  }
  // Adopts a fully built columnar rep (GroupColumns, factories). The rep
  // must satisfy the sealed invariants; no validation here.
  void AdoptColumnar(std::shared_ptr<const Columnar> rep) {
    columnar_ = std::move(rep);
    entries_.reset();
  }
  // Shared invariant check behind FromColumnar/BorrowColumnar.
  static Status ValidateColumnar(const Schema& schema, const ColumnView& rows,
                                 const uint64_t* mults);

  // GroupColumns kernels. Dense: pack each row's (<= 2) key ids into one
  // integer and accumulate into a flat table scanned in key order —
  // valid only when all ids are direct-range (ascending id == Tuple
  // order) and the key range passed the density gate. Hashed: the
  // general path (ColumnIndex grouping + sort by lead row) and the
  // scalar differential twin.
  static Result<Bag> GroupDense(const Schema& z, const ColumnView& projected,
                                const uint64_t* mults, size_t n,
                                uint64_t stride, uint64_t table,
                                simd::SimdLevel level);
  static Result<Bag> GroupHashed(const Schema& z, const ColumnView& projected,
                                 const uint64_t* mults, simd::SimdLevel level);

  Schema schema_;
  // Row storage, shared across copies until one of them mutates. Copying
  // a Bag — collections handed to an engine, snapshot generations,
  // subcollections — is a refcount bump, which is what makes an
  // incremental re-seal's "reship every untouched bag" step O(m) pointer
  // copies instead of O(total rows). Null when empty or columnar-sealed.
  std::shared_ptr<Entries> entries_;
  // Columnar storage; null when the bag is in row form. At most one of
  // entries_/columnar_ is non-null.
  std::shared_ptr<const Columnar> columnar_;
};

/// \brief Accumulates (tuple, multiplicity) rows and seals them into a Bag
/// with one sort + merge, instead of a per-insert search.
///
/// Duplicate tuples merge by overflow-checked addition; zero-multiplicity
/// rows are dropped. This is the construction path for the row-form bulk
/// producers (marginals, joins, generators).
class BagBuilder {
 public:
  explicit BagBuilder(Schema schema) : schema_(std::move(schema)) {}

  void Reserve(size_t n) { pending_.reserve(n); }

  /// Appends a row; arity-checked, zero multiplicities ignored.
  Status Add(Tuple t, uint64_t mult);

  /// Appends a row of *external* values (tokens[i] is the value of
  /// schema.at(i)), interning each through `dicts` — the sealing path for
  /// string-valued data. Rows added this way are id-comparable with every
  /// other bag sealed through the same DictionarySet.
  Status AddExternal(const std::vector<std::string>& tokens, uint64_t mult,
                     DictionarySet* dicts);

  /// Sorts, merges duplicates (checked add), and moves the result out.
  /// The builder is empty afterwards — including on error (an overflow
  /// during the merge discards the pending rows) — and may be reused for
  /// the same schema.
  Result<Bag> Build();

 private:
  Schema schema_;
  Bag::Entries pending_;
};

/// Convenience builder: bag over `schema` from (values..., multiplicity)
/// rows. Fails on arity mismatch or duplicate tuples.
Result<Bag> MakeBag(const Schema& schema,
                    const std::vector<std::pair<std::vector<Value>, uint64_t>>& rows);

}  // namespace bagc
