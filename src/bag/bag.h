// Bag (multiset relation): a finite-support function Tup(X) -> Z_{>=0}
// (paper §2). Marginals implement Equation (2); the bag join implements
// ⋈_b. Support rows are kept sorted by tuple so iteration order — and
// hence all downstream algorithms and printouts — is deterministic.
//
// Storage is one immutable columnar rep: a ColumnStore holding the sorted
// rows column-major plus an aligned multiplicity array. BagBuilder seals
// straight into it, and the BAGCSEG mmap segment format is its on-disk
// twin (BorrowColumnar serves a mapped segment in place). Copies share
// the rep. Every mutator (Set/Add/ApplyRowDeltas) is one merge pass over
// the old columns that produces a fresh rep, so bags still sharing the
// old one keep it.
//
// Per-row Tuples exist only on demand via RowAt, and only cold paths ask
// (text write-out, delta staging). Hot paths use IdAt/MultiplicityAt/
// Column() and never allocate.
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
#include "util/result.h"

namespace bagc {

class BagBuilder;

/// \brief A finite bag over a schema X: tuples with positive multiplicity.
///
/// The multiplicity of any tuple not in the support is 0. All arithmetic on
/// multiplicities is overflow-checked; mutators return Status.
class Bag {
 public:
  Bag() = default;
  explicit Bag(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// Sets R(t) := mult (erasing the row when mult == 0). One merge pass;
  /// bulk construction belongs in BagBuilder.
  Status Set(const Tuple& t, uint64_t mult);
  /// Adds mult to R(t), overflow-checked. One merge pass, as Set.
  Status Add(const Tuple& t, uint64_t mult);

  /// R(t); 0 when t not in the support. Binary-searches the columns
  /// (same Tuple::operator< order, no materialization).
  uint64_t Multiplicity(const Tuple& t) const;

  /// Applies signed row deltas: delta > 0 inserts (multiplicity bump,
  /// overflow-checked), delta < 0 deletes (a delete to zero removes the
  /// row from the support). Opposed deltas on the same tuple cancel
  /// before validation. All-or-nothing: arity mismatches
  /// (InvalidArgument), a delete below zero or a per-row net past int64
  /// (OutOfRange), or a multiplicity overflow leave the bag untouched.
  /// The validated rows merge into the columns in one pass; other bags
  /// sharing the old rep keep the pre-delta rows. Returns how many rows
  /// changed multiplicity (0 when the deltas net to nothing; the bag is
  /// then untouched).
  Result<size_t> ApplyRowDeltas(
      const std::vector<std::pair<Tuple, int64_t>>& deltas);

  /// |Supp(R)| — the support size ||R||_supp of §5.2.
  size_t SupportSize() const { return rep_ ? rep_->columns.num_rows() : 0; }
  bool IsEmpty() const { return SupportSize() == 0; }

  // ---- Row access (i < SupportSize()) ----

  /// Id of (sorted row i, schema slot c); never allocates.
  ValueId IdAt(size_t i, size_t c) const { return rep_->columns.column(c)[i]; }
  /// Multiplicity of the i-th smallest support tuple.
  uint64_t MultiplicityAt(size_t i) const { return rep_->mult_data()[i]; }
  /// Materializes the i-th smallest support tuple. COLD PATHS ONLY
  /// (text write-out, delta staging): allocates a fresh Tuple per call.
  Tuple RowAt(size_t i) const { return rep_->columns.RowAt(i); }

  // ---- Columnar access ----

  /// View over the sorted rows (all schema slots); borrows this bag's
  /// storage. An empty bag yields schema-arity null columns of 0 rows.
  ColumnView Columns() const;

  /// Base pointer of schema slot c's sorted column (null when the bag is
  /// empty); never allocates, unlike Columns().
  const ValueId* Column(size_t c) const {
    return rep_ ? rep_->columns.column(c) : nullptr;
  }

  /// The multiplicity array, index-aligned with Columns() (null when the
  /// bag is empty).
  const uint64_t* MultiplicityData() const {
    return rep_ ? rep_->mult_data() : nullptr;
  }

  /// Shares the bag's own column store (aliased shared_ptr keeping the
  /// whole rep alive); null for an empty bag.
  std::shared_ptr<const ColumnStore> SharedColumns() const;

  /// Builds a bag from an owned column store + aligned multiplicities.
  /// Validates the sealed-bag invariants — rows strictly ascending (Tuple
  /// order), multiplicities positive, sizes aligned.
  static Result<Bag> FromColumnar(Schema schema, ColumnStore columns,
                                  std::vector<uint64_t> mults);

  /// Zero-copy bag over external memory (the BAGCSEG mmap path):
  /// `column_major` / `mults` must stay valid for the bag's lifetime,
  /// which `keep_alive` (e.g. a shared SegmentReader) guarantees.
  /// Validates the same invariants as FromColumnar.
  static Result<Bag> BorrowColumnar(Schema schema, const ValueId* column_major,
                                    const uint64_t* mults, size_t rows,
                                    std::shared_ptr<const void> keep_alive);

  /// Marginal R[Z] per Equation (2); requires Z ⊆ X. Selects the Z
  /// columns (zero-copy) and groups them with GroupColumns.
  Result<Bag> Marginal(const Schema& z) const;

  /// Columnar grouping core: `projected` holds Z-layout columns whose row
  /// i carries multiplicity mults[i] (> 0); both have n rows. Sums
  /// multiplicities of equal rows (overflow-checked, in ascending row
  /// order) and returns the sorted marginal over z. The input alone picks
  /// the path: under 32 rows sort-merge their row indices; arity <= 2 keys
  /// whose ids are all direct-range and pass the density gate use the
  /// radix (dense-key) group-by; everything else hash-groups via
  /// ColumnIndex. All paths produce bit-identical bags.
  static Result<Bag> GroupColumns(const Schema& z, const ColumnView& projected,
                                  const uint64_t* mults, size_t n);

  /// Bag join R ⋈_b S: support R' ⋈ S', multiplicity R(t[X]) * S(t[Y]).
  /// Columnar: ColumnJoinMatch pairs the rows and FromJoinPairs seals
  /// them; no Tuple is built.
  static Result<Bag> Join(const Bag& r, const Bag& s);

  /// Which side a builder of R ⋈ S from matched row pairs (Join, the
  /// two-bag transportation witness) visits row by row: S when its
  /// attributes lead the joined schema and R's do not, else R.
  static bool JoinVisitsS(const Bag& r, const Bag& s, const TupleJoiner& joiner);

  /// R ⋈ S from matched row pairs: row k joins R's row r_rows[k] with S's
  /// row s_rows[k] at multiplicity mults[k] (> 0), and the pairs are
  /// distinct. Pairs that visit the JoinVisitsS side's rows in order, each
  /// one's partners ascending, are already Tuple order when that side's
  /// attributes lead the joined schema, and seal as they are; otherwise
  /// the gathered rows are sorted.
  static Result<Bag> FromJoinPairs(const TupleJoiner& joiner, const Bag& r,
                                   const Bag& s, const std::vector<uint32_t>& r_rows,
                                   const std::vector<uint32_t>& s_rows,
                                   std::vector<uint64_t> mults);

  /// Bag containment R ⊆_b S: R(t) <= S(t) for all t.
  static bool Contained(const Bag& r, const Bag& s);

  /// Equality as functions (schema and all multiplicities): a flat
  /// memcmp of columns + multiplicities.
  bool operator==(const Bag& o) const;
  bool operator!=(const Bag& o) const { return !(*this == o); }

  /// Row identity: the same schema and the same immutable row store (one
  /// bag is a copy of the other), or both empty. Implies *this == o in
  /// O(1); equal rows sealed into separate stores do not match. An
  /// incremental re-seal reuses sealed state for exactly these bags.
  bool SharesRowsWith(const Bag& o) const {
    return rep_ == o.rep_ && schema_ == o.schema_;
  }

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
  /// `sealed_bytes` accounting): the rep header plus owned columns and
  /// multiplicities (borrowed/mmap-backed spans count 0); 0 when empty.
  size_t ApproxBytes() const;

  /// Tabular rendering ("a b : 3" rows) with attribute names.
  std::string ToString(const AttributeCatalog& catalog) const;
  std::string ToString() const;

 private:
  friend class BagBuilder;

  // Sorted rows column-major plus an aligned multiplicity array.
  // Immutable once built; shared across Bag copies (and aliased by
  // SharedColumns), so a copy is a refcount bump. `keep_alive` pins
  // external memory (an mmap'd segment) behind a borrowed store/mult span.
  struct Columnar {
    ColumnStore columns;
    std::vector<uint64_t> mults;             // owned; empty when borrowed
    const uint64_t* borrowed_mults = nullptr;
    std::shared_ptr<const void> keep_alive;
    const uint64_t* mult_data() const {
      return borrowed_mults != nullptr ? borrowed_mults : mults.data();
    }
  };

  // A bag over `schema` adopting owned columns + aligned multiplicities
  // that already satisfy the sealed invariants (no validation here).
  static Bag Sealed(Schema schema, ColumnStore columns,
                    std::vector<uint64_t> mults);
  // Shared invariant check behind FromColumnar/BorrowColumnar.
  static Status ValidateColumnar(const Schema& schema, const ColumnView& rows,
                                 const uint64_t* mults);
  // The one mutation: `updates` are (tuple, new multiplicity) rows,
  // strictly ascending by tuple and arity-checked; multiplicity 0
  // erases. One pass over the old columns builds a fresh rep.
  void MergeRows(const std::vector<std::pair<Tuple, uint64_t>>& updates);

  // GroupColumns kernels. Sorted: stable-sort the row indices, merge
  // neighbours (inputs under 32 rows; no heap scratch). Dense: pack each row's (<= 2) key ids into
  // one integer and accumulate into a flat table scanned in key order —
  // valid only when all ids are direct-range (ascending id == Tuple
  // order) and the key range passed the density gate. Hashed: the
  // general path (ColumnIndex grouping + sort by lead row).
  static Result<Bag> GroupSorted(const Schema& z, const ColumnView& projected,
                                 const uint64_t* mults, size_t n);
  static Result<Bag> GroupDense(const Schema& z, const ColumnView& projected,
                                const uint64_t* mults, size_t n,
                                uint64_t stride, uint64_t table);
  static Result<Bag> GroupHashed(const Schema& z, const ColumnView& projected,
                                 const uint64_t* mults);
  // Emits one output row per group, in the given order: group g's key is
  // projected row leads[g], its multiplicity sums[g].
  static Bag EmitGroups(const Schema& z, const ColumnView& projected,
                        const uint32_t* leads, std::vector<uint64_t> sums);

  Schema schema_;
  // Null exactly when the bag is empty.
  std::shared_ptr<const Columnar> rep_;
};

/// \brief Accumulates (tuple, multiplicity) rows and seals them into a Bag
/// with one sort + merge, instead of a per-insert merge pass.
///
/// Duplicate tuples merge by overflow-checked addition (Build) or are
/// refused (BuildDistinct); zero-multiplicity rows drop at the seal. This
/// is the construction path for every bulk producer (marginals of row
/// streams, joins, generators, reductions) and every ingest that must
/// reject repeated rows (MakeBag, the text and u32 loaders).
class BagBuilder {
 public:
  explicit BagBuilder(Schema schema) : schema_(std::move(schema)) {}

  void Reserve(size_t n) { pending_.reserve(n); }

  /// Appends a row; arity-checked. A zero multiplicity stays pending until
  /// the seal drops it, so BuildDistinct still counts it as an occurrence.
  Status Add(Tuple t, uint64_t mult);

  /// Appends a row of *external* values (tokens[i] is the value of
  /// schema.at(i)), interning each through `dicts` — the sealing path for
  /// string-valued data. Rows added this way are id-comparable with every
  /// other bag sealed through the same DictionarySet.
  Status AddExternal(const std::vector<std::string>& tokens, uint64_t mult,
                     DictionarySet* dicts);

  /// Sorts, merges duplicates (checked add), and seals the result
  /// straight into columns. The builder is empty afterwards — including
  /// on error (an overflow during the merge discards the pending rows) —
  /// and may be reused for the same schema.
  Result<Bag> Build();

  /// As Build, but every tuple must have been added once: a repeat (a
  /// zero-multiplicity occurrence included) fails with InvalidArgument
  /// "duplicate tuple: <tuple>". The check is the seal's own sort.
  Result<Bag> BuildDistinct();

 private:
  // Build/BuildDistinct body: internal::SealEntries with `plus`, then the
  // columnar seal.
  template <typename Plus>
  Result<Bag> Seal(Plus&& plus);

  Schema schema_;
  std::vector<std::pair<Tuple, uint64_t>> pending_;
};

/// Convenience builder: bag over `schema` from (values..., multiplicity)
/// rows. Fails on arity mismatch or duplicate tuples (a zero-multiplicity
/// row still counts as an occurrence).
Result<Bag> MakeBag(const Schema& schema,
                    const std::vector<std::pair<std::vector<Value>, uint64_t>>& rows);

}  // namespace bagc
