// Structure-of-arrays storage for sealed tuple rows. A ColumnStore holds
// one contiguous ValueId array per schema slot (column-major: column c is
// the c-th stretch of a single allocation), gathered once from a sealed
// flat entry vector; a ColumnView is a zero-copy selection of columns —
// projecting onto Z ⊆ X is a pointer shuffle, never a per-row Tuple.
//
// This is the substrate the vectorized probe path runs on: batch row
// hashing (HashRows) walks each column once with a branch-free inner loop
// over a contiguous u32 span, so marginal grouping and hash-join matching
// (ColumnIndex in column_index.h) touch memory column-at-a-time instead of
// chasing one heap-allocated id vector per row. Rows stay reachable via
// RowAt for cold paths (IO, reports).
//
// Hash compatibility: HashRows reproduces Tuple::Hash of the materialized
// row exactly (same seed and combine order as HashRange), so columnar and
// row-path indexes agree on every probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tuple/schema.h"
#include "tuple/tuple.h"

namespace bagc {

/// \brief Zero-copy view of selected columns: per-slot base pointers plus
/// a row count.
///
/// Ownership rules: a ColumnView never owns id storage — every column
/// pointer borrows from a ColumnStore (or other stable array), and the
/// owner must outlive every view derived from it, including views
/// produced by Select(). Views are cheap value types (a pointer vector);
/// copying one neither copies nor extends the lifetime of the ids.
/// Mutating or moving the owning store invalidates all of its views.
class ColumnView {
 public:
  ColumnView() = default;
  ColumnView(std::vector<const ValueId*> columns, size_t num_rows)
      : columns_(std::move(columns)), rows_(num_rows) {}

  size_t arity() const { return columns_.size(); }
  size_t num_rows() const { return rows_; }

  /// Base pointer of column c (contiguous, num_rows() entries).
  const ValueId* column(size_t c) const { return columns_[c]; }

  /// Id at (row r, column c).
  ValueId at(size_t r, size_t c) const { return columns_[c][r]; }

  /// Largest id in column c; 0 when the view has no rows.
  ValueId MaxId(size_t c) const;

  /// Selects the columns of `proj` (this view's layout must be
  /// proj.from()'s). Pure pointer shuffle — no row is touched.
  ColumnView Select(const Projector& proj) const;

  /// Materializes row r as a Tuple (cold paths only).
  Tuple RowAt(size_t r) const;

  /// Row a of this view == row b of `other` (same arity required).
  bool RowsEqual(size_t a, const ColumnView& other, size_t b) const;

  /// Three-way lexicographic compare of row a against row b of `other`
  /// (same arity required), replicating Tuple::operator< exactly —
  /// including value order (ValueIdLess) for side-table ids — so sorting
  /// or searching rows columnar agrees bit-for-bit with the row path.
  int CompareRows(size_t a, const ColumnView& other, size_t b) const;

  /// Hashes every row into out[r] == RowAt(r).Hash() (same seed/combine
  /// sequence as HashRange), one column at a time.
  void HashRows(std::vector<uint64_t>* out) const;

 private:
  std::vector<const ValueId*> columns_;
  size_t rows_ = 0;
};

/// \brief Column-major id storage gathered from sealed rows — owned by
/// default, or borrowing an external span (Borrow).
///
/// Ownership rules: the store owns one flat allocation holding every
/// column; it does NOT retain the entry vector it was gathered from
/// (ids are copied out), but grouping code conventionally indexes that
/// source vector by row number for multiplicities, so the two must stay
/// index-aligned. View()/column() pointers — and every ColumnView
/// derived from them — are invalidated by moving or destroying the
/// store. The store is immutable after construction; concurrent readers
/// need no synchronization.
///
/// A *borrowed* store (Borrow) holds no allocation at all: columns point
/// into caller-owned memory — an mmap'd segment file (tuple/segment.h)
/// is the motivating case — which must stay mapped and unchanged for the
/// store's (and every derived view's) lifetime. Moving a borrowed store
/// keeps its views valid, since they point at the external span.
class ColumnStore {
 public:
  ColumnStore() = default;

  /// Wraps an external column-major span (column c occupies
  /// [c*num_rows, (c+1)*num_rows)) without copying. `column_major` must
  /// be ValueId-aligned and outlive the store and all derived views.
  static ColumnStore Borrow(const ValueId* column_major, size_t num_rows,
                            size_t arity) {
    ColumnStore out;
    out.rows_ = num_rows;
    out.arity_ = arity;
    out.borrowed_ = column_major;
    return out;
  }

  /// Gathers the slots selected by `proj` from rows[i].first (a Tuple over
  /// proj.from()'s layout); annotations/multiplicities are not copied —
  /// grouping code reads them from the source vector by row index. Pass an
  /// identity projector (Projector::Make(x, x)) to transpose every column.
  template <typename Entry>
  static ColumnStore FromEntries(const std::vector<Entry>& rows,
                                 const Projector& proj) {
    return Gather(rows.size(), proj,
                  [&rows](size_t r) -> const Tuple& { return rows[r].first; });
  }

  /// As FromEntries, over a bare tuple vector (e.g. LP variables).
  static ColumnStore FromTuples(const std::vector<Tuple>& rows,
                                const Projector& proj) {
    return Gather(rows.size(), proj,
                  [&rows](size_t r) -> const Tuple& { return rows[r]; });
  }

  /// Adopts an already column-major owned vector (column c occupies
  /// [c*num_rows, (c+1)*num_rows)); data.size() must be arity*num_rows.
  /// The emit path of the columnar group-by builds results directly in
  /// this layout.
  static ColumnStore FromColumnMajor(std::vector<ValueId> data,
                                     size_t num_rows, size_t arity) {
    ColumnStore out;
    out.data_ = std::move(data);
    out.rows_ = num_rows;
    out.arity_ = arity;
    return out;
  }

  size_t arity() const { return arity_; }
  size_t num_rows() const { return rows_; }
  /// True when the ids live in external memory (Borrow) — i.e. this
  /// store contributes no resident bytes of its own.
  bool is_borrowed() const { return borrowed_ != nullptr; }

  /// Base pointer of column c.
  const ValueId* column(size_t c) const {
    return (borrowed_ != nullptr ? borrowed_ : data_.data()) + c * rows_;
  }

  /// View over all columns in store order.
  ColumnView View() const;

  /// Materializes row r as a Tuple (lazy accessor for cold paths).
  Tuple RowAt(size_t r) const;

 private:
  template <typename GetTuple>
  static ColumnStore Gather(size_t n, const Projector& proj, GetTuple&& tuple_of) {
    ColumnStore out;
    out.rows_ = n;
    out.arity_ = proj.arity();
    out.data_.resize(out.arity_ * n);
    ValueId* dst = out.data_.data();
    for (size_t c = 0; c < out.arity_; ++c, dst += n) {
      size_t src = proj.SourceIndex(c);
      for (size_t r = 0; r < n; ++r) dst[r] = tuple_of(r).id(src);
    }
    return out;
  }

  std::vector<ValueId> data_;  // column-major: column c at [c * rows_, (c+1) * rows_)
  const ValueId* borrowed_ = nullptr;  // non-null: columns live in external memory
  size_t rows_ = 0;
  size_t arity_ = 0;
};

}  // namespace bagc
