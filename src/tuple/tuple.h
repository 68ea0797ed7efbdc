// Tuples over a schema (paper §2). A Tuple is a function from attributes to
// domain values, stored as a fixed-width interned row aligned with the
// canonical sorted layout of its schema: one ValueId (uint32) per slot.
// Equality/ordering/hashing act on the raw id row (memcmp-style word
// compares — never on external values), which is sound because the
// paper's algorithms only compare values for equality (renaming
// invariance). Tup(∅) is non-empty: it contains the empty tuple.
//
// External values enter a row two ways:
//   - the historical numeric API: Tuple({v...}) with int64 Values, which
//     encodes through the legacy codec (value_codec.h; id == value for
//     the common non-negative range), and
//   - per-attribute ValueDictionary interning (value_dictionary.h), used
//     by bag_io and BagBuilder::AddExternal for string-valued data.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tuple/schema.h"
#include "tuple/value_codec.h"
#include "tuple/value_dictionary.h"
#include "util/hash.h"
#include "util/result.h"

namespace bagc {

/// \brief Fixed-width interned row aligned with a Schema's sorted
/// attribute order.
///
/// Tuples do not carry their schema (bags store one schema for all their
/// tuples); operations that need the schema take it as a parameter.
class Tuple {
 public:
  Tuple() = default;
  /// Encodes external numeric values through the legacy codec (identity
  /// for [0, 2^31), side table otherwise — see value_codec.h).
  explicit Tuple(const std::vector<Value>& values) {
    ids_.reserve(values.size());
    for (Value v : values) ids_.push_back(EncodeValue(v));
  }

  /// Wraps an already-interned id row (dictionary or codec ids).
  static Tuple OfIds(std::vector<ValueId> ids) {
    Tuple t;
    t.ids_ = std::move(ids);
    return t;
  }

  size_t arity() const { return ids_.size(); }

  /// Raw interned id of slot i — the hot-path accessor.
  ValueId id(size_t i) const { return ids_[i]; }
  /// The raw id row.
  const std::vector<ValueId>& ids() const { return ids_; }
  /// Contiguous id storage (SoA/vectorized-probe substrate).
  const ValueId* data() const { return ids_.data(); }

  /// External numeric value of slot i via the legacy codec (compat /
  /// printing; not for hot paths).
  Value at(size_t i) const { return DecodeValue(ids_[i]); }
  /// Decoded copy of the whole row (compat; returns by value).
  std::vector<Value> values() const {
    std::vector<Value> out;
    out.reserve(ids_.size());
    for (ValueId id : ids_) out.push_back(DecodeValue(id));
    return out;
  }

  /// Projection t[Y] via a precomputed Projector.
  Tuple Project(const Projector& proj) const {
    std::vector<ValueId> out(proj.arity());
    for (size_t i = 0; i < proj.arity(); ++i) out[i] = ids_[proj.SourceIndex(i)];
    return OfIds(std::move(out));
  }

  /// Value of attribute `a` under schema `x`; errors if a ∉ X.
  Result<Value> ValueOf(const Schema& x, AttrId a) const {
    BAGC_ASSIGN_OR_RETURN(size_t idx, x.IndexOf(a));
    return at(idx);
  }

  /// Raw id of attribute `a` under schema `x`; errors if a ∉ X.
  Result<ValueId> IdOf(const Schema& x, AttrId a) const {
    BAGC_ASSIGN_OR_RETURN(size_t idx, x.IndexOf(a));
    return ids_[idx];
  }

  bool operator==(const Tuple& o) const {
    return ids_.size() == o.ids_.size() &&
           (ids_.empty() ||
            std::memcmp(ids_.data(), o.ids_.data(),
                        ids_.size() * sizeof(ValueId)) == 0);
  }
  bool operator!=(const Tuple& o) const { return !(*this == o); }
  /// Lexicographic on the id row under the codec order (value_codec.h
  /// ValueIdLess): a single integer compare per slot on the direct range
  /// — dictionary ids and in-range numerics, the only ids hot paths ever
  /// carry — and numeric value order (not first-encode order) for
  /// side-table slots, so ordered scans over out-of-range values agree
  /// with a value oracle and are process-independent.
  bool operator<(const Tuple& o) const {
    size_t n = ids_.size() < o.ids_.size() ? ids_.size() : o.ids_.size();
    for (size_t i = 0; i < n; ++i) {
      ValueId a = ids_[i], b = o.ids_[i];
      if (a == b) continue;
      if ((a | b) < kDirectValueLimit) return a < b;
      return ValueIdLess(a, b);
    }
    return ids_.size() < o.ids_.size();
  }

  uint64_t Hash() const { return HashRange(ids_); }

  /// "(v1, v2, ...)" with codec-decoded numeric values.
  std::string ToString() const;

 private:
  std::vector<ValueId> ids_;
};

/// \brief Joiner: combines an X-tuple and a Y-tuple agreeing on X ∩ Y into
/// an XY-tuple (the tuple `xy` of the paper).
///
/// Precomputes, for every slot of the XY layout, which operand and slot it
/// is read from, plus the shared slots that must agree for the join to be
/// defined. Agreement checks compare raw ids.
class TupleJoiner {
 public:
  static Result<TupleJoiner> Make(const Schema& x, const Schema& y);

  const Schema& joined_schema() const { return xy_; }
  const Schema& shared_schema() const { return shared_; }

  /// For each slot of the XY layout: (read from x, source slot index) —
  /// the gather plan a columnar join applies column by column.
  const std::vector<std::pair<bool, size_t>>& slot_sources() const {
    return sources_;
  }

  /// True iff x[X∩Y] == y[X∩Y], i.e. `x joins with y`.
  bool Joinable(const Tuple& x, const Tuple& y) const;

  /// The XY-tuple xy. Requires Joinable(x, y).
  Tuple Join(const Tuple& x, const Tuple& y) const;

 private:
  Schema xy_;
  Schema shared_;
  // For each slot of xy_: (from_left, source slot index).
  std::vector<std::pair<bool, size_t>> sources_;
  // Pairs of slots (left index, right index) that must agree.
  std::vector<std::pair<size_t, size_t>> shared_slots_;
};

}  // namespace bagc
