// K-relations over positive semirings — the §6 / [AK20] generalization the
// paper closes with. A K-relation assigns to every tuple an annotation
// from a semiring K; marginals sum annotations (Equation (2) with + of K),
// joins multiply them. Bags are the Z>=0 instance and relations the
// Boolean instance; this template makes that precise and lets the test
// suite check that the specialized Bag/Relation code paths agree with the
// generic semantics. The consistency theory for general K under the
// *strict* notion of this paper is open (paper §6) — the template is the
// substrate such an investigation needs.
//
// Entries mirror Bag's flat representation: a vector sorted by tuple,
// merged in bulk by the internal sealer rather than per-insert.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bag/entry_seal.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "util/checked_math.h"
#include "util/result.h"

namespace bagc {

// A positive semiring for KRelation must provide:
//   using Value;                        annotation type
//   static Value Zero();  static Value One();
//   static Result<Value> Plus(Value, Value);
//   static Result<Value> Times(Value, Value);
//   static bool IsZero(const Value&);
// Positivity (no zero divisors, a+b=0 => a=b=0) is what makes supports
// behave; the instances below all satisfy it.

/// The Boolean semiring B: K-relations over B are exactly relations.
struct BoolSemiring {
  using Value = bool;
  static Value Zero() { return false; }
  static Value One() { return true; }
  static Result<Value> Plus(Value a, Value b) { return a || b; }
  static Result<Value> Times(Value a, Value b) { return a && b; }
  static bool IsZero(const Value& v) { return !v; }
};

/// The bag semiring Z>=0: K-relations over it are exactly bags.
/// Arithmetic is overflow-checked like the Bag class.
struct CountingSemiring {
  using Value = uint64_t;
  static Value Zero() { return 0; }
  static Value One() { return 1; }
  static Result<Value> Plus(Value a, Value b) { return CheckedAdd(a, b); }
  static Result<Value> Times(Value a, Value b) { return CheckedMul(a, b); }
  static bool IsZero(const Value& v) { return v == 0; }
};

/// The tropical (min, +) semiring over costs with +inf as zero. Positive;
/// annotates tuples with best-derivation costs.
struct TropicalSemiring {
  using Value = uint64_t;
  static constexpr Value kInfinity = ~uint64_t{0};
  static Value Zero() { return kInfinity; }
  static Value One() { return 0; }
  static Result<Value> Plus(Value a, Value b) { return a < b ? a : b; }
  static Result<Value> Times(Value a, Value b) {
    if (a == kInfinity || b == kInfinity) return kInfinity;
    return CheckedAdd(a, b);
  }
  static bool IsZero(const Value& v) { return v == kInfinity; }
};

/// \brief A finite-support K-relation over schema X.
template <typename K>
class KRelation {
 public:
  using Annotation = typename K::Value;
  using Entry = std::pair<Tuple, Annotation>;
  /// Flat storage, sorted ascending by tuple; no zero annotations.
  using Entries = std::vector<Entry>;

  KRelation() = default;
  explicit KRelation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  const Entries& entries() const { return entries_; }
  size_t SupportSize() const { return entries_.size(); }

  /// Sets R(t) := a (erasing when a is the semiring zero).
  Status Set(const Tuple& t, Annotation a) {
    if (t.arity() != schema_.arity()) {
      return Status::InvalidArgument("tuple arity does not match schema");
    }
    auto it = LowerBound(t);
    bool present = it != entries_.end() && it->first == t;
    if (K::IsZero(a)) {
      if (present) entries_.erase(it);
    } else if (present) {
      it->second = std::move(a);
    } else {
      entries_.insert(it, Entry{t, std::move(a)});
    }
    return Status::OK();
  }

  /// R(t); the semiring zero off the support.
  Annotation At(const Tuple& t) const {
    auto it = LowerBound(t);
    return (it != entries_.end() && it->first == t) ? it->second : K::Zero();
  }

  /// Combines a into R(t) with the semiring +.
  Status Accumulate(const Tuple& t, const Annotation& a) {
    BAGC_ASSIGN_OR_RETURN(Annotation sum, K::Plus(At(t), a));
    return Set(t, std::move(sum));
  }

  /// Marginal R[Z]: Equation (2) with the semiring +; requires Z ⊆ X.
  Result<KRelation> Marginal(const Schema& z) const {
    BAGC_ASSIGN_OR_RETURN(Projector proj, Projector::Make(schema_, z));
    Entries rows;
    rows.reserve(entries_.size());
    for (const auto& [t, a] : entries_) {
      rows.emplace_back(t.Project(proj), a);
    }
    return Seal(z, std::move(rows));
  }

  /// K-join: support = join of supports, annotation = product.
  static Result<KRelation> Join(const KRelation& r, const KRelation& s) {
    BAGC_ASSIGN_OR_RETURN(TupleJoiner joiner,
                          TupleJoiner::Make(r.schema(), s.schema()));
    Entries rows;
    for (const auto& [x, xa] : r.entries_) {
      for (const auto& [y, ya] : s.entries_) {
        if (!joiner.Joinable(x, y)) continue;
        BAGC_ASSIGN_OR_RETURN(Annotation prod, K::Times(xa, ya));
        rows.emplace_back(joiner.Join(x, y), std::move(prod));
      }
    }
    return Seal(joiner.joined_schema(), std::move(rows));
  }

  bool operator==(const KRelation& o) const {
    return schema_ == o.schema_ && entries_ == o.entries_;
  }
  bool operator!=(const KRelation& o) const { return !(*this == o); }

 private:
  typename Entries::iterator LowerBound(const Tuple& t) {
    return std::lower_bound(entries_.begin(), entries_.end(), t,
                            [](const Entry& e, const Tuple& u) { return e.first < u; });
  }
  typename Entries::const_iterator LowerBound(const Tuple& t) const {
    return std::lower_bound(entries_.begin(), entries_.end(), t,
                            [](const Entry& e, const Tuple& u) { return e.first < u; });
  }

  /// Sorts rows, merges equal tuples with the semiring +, drops zeros.
  static Result<KRelation> Seal(Schema schema, Entries rows) {
    BAGC_RETURN_NOT_OK(internal::SealEntries(
        &rows,
        [](const Tuple&, Annotation a, const Annotation& b) {
          return K::Plus(std::move(a), b);
        },
        [](const Annotation& a) { return K::IsZero(a); }));
    KRelation out(std::move(schema));
    out.entries_ = std::move(rows);
    return out;
  }

  Schema schema_;
  Entries entries_;
};

/// Two K-relations are consistent (strict notion, paper §3 generalized)
/// when some K-relation over X ∪ Y marginalizes onto both. As in the bag
/// case, equality of shared marginals is *necessary*; whether it is
/// sufficient for every positive semiring is the paper's closing open
/// problem. This helper computes the necessary test.
template <typename K>
Result<bool> SharedMarginalsAgree(const KRelation<K>& r, const KRelation<K>& s) {
  Schema z = Schema::Intersect(r.schema(), s.schema());
  BAGC_ASSIGN_OR_RETURN(KRelation<K> rz, r.Marginal(z));
  BAGC_ASSIGN_OR_RETURN(KRelation<K> sz, s.Marginal(z));
  return rz == sz;
}

}  // namespace bagc
