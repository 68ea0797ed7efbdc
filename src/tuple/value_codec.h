// Legacy numeric value codec: the bridge between the historical int64
// `Value` API and the fixed-width interned rows that tuples now carry
// (ValueId = uint32_t, see value_dictionary.h).
//
// The paper's algorithms only ever compare domain values for equality
// (renaming invariance, Lemma 1 / §2), so any injective encoding of the
// external domain into row ids is sound. The codec keeps the common case
// free: a non-negative value below 2^31 encodes as itself, so numerically
// built bags have id == value and every historical printout, sort order,
// and probe is unchanged. Values outside that range (negatives, huge
// ints) are interned into a process-global side table whose ids occupy
// the top half of the id space. Both directions are bijective for the
// lifetime of the process.
//
// The codec is for construction, printing, and I/O only — hot paths
// (joins, probes, marginal grouping) compare raw ids and never decode.
//
// Ordering: side-table ids are assigned in first-encode order, so the
// raw id order of out-of-range values depends on the encode sequence and
// can differ between processes. Row ordering therefore goes through
// ValueIdLess below, which compares by (decoded value, raw id): the
// direct range stays a single integer compare (id == value there), and
// side-table slots compare in numeric value order regardless of when
// they were first encoded — ordered scans agree with a value oracle and
// are process-independent. (The raw-id tie-break only separates distinct
// unissued ids that decode to themselves; ids issued by EncodeValue are
// bijective with their values.)
#pragma once

#include <cstdint>

#include "tuple/value_dictionary.h"

namespace bagc {

// The external numeric domain element `Value` (int64) comes from
// tuple/attribute.h via value_dictionary.h.

/// Ids below this bound encode the value itself; ids at or above it index
/// the side table of out-of-range values.
inline constexpr ValueId kDirectValueLimit = 0x80000000u;

/// True iff `v` encodes as itself (id == v).
inline bool IsDirectValue(Value v) {
  return v >= 0 && v < static_cast<Value>(kDirectValueLimit);
}

/// Encodes an external numeric value as a row id. Identity for
/// [0, 2^31); interns through the global side table otherwise. Aborts if
/// the side table ever exhausts its 2^31 ids (unreachable in practice).
ValueId EncodeValue(Value v);

/// Inverse of EncodeValue. Ids that were never issued by EncodeValue
/// (e.g. dictionary ids of a string-interned bag) decode as themselves —
/// the raw id widened to Value — which keeps printing total.
Value DecodeValue(ValueId id);

/// Strict total order on row ids by (DecodeValue(id), id) — numeric value
/// order, independent of side-table encode order. For the direct range
/// (dictionary ids and in-range numerics) this is the plain id compare,
/// and callers keep that as their fast path; only slots touching the
/// side-table half of the id space pay a decode.
inline bool ValueIdLess(ValueId a, ValueId b) {
  if ((a | b) < kDirectValueLimit) return a < b;
  Value va = DecodeValue(a);
  Value vb = DecodeValue(b);
  if (va != vb) return va < vb;
  return a < b;
}

}  // namespace bagc
