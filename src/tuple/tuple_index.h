// TupleIndex: an open-addressing hash index from tuples to small integer
// ids, built once per operation. This is the shared substrate for the
// hash-join and grouping steps of the bag join, the N(R, S) middle-edge
// construction, and the P(R1..Rm) row builder — all of which previously
// rebuilt an ad-hoc std::map<Tuple, ...> per call.
//
// Equal keys group: Insert(k, id) appends id to k's posting list, and both
// posting lists and the group sequence preserve first-insertion order, so
// iteration is deterministic whenever the insertion sequence is (bag
// entries are sorted, so in practice group order is sorted too).
//
// ColumnIndex is the columnar (SoA) counterpart: it groups the rows of a
// borrowed ColumnView without materializing a single Tuple — build hashes
// every key row in one column-at-a-time batch, and ProbeAll answers a
// whole probe view the same way. Group numbering and per-group row order
// match what TupleIndex produces for the same row sequence, so the two
// paths are drop-in interchangeable for deterministic consumers.
#pragma once

#include <cstdint>
#include <vector>

#include "tuple/column_store.h"
#include "tuple/tuple.h"

namespace bagc {

/// \brief Hash index grouping equal tuples; values are caller ids
/// (typically indexes into a flat entry vector).
class TupleIndex {
 public:
  TupleIndex() = default;
  /// Pre-sizes the table for `expected_keys` insertions.
  explicit TupleIndex(size_t expected_keys) { Reserve(expected_keys); }

  void Reserve(size_t expected_keys);

  /// Appends `id` to the posting list of `key` (creating the group on
  /// first sight of the key).
  void Insert(Tuple key, uint32_t id);

  /// Posting list of `key` in insertion order; nullptr when absent.
  const std::vector<uint32_t>* Find(const Tuple& key) const;

  /// Groups in first-insertion order.
  size_t NumGroups() const { return groups_.size(); }
  const Tuple& GroupKey(size_t g) const { return groups_[g].key; }
  const std::vector<uint32_t>& GroupIds(size_t g) const { return groups_[g].ids; }

  /// Total number of inserted (key, id) pairs.
  size_t size() const { return size_; }

 private:
  struct Group {
    Tuple key;
    uint64_t hash;
    std::vector<uint32_t> ids;
  };

  // Returns the slot holding `key` or the empty slot where it belongs.
  size_t ProbeSlot(const Tuple& key, uint64_t hash) const;
  void Rehash(size_t new_capacity);

  std::vector<Group> groups_;
  // Open-addressing table of group index + 1; 0 marks an empty slot.
  // Capacity is always a power of two.
  std::vector<uint32_t> slots_;
  size_t size_ = 0;
};

/// \brief Hash grouping over the rows of a borrowed ColumnView, with a
/// vectorizable batch probe.
///
/// Construction groups every key row (equal rows share a group; groups and
/// their row lists are in first-appearance order, i.e. ascending row index
/// — identical to inserting rows 0..n-1 into a TupleIndex). No Tuple is
/// ever materialized: row hashes come from ColumnView::HashRows in one
/// column-wise batch, and equality compares id spans in place. The key
/// view's storage must outlive the index.
class ColumnIndex {
 public:
  /// No matching group (also the cap sentinel — row counts are < 2^32).
  static constexpr uint32_t kNoGroup = 0xFFFFFFFFu;

  ColumnIndex() = default;
  /// Builds the grouping over all rows of `keys`. `level` selects the
  /// SIMD variant of the batch hash and batch probe (kAuto = process
  /// default); every level produces identical groups and probe answers.
  explicit ColumnIndex(ColumnView keys,
                       simd::SimdLevel level = simd::SimdLevel::kAuto);

  size_t NumGroups() const { return groups_.size(); }
  /// Rows of group g, ascending (== posting list order of TupleIndex).
  const std::vector<uint32_t>& GroupRows(size_t g) const { return groups_[g].rows; }
  /// First (smallest) key row of group g — the group's representative.
  uint32_t LeadRow(size_t g) const { return groups_[g].lead; }
  /// The indexed key view.
  const ColumnView& keys() const { return keys_; }

  /// For every row of `probes` (same arity as the keys), the matching
  /// group id or kNoGroup. Hashes the whole probe view column-wise, then
  /// loads every probe's first slot in one batch (simd::GatherSlotTags —
  /// hardware gather on AVX2) so the common cases (empty slot, or a
  /// first-slot hit) never enter the scalar walk; only collisions do.
  /// Bit-identical to per-row Probe at every dispatch level.
  void ProbeAll(const ColumnView& probes, std::vector<uint32_t>* out) const;

  /// Single-row probe against an external view (same arity); kNoGroup
  /// when absent. `hash` must be the row's ColumnView/Tuple hash.
  uint32_t Probe(const ColumnView& probes, size_t row, uint64_t hash) const;

 private:
  struct ColumnGroup {
    uint32_t lead;
    uint64_t hash;
    std::vector<uint32_t> rows;
  };

  // Slot holding the group matching (view, row, hash), or the empty slot
  // where a new group belongs.
  size_t FindSlot(uint64_t hash, const ColumnView& view, size_t row) const;

  ColumnView keys_;
  std::vector<ColumnGroup> groups_;
  // Open-addressing table of group index + 1; 0 marks an empty slot.
  std::vector<uint32_t> slots_;
  // Resolved dispatch level for batch hashing/probing (never kAuto).
  simd::SimdLevel level_ = simd::SimdLevel::kScalar;
};

/// \brief Columnar hash-join matching phase, shared by the bag join and
/// the N(R, S) middle-edge construction: index the right side's
/// shared-attribute columns and resolve every left row in one ProbeAll
/// batch. Movable, not copyable.
class ColumnJoinMatch {
 public:
  static constexpr uint32_t kNoMatch = ColumnIndex::kNoGroup;

  /// `left`/`right` select both sides onto the same shared layout; the
  /// views borrow their owners' storage, which must outlive this match
  /// object.
  ColumnJoinMatch(ColumnView left, ColumnView right,
                  simd::SimdLevel level = simd::SimdLevel::kAuto)
      : index_(std::move(right), level) {
    index_.ProbeAll(left, &match_);
  }

  ColumnJoinMatch(ColumnJoinMatch&&) = default;
  ColumnJoinMatch& operator=(ColumnJoinMatch&&) = default;
  ColumnJoinMatch(const ColumnJoinMatch&) = delete;
  ColumnJoinMatch& operator=(const ColumnJoinMatch&) = delete;

  /// The group left row i matched, or kNoMatch.
  uint32_t MatchOf(size_t i) const { return match_[i]; }
  /// Right rows of a matched group, ascending (posting-list order).
  const std::vector<uint32_t>& RightRows(uint32_t group) const {
    return index_.GroupRows(group);
  }

 private:
  ColumnIndex index_;
  std::vector<uint32_t> match_;
};

}  // namespace bagc
