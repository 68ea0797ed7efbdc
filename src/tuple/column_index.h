// ColumnIndex: the one hash index, an open-addressing grouping over the
// rows of a borrowed ColumnView, built once per operation. The bag join,
// the two-bag transportation witness and the N(R, S) middle-edge
// construction and every step of the P(R1..Rm) join match through
// ColumnJoinMatch, and GroupColumns hash-groups marginals with it.
// Bulk construction and duplicate-row checks sort-merge in BagBuilder
// (internal::SealEntries) instead.
#pragma once

#include <cstdint>
#include <vector>

#include "tuple/column_store.h"

namespace bagc {

/// \brief Hash grouping over the rows of a borrowed ColumnView, with a
/// batch probe.
///
/// Construction groups every key row (equal rows share a group; groups and
/// their row lists are in first-appearance order, i.e. ascending row
/// index, so iteration is deterministic). The row lists live in one flat
/// array (CSR: one offset per group), so building the index allocates a
/// fixed handful of arrays however many groups there are. No Tuple is
/// ever materialized: row hashes come from ColumnView::HashRows in one
/// column-wise batch, and equality compares id spans in place. The key
/// view's storage must outlive the index.
class ColumnIndex {
 public:
  /// No matching group (also the cap sentinel — row counts are < 2^32).
  static constexpr uint32_t kNoGroup = 0xFFFFFFFFu;

  /// One group's rows, ascending: a view into the index's row array.
  struct Rows {
    const uint32_t* first = nullptr;
    size_t count = 0;
    const uint32_t* begin() const { return first; }
    const uint32_t* end() const { return first + count; }
    size_t size() const { return count; }
    uint32_t operator[](size_t k) const { return first[k]; }
  };

  ColumnIndex() = default;
  /// Builds the grouping over all rows of `keys`.
  explicit ColumnIndex(ColumnView keys);

  size_t NumGroups() const { return groups_.size(); }
  /// Rows of group g, ascending.
  Rows GroupRows(size_t g) const {
    return {rows_.data() + offsets_[g], offsets_[g + 1] - offsets_[g]};
  }
  /// First (smallest) key row of group g — the group's representative.
  uint32_t LeadRow(size_t g) const { return groups_[g].lead; }
  /// The indexed key view.
  const ColumnView& keys() const { return keys_; }

  /// For every row of `probes` (same arity as the keys), the matching
  /// group id or kNoGroup. Hashes the whole probe view column-wise, then
  /// loads every probe's first slot in one pass so the common cases
  /// (empty slot, or a first-slot hit) never enter the slot walk; only
  /// collisions do. Answers exactly as per-row Probe.
  void ProbeAll(const ColumnView& probes, std::vector<uint32_t>* out) const;

  /// Single-row probe against an external view (same arity); kNoGroup
  /// when absent. `hash` must be the row's ColumnView/Tuple hash.
  uint32_t Probe(const ColumnView& probes, size_t row, uint64_t hash) const;

 private:
  struct ColumnGroup {
    uint32_t lead;
    uint64_t hash;
  };

  // Slot holding the group matching (view, row, hash), or the empty slot
  // where a new group belongs.
  size_t FindSlot(uint64_t hash, const ColumnView& view, size_t row) const;

  ColumnView keys_;
  std::vector<ColumnGroup> groups_;
  // CSR row lists: group g's rows are rows_[offsets_[g] .. offsets_[g+1]).
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> rows_;
  // Open-addressing table of group index + 1; 0 marks an empty slot.
  std::vector<uint32_t> slots_;
};

/// \brief Columnar hash-join matching phase, shared by the bag join, the
/// transportation witness and the N(R, S) middle-edge construction:
/// index the right side's shared-attribute columns and resolve every left
/// row in one ProbeAll batch. Movable, not copyable.
class ColumnJoinMatch {
 public:
  static constexpr uint32_t kNoMatch = ColumnIndex::kNoGroup;

  /// `left`/`right` select both sides onto the same shared layout; the
  /// views borrow their owners' storage, which must outlive this match
  /// object.
  ColumnJoinMatch(ColumnView left, ColumnView right)
      : index_(std::move(right)) {
    index_.ProbeAll(left, &match_);
  }

  ColumnJoinMatch(ColumnJoinMatch&&) = default;
  ColumnJoinMatch& operator=(ColumnJoinMatch&&) = default;
  ColumnJoinMatch(const ColumnJoinMatch&) = delete;
  ColumnJoinMatch& operator=(const ColumnJoinMatch&) = delete;

  /// The group left row i matched, or kNoMatch.
  uint32_t MatchOf(size_t i) const { return match_[i]; }
  /// Number of distinct right-side keys (groups), matched or not.
  size_t NumGroups() const { return index_.NumGroups(); }
  /// Right rows of a matched group, ascending (posting-list order).
  ColumnIndex::Rows RightRows(uint32_t group) const {
    return index_.GroupRows(group);
  }

  /// Number of (left row, right row) pairs that match: the size of the
  /// join, summed from the group sizes without visiting a pair.
  size_t CountPairs() const {
    size_t pairs = 0;
    for (uint32_t g : match_) {
      if (g != kNoMatch) pairs += index_.GroupRows(g).size();
    }
    return pairs;
  }

  /// Calls fn(left row, right row) for every matching pair: left rows
  /// ascending, and each left row's right rows ascending.
  template <typename Fn>
  void ForEachPair(Fn&& fn) const {
    for (size_t i = 0; i < match_.size(); ++i) {
      if (match_[i] == kNoMatch) continue;
      for (uint32_t j : index_.GroupRows(match_[i])) fn(static_cast<uint32_t>(i), j);
    }
  }

 private:
  ColumnIndex index_;
  std::vector<uint32_t> match_;
};

}  // namespace bagc
