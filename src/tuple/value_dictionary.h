// Interned value dictionaries. Atserias–Kolaitis consistency is invariant
// under renaming domain values (values are only ever compared for
// equality), so a bag collection can intern every external value into a
// dense uint32 id per attribute and run all downstream algorithms on
// fixed-width integer rows: tuples become vectors of ValueId, marginal
// grouping and ColumnIndex probes compare raw u32 rows (memcmp), and
// cross-bag joins on shared attributes are id-equal by construction
// whenever the bags were sealed through one shared DictionarySet.
//
// ValueDictionary is one attribute's dictionary: external string value ->
// dense id, ids 0..size()-1 in first-intern order. Canonicalize() reorders
// ids into sorted-external order, making the id assignment a deterministic
// function of the value *set* (independent of insertion order). The
// values live in one table shaped like a BAGCSEG attribute block
// (docs/SEGMENT.md): size()+1 u32 prefix offsets into a blob of the
// concatenated values. The value -> id index is a flat open-addressing
// table of ids keyed through that table, so each value is stored once and
// interning allocates no per-value node. A table is either owned or
// borrowed: Borrow() serves a mapped segment's offsets and blob in place
// (only the index is built), Clone() shares a borrowed table, and the
// first Intern() of a new value copies it (copy on write).
//
// DictionarySet owns one ValueDictionary per attribute id and is the unit
// shared across a collection (and by the ConsistencyEngine that seals it).
//
// PRECONDITION (uniform sealing): row ids are meaningful only relative to
// the encoder that issued them. Every bag that participates in one
// comparison/join/collection must be sealed the same way — all through
// one shared DictionarySet, or all through the legacy numeric codec
// (value_codec.h). Mixing the two id spaces (or two DictionarySets) is
// undetectable at the row level by design — interning is sound precisely
// because algorithms never look past id equality — and yields meaningless
// verdicts. bag_io and the generators maintain this invariant; callers
// sealing bags by hand must too.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tuple/attribute.h"
#include "tuple/schema.h"
#include "util/result.h"

namespace bagc {

class Tuple;

/// Dense interned row id. Rows are fixed-width vectors of these.
using ValueId = uint32_t;

/// Reserved sentinel; never issued by a dictionary.
inline constexpr ValueId kInvalidValueId = 0xFFFFFFFFu;

/// \brief One attribute's dictionary: external value <-> dense uint32 id.
class ValueDictionary {
 public:
  ValueDictionary() = default;

  /// Returns the id of `external`, interning it on first sight. Ids are
  /// dense (0..size()-1, in first-intern order); interning an existing
  /// value is idempotent. A new value copies a borrowed table first.
  /// Fails with ArithmeticOverflow once the id space (UINT32_MAX values;
  /// kInvalidValueId is reserved) or the u32-offset blob is exhausted.
  Result<ValueId> Intern(std::string_view external);

  /// Id of `external` if already interned.
  std::optional<ValueId> Find(std::string_view external) const;

  /// External value of an issued id; requires id < size(). The view
  /// lives as long as the table: until the next Intern() of a new value
  /// or Canonicalize() on this dictionary.
  std::string_view ExternalOf(ValueId id) const {
    // A non-empty table has its offsets; only offsets() needs the
    // empty-owned sentinel.
    const uint32_t* off = borrowed() ? borrowed_offsets_ : owned_offsets_.data();
    return std::string_view(blob_data() + off[id], off[id + 1] - off[id]);
  }

  /// The value table in id order, in its segment shape: size()+1
  /// non-decreasing u32 prefix offsets starting at 0, and the blob they
  /// index (value i is blob()[offsets()[i], offsets()[i+1])). A receiver
  /// that BulkLoad()s or Borrow()s this exact sequence reconstructs an
  /// id-identical dictionary, so rows encoded by the sender decode
  /// unchanged on the receiver (the bagcd `DICT` block and EncodeSegment
  /// ship it verbatim).
  const uint32_t* offsets() const {
    if (borrowed()) return borrowed_offsets_;
    return owned_offsets_.empty() ? &kNoOffsets : owned_offsets_.data();
  }
  std::string_view blob() const {
    return std::string_view(blob_data(), offsets()[size()]);
  }

  /// Wire decode: assigns ids 0..values.size()-1 to `values` in order,
  /// reconstructing the dictionary a sender serialized. Fails with
  /// FailedPrecondition if this dictionary already issued any id (bulk
  /// loads define an id space; merging two is undetectable at the row
  /// level and therefore refused), and with InvalidArgument on a
  /// duplicate value. On failure the dictionary is left unchanged.
  Status BulkLoad(const std::vector<std::string>& values);

  /// BulkLoad of a table owned elsewhere, served in place: `offsets`
  /// holds count+1 u32 prefix offsets into `blob`, both readable for as
  /// long as `keep_alive` (e.g. a shared SegmentReader) lives. Builds
  /// only the index. Same failure rules as BulkLoad, plus
  /// InvalidArgument when the offsets do not start at 0, decrease, or
  /// end anywhere but blob.size().
  Status Borrow(const uint32_t* offsets, size_t count, std::string_view blob,
                std::shared_ptr<const void> keep_alive);

  /// Whether the value table is borrowed (Borrow) rather than owned.
  bool borrowed() const { return keep_alive_ != nullptr; }

  /// Number of distinct interned values (== the next id to be issued).
  size_t size() const {
    if (borrowed()) return borrowed_size_;
    return owned_offsets_.empty() ? 0 : owned_offsets_.size() - 1;
  }

  /// Bytes this dictionary owns: its index, plus its value table unless
  /// the table is borrowed (the mapping is charged to nobody, as with
  /// borrowed bag columns).
  size_t OwnedBytes() const;

  /// Total Intern() calls, including idempotent re-interns. Lets tests
  /// assert that a code path performed *no* interning work at all.
  uint64_t intern_calls() const { return intern_calls_; }

  /// Reassigns ids so that id order == sorted external order, making the
  /// assignment a deterministic function of the interned value set.
  /// Returns the remap: new_id = remap[old_id]. Rows encoded with the old
  /// ids must be rewritten through the remap. The result is owned.
  std::vector<ValueId> Canonicalize();

  /// Test hook: pretends `base` ids were already issued, so overflow
  /// rejection is testable without interning 2^32 values.
  void set_id_base_for_test(uint64_t base) { id_base_ = base; }

 private:
  static constexpr uint32_t kNoOffsets = 0;

  const char* blob_data() const {
    return borrowed() ? borrowed_blob_ : owned_blob_.data();
  }
  // Slot of `external` in slots_: the slot holding its id, or the empty
  // slot where it would go. Requires a non-empty table.
  size_t Probe(std::string_view external) const;
  // Rebuilds slots_ at `num_slots` (a power of two) from the table.
  void Rehash(size_t num_slots);
  // Indexes a freshly loaded table (BulkLoad/Borrow); on a duplicate
  // value resets to the empty owned dictionary and fails.
  Status IndexLoadedTable();
  // Installs an owned table, dropping any borrow.
  void SetOwnedTable(std::vector<uint32_t> offsets, std::string blob);

  // The owned table: owned_offsets_ holds size()+1 entries (an empty
  // dictionary may hold none). Unused while borrowed.
  std::vector<uint32_t> owned_offsets_;
  std::string owned_blob_;
  // The borrowed table, valid while keep_alive_ (non-null iff borrowed)
  // lives. A copy shares it; a moved-from dictionary is empty and owned.
  const uint32_t* borrowed_offsets_ = nullptr;
  const char* borrowed_blob_ = nullptr;
  size_t borrowed_size_ = 0;
  std::shared_ptr<const void> keep_alive_;
  // Open addressing, linear probing: a power-of-two array of ids
  // (kInvalidValueId = empty), at most half full; a slot matches when
  // ExternalOf(id) equals the probed value.
  std::vector<ValueId> slots_;
  uint64_t id_base_ = 0;  // counted toward the id-space cap (test hook)
  uint64_t intern_calls_ = 0;
};

/// \brief Per-attribute dictionaries for one bag collection.
///
/// Dictionaries are created lazily per attribute id. One DictionarySet is
/// shared by every bag of a collection (bag_io threads it through
/// parsing, BagBuilder::AddExternal through sealing, ConsistencyEngine
/// across queries), which is what makes shared-attribute ids comparable
/// across bags without ever touching the external strings again.
class DictionarySet {
 public:
  DictionarySet() = default;

  /// The dictionary for attribute `a`, created on first use.
  ValueDictionary& dict(AttrId a);

  /// The dictionary for attribute `a`, or nullptr if none exists yet.
  const ValueDictionary* find_dict(AttrId a) const;

  /// Interns `external` into attribute `a`'s dictionary.
  Result<ValueId> Intern(AttrId a, std::string_view external);

  /// Encodes a schema-aligned row of external values (tokens[i] is the
  /// value of schema.at(i)) into a fixed-width interned row.
  Result<Tuple> EncodeRow(const Schema& schema,
                          const std::vector<std::string>& tokens);

  /// Decodes an interned row back to schema-aligned external values.
  /// Fails if a slot's id was not issued by this set's dictionaries.
  Result<std::vector<std::string>> DecodeRow(const Schema& schema,
                                             const Tuple& row) const;

  /// Number of attributes with a dictionary.
  size_t num_dicts() const;

  /// Sum of dictionary sizes (distinct interned values).
  size_t total_size() const;

  /// Sum of Intern() call counts across dictionaries.
  uint64_t total_intern_calls() const;

  /// Sum of ValueDictionary::OwnedBytes across dictionaries.
  size_t OwnedBytes() const;

  /// Copy of the whole set: same attributes, same ids, same externals.
  /// Owned tables are deep-copied; borrowed ones are shared (they are
  /// never written, and Intern copies before growing one). A sealed ConsistencyEngine that must stay immutable while
  /// its session keeps interning (the bagcd snapshot case) seals through
  /// a clone, so later Intern() calls on the live set can never race its
  /// readers — the id spaces coincide at the moment of cloning and only
  /// the live set grows afterwards.
  DictionarySet Clone() const;

  /// Canonicalizes every attribute dictionary (ValueDictionary::
  /// Canonicalize: id order == sorted external order). Returns the remaps
  /// indexed by AttrId — remaps[a][old_id] = new_id; attributes without a
  /// dictionary get an empty remap. Every row encoded through this set
  /// before the call must be rewritten through the remaps.
  std::vector<std::vector<ValueId>> CanonicalizeAll();

 private:
  // Indexed by AttrId; sparse attributes stay null.
  std::vector<std::unique_ptr<ValueDictionary>> dicts_;
};

}  // namespace bagc
