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
// function of the value *set* (independent of insertion order). The value
// -> id index is a flat open-addressing table of ids keyed through the
// externals table itself, so each value is stored once and interning or
// bulk-loading allocates no per-value node.
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
  /// value is idempotent. Fails with ArithmeticOverflow once the id space
  /// (UINT32_MAX values; kInvalidValueId is reserved) is exhausted.
  Result<ValueId> Intern(const std::string& external);

  /// Id of `external` if already interned.
  std::optional<ValueId> Find(const std::string& external) const;

  /// External value of an issued id; requires id < size().
  const std::string& ExternalOf(ValueId id) const { return externals_[id]; }

  /// The full external-value table in id order (externals()[i] is the
  /// value of id i). This is the dictionary's wire representation: a
  /// receiver that BulkLoad()s this exact sequence reconstructs an
  /// id-identical dictionary, so rows encoded by the sender decode
  /// unchanged on the receiver (the bagcd `DICT` block ships it verbatim).
  const std::vector<std::string>& externals() const { return externals_; }

  /// Wire decode: assigns ids 0..values.size()-1 to `values` in order,
  /// reconstructing the dictionary a sender serialized via externals().
  /// Fails with FailedPrecondition if this dictionary already issued any
  /// id (bulk loads define an id space; merging two is undetectable at
  /// the row level and therefore refused), and with InvalidArgument on a
  /// duplicate value. On failure the dictionary is left unchanged. The
  /// values are moved into the dictionary.
  Status BulkLoad(std::vector<std::string> values);

  /// Number of distinct interned values (== the next id to be issued).
  size_t size() const { return externals_.size(); }

  /// Total Intern() calls, including idempotent re-interns. Lets tests
  /// assert that a code path performed *no* interning work at all.
  uint64_t intern_calls() const { return intern_calls_; }

  /// Reassigns ids so that id order == sorted external order, making the
  /// assignment a deterministic function of the interned value set.
  /// Returns the remap: new_id = remap[old_id]. Rows encoded with the old
  /// ids must be rewritten through the remap.
  std::vector<ValueId> Canonicalize();

  /// Test hook: pretends `base` ids were already issued, so overflow
  /// rejection is testable without interning 2^32 values.
  void set_id_base_for_test(uint64_t base) { id_base_ = base; }

 private:
  // Slot of `external` in slots_: the slot holding its id, or the empty
  // slot where it would go. Requires a non-empty table.
  size_t Probe(std::string_view external) const;
  // Rebuilds slots_ at `num_slots` (a power of two) from externals_.
  void Rehash(size_t num_slots);

  std::vector<std::string> externals_;
  // Open addressing, linear probing: a power-of-two array of ids
  // (kInvalidValueId = empty), at most half full; a slot matches when
  // externals_[id] equals the probed value.
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
  Result<ValueId> Intern(AttrId a, const std::string& external);

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

  /// Deep copy of the whole set: same attributes, same ids, same
  /// externals. A sealed ConsistencyEngine that must stay immutable while
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
