// Property tests for the interned-value layer: ValueDictionary (per
// attribute), DictionarySet (per collection), and the legacy numeric
// codec that keeps the historical int64 Value API bit-compatible with
// fixed-width uint32 rows.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tuple/tuple.h"
#include "tuple/value_codec.h"
#include "tuple/value_dictionary.h"
#include "util/random.h"

namespace bagc {
namespace {

TEST(ValueDictionaryTest, IdsAreDenseInFirstInternOrder) {
  ValueDictionary dict;
  std::vector<std::string> values = {"cherry", "apple", "banana", "durian"};
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(*dict.Intern(values[i]), static_cast<ValueId>(i));
  }
  EXPECT_EQ(dict.size(), values.size());
}

TEST(ValueDictionaryTest, ReInternIsIdempotent) {
  ValueDictionary dict;
  ValueId a = *dict.Intern("alpha");
  ValueId b = *dict.Intern("beta");
  EXPECT_EQ(*dict.Intern("alpha"), a);
  EXPECT_EQ(*dict.Intern("beta"), b);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.intern_calls(), 4u);  // calls counted, ids stable
}

TEST(ValueDictionaryTest, LookupIsInverseOfIntern) {
  ValueDictionary dict;
  Rng rng(11);
  std::vector<std::string> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back("v" + std::to_string(rng.Below(1000)) + "_x");
  }
  for (const std::string& v : values) {
    ValueId id = *dict.Intern(v);
    EXPECT_EQ(dict.ExternalOf(id), v);
    ASSERT_TRUE(dict.Find(v).has_value());
    EXPECT_EQ(*dict.Find(v), id);
  }
  EXPECT_FALSE(dict.Find("never-interned").has_value());
}

TEST(ValueDictionaryTest, CanonicalizeIsDeterministicUnderInsertionPermutations) {
  // The same value *set*, interned in 20 different orders, must
  // canonicalize to bit-identical dictionaries (same id for same value).
  std::vector<std::string> values;
  for (int i = 0; i < 50; ++i) values.push_back("tok_" + std::to_string(i * 7));
  ValueDictionary reference;
  for (const std::string& v : values) ASSERT_TRUE(reference.Intern(v).ok());
  reference.Canonicalize();

  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::string> permuted = values;
    rng.Shuffle(&permuted);
    ValueDictionary dict;
    for (const std::string& v : permuted) ASSERT_TRUE(dict.Intern(v).ok());
    dict.Canonicalize();
    ASSERT_EQ(dict.size(), reference.size());
    for (ValueId id = 0; id < dict.size(); ++id) {
      EXPECT_EQ(dict.ExternalOf(id), reference.ExternalOf(id));
    }
    for (const std::string& v : values) {
      EXPECT_EQ(*dict.Find(v), *reference.Find(v));
    }
  }
}

TEST(ValueDictionaryTest, CanonicalizeReturnsConsistentRemap) {
  ValueDictionary dict;
  std::vector<std::string> values = {"zeta", "alpha", "mu"};
  std::vector<ValueId> old_ids;
  for (const std::string& v : values) old_ids.push_back(*dict.Intern(v));
  std::vector<ValueId> remap = dict.Canonicalize();
  ASSERT_EQ(remap.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    // The remapped old id must point at the same external value.
    EXPECT_EQ(dict.ExternalOf(remap[old_ids[i]]), values[i]);
  }
  // Sorted order: alpha < mu < zeta.
  EXPECT_EQ(dict.ExternalOf(0), "alpha");
  EXPECT_EQ(dict.ExternalOf(1), "mu");
  EXPECT_EQ(dict.ExternalOf(2), "zeta");
}

TEST(ValueDictionaryTest, RejectsIdSpaceOverflow) {
  ValueDictionary dict;
  // Pretend all but one id below the reserved sentinel are taken.
  dict.set_id_base_for_test(static_cast<uint64_t>(kInvalidValueId) - 1);
  ASSERT_TRUE(dict.Intern("fits").ok());
  Result<ValueId> overflow = dict.Intern("does-not");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kArithmeticOverflow);
  // Idempotent re-intern of an existing value still succeeds at the brim.
  EXPECT_TRUE(dict.Intern("fits").ok());
}

// The index grows at load 1/2 from 16 slots: 8, 16, ... values fill a
// table exactly, and 9, 17, ... force a rehash on the last intern.
TEST(ValueDictionaryTest, InternAndFindAcrossTableGrowth) {
  for (size_t n : {1, 8, 9, 16, 17, 10000}) {
    ValueDictionary dict;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(*dict.Intern("v" + std::to_string(i)), static_cast<ValueId>(i));
    }
    ASSERT_EQ(dict.size(), n);
    for (size_t i = 0; i < n; ++i) {
      std::string v = "v" + std::to_string(i);
      ASSERT_EQ(dict.Find(v), std::optional<ValueId>(static_cast<ValueId>(i))) << v;
      ASSERT_EQ(*dict.Intern(v), static_cast<ValueId>(i));
      ASSERT_EQ(dict.ExternalOf(static_cast<ValueId>(i)), v);
    }
    EXPECT_EQ(dict.Find("v" + std::to_string(n)), std::nullopt);
    EXPECT_EQ(dict.Find(""), std::nullopt);
    EXPECT_EQ(dict.size(), n);
    EXPECT_EQ(dict.intern_calls(), 2 * n);
  }
}

TEST(ValueDictionaryTest, BulkLoadDuplicateLeavesDictionaryEmptyAndReusable) {
  ValueDictionary dict;
  Status dup = dict.BulkLoad({"a", "b", "c", "b"});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(dict.Find("a"), std::nullopt);
  // Still empty, so a later load defines the id space.
  std::vector<std::string> values;
  for (size_t i = 0; i < 100; ++i) values.push_back("w" + std::to_string(i));
  ASSERT_TRUE(dict.BulkLoad(values).ok());
  ASSERT_EQ(dict.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.ExternalOf(static_cast<ValueId>(i)), values[i]);
    EXPECT_EQ(dict.Find(values[i]), std::optional<ValueId>(static_cast<ValueId>(i)));
  }
  EXPECT_EQ(*dict.Intern("new"), 100u);
  EXPECT_EQ(dict.Find("a"), std::nullopt);
  // A loaded dictionary refuses a second load and stays as it was.
  EXPECT_EQ(dict.BulkLoad({"z"}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dict.size(), 101u);
}

TEST(ValueDictionaryTest, FindAfterCanonicalize) {
  ValueDictionary dict;
  Rng rng(5);
  std::vector<std::string> values;
  for (size_t i = 0; i < 40; ++i) values.push_back("k" + std::to_string(rng.Below(1000)));
  std::vector<std::optional<ValueId>> before;
  for (const std::string& v : values) before.push_back(*dict.Intern(v));
  std::vector<ValueId> remap = dict.Canonicalize();
  for (size_t i = 0; i < values.size(); ++i) {
    std::optional<ValueId> id = dict.Find(values[i]);
    ASSERT_TRUE(id.has_value()) << values[i];
    EXPECT_EQ(*id, remap[*before[i]]);
    EXPECT_EQ(dict.ExternalOf(*id), values[i]);
  }
  EXPECT_EQ(dict.Find("absent"), std::nullopt);
  const ValueId next = static_cast<ValueId>(dict.size());
  EXPECT_EQ(*dict.Intern("zzz"), next);
}

// A value table owned outside the dictionary, in the segment shape: the
// stand-in for a mapped BAGCSEG attribute block.
struct ExternalTable {
  std::vector<uint32_t> offsets{0};
  std::string blob;
};

std::shared_ptr<ExternalTable> MakeTable(const std::vector<std::string>& values) {
  auto table = std::make_shared<ExternalTable>();
  for (const std::string& v : values) {
    table->blob += v;
    table->offsets.push_back(static_cast<uint32_t>(table->blob.size()));
  }
  return table;
}

std::vector<std::string> TableValues(size_t n) {
  std::vector<std::string> values;
  for (size_t i = 0; i < n; ++i) values.push_back("val" + std::to_string(i * 13 % n));
  return values;
}

TEST(ValueDictionaryTest, BorrowServesTheTableInPlace) {
  const std::vector<std::string> values = TableValues(40);
  std::shared_ptr<ExternalTable> table = MakeTable(values);
  ValueDictionary dict;
  ASSERT_TRUE(dict.Borrow(table->offsets.data(), values.size(), table->blob, table).ok());
  EXPECT_TRUE(dict.borrowed());
  EXPECT_EQ(dict.offsets(), table->offsets.data());
  EXPECT_EQ(dict.blob().data(), table->blob.data());
  ASSERT_EQ(dict.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.ExternalOf(static_cast<ValueId>(i)), values[i]);
    EXPECT_EQ(dict.Find(values[i]), std::optional<ValueId>(static_cast<ValueId>(i)));
  }
  EXPECT_EQ(dict.Find("absent"), std::nullopt);
}

// Interning a new value into a borrowed dictionary copies the table
// first and releases the borrow; the values survive their source.
TEST(ValueDictionaryTest, InternIntoBorrowedCopiesTheTable) {
  const std::vector<std::string> values = TableValues(25);
  std::shared_ptr<ExternalTable> table = MakeTable(values);
  std::weak_ptr<ExternalTable> source = table;
  ValueDictionary dict;
  ASSERT_TRUE(dict.Borrow(table->offsets.data(), values.size(), table->blob, table).ok());
  table.reset();  // the dictionary alone pins the table now
  ASSERT_FALSE(source.expired());
  // Re-interning a known value reads in place and copies nothing.
  EXPECT_EQ(*dict.Intern(values[3]), 3u);
  EXPECT_TRUE(dict.borrowed());
  EXPECT_EQ(*dict.Intern("fresh"), 25u);
  EXPECT_FALSE(dict.borrowed());
  EXPECT_TRUE(source.expired()) << "the copy must drop the borrowed table";
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.ExternalOf(static_cast<ValueId>(i)), values[i]);
    EXPECT_EQ(dict.Find(values[i]), std::optional<ValueId>(static_cast<ValueId>(i)));
  }
  EXPECT_EQ(dict.ExternalOf(25), "fresh");
  EXPECT_EQ(dict.Find("fresh"), std::optional<ValueId>(25));
}

TEST(ValueDictionaryTest, CloneSharesABorrowedTableAndCanonicalizeOwnsIt) {
  const std::vector<std::string> values = TableValues(30);
  std::shared_ptr<ExternalTable> table = MakeTable(values);
  DictionarySet live;
  ASSERT_TRUE(live.dict(2).Borrow(table->offsets.data(), values.size(), table->blob, table).ok());
  DictionarySet copy = live.Clone();
  const ValueDictionary& shared = *copy.find_dict(2);
  EXPECT_TRUE(shared.borrowed());
  EXPECT_EQ(shared.offsets(), table->offsets.data()) << "Clone must share, not copy";
  // The live set grows; the clone keeps the borrowed table untouched.
  ASSERT_TRUE(live.Intern(2, "late").ok());
  EXPECT_EQ(shared.size(), values.size());
  EXPECT_EQ(shared.Find("late"), std::nullopt);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(shared.ExternalOf(static_cast<ValueId>(i)), values[i]);
  }

  std::vector<std::vector<ValueId>> remaps = copy.CanonicalizeAll();
  const ValueDictionary& canonical = *copy.find_dict(2);
  EXPECT_FALSE(canonical.borrowed());
  ASSERT_EQ(remaps[2].size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(canonical.ExternalOf(remaps[2][i]), values[i]);
  }
  for (size_t id = 1; id < canonical.size(); ++id) {
    EXPECT_LT(canonical.ExternalOf(static_cast<ValueId>(id - 1)),
              canonical.ExternalOf(static_cast<ValueId>(id)));
  }
  EXPECT_EQ(table->offsets[1], static_cast<uint32_t>(values[0].size()))
      << "canonicalizing must not write the borrowed table";
}

// Owned bytes charge the index always and the value table only when the
// dictionary owns it.
TEST(ValueDictionaryTest, OwnedBytesLeaveTheBorrowedTableUncharged) {
  const std::vector<std::string> values = TableValues(100);
  std::shared_ptr<ExternalTable> table = MakeTable(values);
  ValueDictionary borrowed;
  ASSERT_TRUE(borrowed.Borrow(table->offsets.data(), values.size(), table->blob, table).ok());
  ValueDictionary owned;
  ASSERT_TRUE(owned.BulkLoad(values).ok());
  EXPECT_GT(borrowed.OwnedBytes(), 0u);  // the index
  EXPECT_EQ(owned.OwnedBytes(), borrowed.OwnedBytes() +
                                    table->offsets.size() * sizeof(uint32_t) +
                                    table->blob.size());
  DictionarySet set;
  ASSERT_TRUE(set.dict(0).Borrow(table->offsets.data(), values.size(), table->blob, table).ok());
  ASSERT_TRUE(set.dict(1).BulkLoad(values).ok());
  EXPECT_EQ(set.OwnedBytes(), borrowed.OwnedBytes() + owned.OwnedBytes());
}

TEST(ValueDictionaryTest, BorrowRefusesMalformedTablesAndStaysEmpty) {
  std::shared_ptr<ExternalTable> table = MakeTable({"a", "bb", "ccc"});
  std::weak_ptr<ExternalTable> source = table;
  {
    ValueDictionary dict;  // no owner to pin the table
    EXPECT_EQ(dict.Borrow(table->offsets.data(), 3, table->blob, nullptr).code(),
              StatusCode::kInvalidArgument);
  }
  auto refused = [&](const ExternalTable& bad) {
    ValueDictionary dict;
    auto pinned = std::make_shared<ExternalTable>(bad);
    Status st = dict.Borrow(pinned->offsets.data(), pinned->offsets.size() - 1,
                            pinned->blob, pinned);
    EXPECT_EQ(dict.size(), 0u);
    EXPECT_FALSE(dict.borrowed());
    return st.code();
  };
  ExternalTable nonzero_start = *table;
  nonzero_start.offsets[0] = 1;
  EXPECT_EQ(refused(nonzero_start), StatusCode::kInvalidArgument);
  ExternalTable decreasing = *table;
  decreasing.offsets[1] = 4;  // 0, 4, 3, 6
  EXPECT_EQ(refused(decreasing), StatusCode::kInvalidArgument);
  ExternalTable short_blob = *table;
  short_blob.blob.pop_back();
  EXPECT_EQ(refused(short_blob), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused(*MakeTable({"x", "y", "x"})), StatusCode::kInvalidArgument);

  ValueDictionary loaded;
  ASSERT_TRUE(loaded.Intern("already").ok());
  EXPECT_EQ(loaded.Borrow(table->offsets.data(), 3, table->blob, table).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(loaded.size(), 1u);
  table.reset();
  EXPECT_TRUE(source.expired()) << "a refused borrow must not pin the table";
}

TEST(DictionarySetTest, CloneIsIndependent) {
  DictionarySet live;
  for (size_t i = 0; i < 20; ++i) ASSERT_TRUE(live.Intern(0, "a" + std::to_string(i)).ok());
  ASSERT_TRUE(live.Intern(3, "x").ok());
  DictionarySet copy = live.Clone();
  ASSERT_TRUE(live.Intern(0, "late").ok());
  ASSERT_TRUE(copy.Intern(3, "copy-only").ok());
  EXPECT_EQ(copy.find_dict(0)->size(), 20u);
  EXPECT_EQ(copy.find_dict(0)->Find("late"), std::nullopt);
  EXPECT_EQ(live.find_dict(0)->Find("late"), std::optional<ValueId>(20));
  EXPECT_EQ(live.find_dict(3)->Find("copy-only"), std::nullopt);
  EXPECT_EQ(copy.find_dict(3)->Find("copy-only"), std::optional<ValueId>(1));
  for (size_t i = 0; i < 20; ++i) {
    std::string v = "a" + std::to_string(i);
    EXPECT_EQ(copy.find_dict(0)->Find(v), live.find_dict(0)->Find(v));
  }
}

TEST(DictionarySetTest, AttributesInternIndependently) {
  DictionarySet dicts;
  ValueId a0 = *dicts.Intern(0, "shared-token");
  ValueId b0 = *dicts.Intern(7, "other");
  ValueId b1 = *dicts.Intern(7, "shared-token");
  EXPECT_EQ(a0, 0u);
  EXPECT_EQ(b0, 0u);  // separate dictionary, fresh id space
  EXPECT_EQ(b1, 1u);
  EXPECT_EQ(dicts.num_dicts(), 2u);
  EXPECT_EQ(dicts.total_size(), 3u);
}

TEST(DictionarySetTest, EncodeDecodeRowRoundTrip) {
  DictionarySet dicts;
  Schema schema{{2, 5}};
  std::vector<std::string> row = {"paris", "berlin"};
  Tuple t = *dicts.EncodeRow(schema, row);
  EXPECT_EQ(t.arity(), 2u);
  EXPECT_EQ(*dicts.DecodeRow(schema, t), row);
  // Same tokens re-encode to the identical fixed-width row.
  EXPECT_EQ(*dicts.EncodeRow(schema, row), t);
  // Arity mismatch and foreign ids are rejected.
  EXPECT_FALSE(dicts.EncodeRow(schema, {"one"}).ok());
  EXPECT_FALSE(dicts.DecodeRow(schema, Tuple::OfIds({99u, 99u})).ok());
}

TEST(ValueCodecTest, DirectRangeEncodesAsItself) {
  for (Value v : {Value{0}, Value{1}, Value{12345}, Value{0x7FFFFFFF}}) {
    EXPECT_TRUE(IsDirectValue(v));
    EXPECT_EQ(EncodeValue(v), static_cast<ValueId>(v));
    EXPECT_EQ(DecodeValue(static_cast<ValueId>(v)), v);
  }
}

TEST(ValueCodecTest, OutOfRangeValuesRoundTripThroughSideTable) {
  std::vector<Value> values = {-1, -4, std::numeric_limits<Value>::min(),
                               std::numeric_limits<Value>::max(), Value{1} << 40};
  for (Value v : values) {
    EXPECT_FALSE(IsDirectValue(v));
    ValueId id = EncodeValue(v);
    EXPECT_GE(id, kDirectValueLimit);
    EXPECT_EQ(DecodeValue(id), v);
    EXPECT_EQ(EncodeValue(v), id);  // stable on re-encode
  }
}

TEST(ValueCodecTest, TuplesBuiltFromValuesDecodeBack) {
  Tuple t{{-4, 5, Value{1} << 35}};
  EXPECT_EQ(t.at(0), -4);
  EXPECT_EQ(t.at(1), 5);
  EXPECT_EQ(t.at(2), Value{1} << 35);
  EXPECT_EQ(t.values(), (std::vector<Value>{-4, 5, Value{1} << 35}));
  // Equal external values => equal rows, hashes, and ordering keys.
  Tuple u{{-4, 5, Value{1} << 35}};
  EXPECT_EQ(t, u);
  EXPECT_EQ(t.Hash(), u.Hash());
  EXPECT_FALSE(t < u);
  EXPECT_FALSE(u < t);
}

// Regression for the side-table ordering caveat: side-table ids are
// issued in first-encode order, so encoding values in descending order
// makes raw-id order the exact REVERSE of value order. Raw-id compares
// on that range would order rows by encode history (and differently in
// every process); ValueIdLess and Tuple::operator< must order by the
// decoded value instead.
TEST(ValueCodecTest, SideTableIdsCompareInValueOrderNotEncodeOrder) {
  // Distinct from every value other codec tests intern: the process-wide
  // side table is shared across tests in this binary.
  const Value lo = -(Value{1} << 41) - 7;
  const Value mid = -(Value{1} << 40) - 7;
  const Value hi = (Value{1} << 41) + 7;
  // Adversarial encode order: descending value.
  ValueId id_hi = EncodeValue(hi);
  ValueId id_mid = EncodeValue(mid);
  ValueId id_lo = EncodeValue(lo);
  // The premise of the regression: raw ids really are value-reversed.
  ASSERT_GT(id_lo, id_mid);
  ASSERT_GT(id_mid, id_hi);

  // ValueIdLess follows the values, not the ids.
  EXPECT_TRUE(ValueIdLess(id_lo, id_mid));
  EXPECT_TRUE(ValueIdLess(id_mid, id_hi));
  EXPECT_TRUE(ValueIdLess(id_lo, id_hi));
  EXPECT_FALSE(ValueIdLess(id_hi, id_mid));
  EXPECT_FALSE(ValueIdLess(id_mid, id_lo));
  EXPECT_FALSE(ValueIdLess(id_lo, id_lo));

  // Mixed direct/side-table: every negative sorts below every direct id,
  // and the direct range keeps its single-compare fast path.
  EXPECT_TRUE(ValueIdLess(id_lo, 0u));
  EXPECT_TRUE(ValueIdLess(id_mid, 3u));
  EXPECT_FALSE(ValueIdLess(id_hi, 3u));  // 2^41+7 > 3
  EXPECT_TRUE(ValueIdLess(2u, 3u));

  // Tuple ordering routes side-table slots through the same comparator:
  // rows sort by external value even though their raw ids reverse it.
  Tuple a{{lo, Value{1}}};
  Tuple b{{mid, Value{1}}};
  Tuple c{{hi, Value{1}}};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(c < b);
  EXPECT_FALSE(b < a);
}

}  // namespace
}  // namespace bagc
