// Unit tests for bags (marginals, bag join, containment, size measures)
// and relations (projection, join, semijoin). Includes the paper's §2
// running example and the marginal coherence laws R'[Z] = R[Z]' and
// R[Z][W] = R[W].
#include <gtest/gtest.h>

#include <limits>

#include "bag/bag.h"
#include "bag/relation.h"
#include "generators/workloads.h"
#include "tuple/value_codec.h"
#include "util/random.h"

namespace bagc {
namespace {

Bag PaperSectionTwoBag() {
  // R(A, B) = {(a1,b1):2, (a2,b2):1, (a3,b3):5} with a_i = i, b_i = 10+i.
  return *MakeBag(Schema{{0, 1}},
                  {{{1, 11}, 2}, {{2, 12}, 1}, {{3, 13}, 5}});
}

TEST(BagTest, SetAddMultiplicity) {
  Bag bag(Schema{{0, 1}});
  Tuple t{{1, 2}};
  EXPECT_EQ(bag.Multiplicity(t), 0u);
  ASSERT_TRUE(bag.Set(t, 3).ok());
  EXPECT_EQ(bag.Multiplicity(t), 3u);
  ASSERT_TRUE(bag.Add(t, 4).ok());
  EXPECT_EQ(bag.Multiplicity(t), 7u);
  ASSERT_TRUE(bag.Set(t, 0).ok());
  EXPECT_EQ(bag.SupportSize(), 0u);
  EXPECT_TRUE(bag.IsEmpty());
}

TEST(BagTest, ArityMismatchRejected) {
  Bag bag(Schema{{0, 1}});
  EXPECT_FALSE(bag.Set(Tuple{{1}}, 1).ok());
  EXPECT_FALSE(bag.Add(Tuple{{1, 2, 3}}, 1).ok());
}

TEST(BagTest, AddOverflowDetected) {
  Bag bag(Schema{{0}});
  Tuple t{{1}};
  ASSERT_TRUE(bag.Set(t, std::numeric_limits<uint64_t>::max()).ok());
  EXPECT_FALSE(bag.Add(t, 1).ok());
}

TEST(BagTest, MarginalMatchesEquationTwo) {
  Bag bag = PaperSectionTwoBag();
  Bag a = *bag.Marginal(Schema{{0}});
  EXPECT_EQ(a.Multiplicity(Tuple{{1}}), 2u);
  EXPECT_EQ(a.Multiplicity(Tuple{{2}}), 1u);
  EXPECT_EQ(a.Multiplicity(Tuple{{3}}), 5u);
}

TEST(BagTest, MarginalOntoEmptySchemaIsCardinality) {
  Bag bag = PaperSectionTwoBag();
  Bag empty = *bag.Marginal(Schema{});
  EXPECT_EQ(empty.SupportSize(), 1u);
  EXPECT_EQ(empty.Multiplicity(Tuple{}), 8u);  // 2+1+5
}

TEST(BagTest, MarginalComposition) {
  // R[Z][W] == R[W] for W ⊆ Z ⊆ X (paper §2 fact).
  Rng rng(42);
  BagGenOptions options;
  options.support_size = 40;
  options.domain_size = 3;
  Bag bag = *MakeRandomBag(Schema{{0, 1, 2, 3}}, options, &rng);
  Schema z{{0, 1, 2}};
  Schema w{{0, 2}};
  EXPECT_EQ(*bag.Marginal(z)->Marginal(w), *bag.Marginal(w));
}

TEST(BagTest, SupportCommutesWithMarginal) {
  // R'[Z] == R[Z]' (paper §2 fact).
  Rng rng(43);
  BagGenOptions options;
  options.support_size = 30;
  options.domain_size = 3;
  Bag bag = *MakeRandomBag(Schema{{0, 1, 2}}, options, &rng);
  Schema z{{0, 2}};
  Relation lhs = *Relation::SupportOf(bag).Project(z);
  Relation rhs = Relation::SupportOf(*bag.Marginal(z));
  EXPECT_EQ(lhs, rhs);
}

TEST(BagTest, MarginalRequiresSubschema) {
  Bag bag = PaperSectionTwoBag();
  EXPECT_FALSE(bag.Marginal(Schema{{0, 7}}).ok());
}

TEST(BagTest, BagJoinMultiplicities) {
  // (R ⋈_b S)(t) = R(t[X]) * S(t[Y]).
  Bag r = *MakeBag(Schema{{0, 1}}, {{{1, 2}, 3}, {{1, 3}, 2}});
  Bag s = *MakeBag(Schema{{1, 2}}, {{{2, 7}, 5}, {{2, 8}, 1}, {{4, 9}, 6}});
  Bag j = *Bag::Join(r, s);
  EXPECT_EQ(j.schema(), Schema({0, 1, 2}));
  EXPECT_EQ(j.Multiplicity(Tuple{{1, 2, 7}}), 15u);
  EXPECT_EQ(j.Multiplicity(Tuple{{1, 2, 8}}), 3u);
  EXPECT_EQ(j.Multiplicity(Tuple{{1, 3, 7}}), 0u);
  EXPECT_EQ(j.SupportSize(), 2u);
}

TEST(BagTest, BagJoinSupportIsJoinOfSupports) {
  Rng rng(7);
  BagGenOptions options;
  options.support_size = 12;
  options.domain_size = 3;
  Bag r = *MakeRandomBag(Schema{{0, 1}}, options, &rng);
  Bag s = *MakeRandomBag(Schema{{1, 2}}, options, &rng);
  Bag j = *Bag::Join(r, s);
  Relation expected =
      *Relation::Join(Relation::SupportOf(r), Relation::SupportOf(s));
  EXPECT_EQ(Relation::SupportOf(j), expected);
}

TEST(BagTest, BagJoinMatchesNestedLoopOracle) {
  // Every layout the columnar join takes: the left side's attributes lead
  // the joined schema, the right side's do, or they interleave (then the
  // rows are sorted); plus a cartesian product, containment, and values
  // outside the direct id range, whose order is by value.
  const std::vector<std::pair<Schema, Schema>> layouts = {
      {Schema{{0, 1}}, Schema{{1, 2}}}, {Schema{{1, 2}}, Schema{{0, 1}}},
      {Schema{{0, 2}}, Schema{{1, 2}}}, {Schema{{0, 2}}, Schema{{1}}},
      {Schema{{0}}, Schema{{1}}},       {Schema{{0, 1, 2}}, Schema{{1}}},
      {Schema{{1, 3}}, Schema{{0, 2, 3}}}};
  Rng rng(17);
  for (size_t l = 0; l < layouts.size(); ++l) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE("layout " + std::to_string(l) + " trial " + std::to_string(trial));
      auto random_bag = [&](const Schema& x) {
        BagBuilder builder(x);
        for (int row = 0; row < 12; ++row) {
          std::vector<Value> values(x.arity());
          for (Value& v : values) {
            v = static_cast<Value>(rng.Below(3));
            if (trial % 2 == 1 && rng.Chance(1, 3)) v = -v - 1;
          }
          EXPECT_TRUE(builder.Add(Tuple{values}, 1 + rng.Below(5)).ok());
        }
        return *builder.Build();
      };
      Bag r = random_bag(layouts[l].first);
      Bag s = random_bag(layouts[l].second);
      TupleJoiner joiner = *TupleJoiner::Make(r.schema(), s.schema());
      BagBuilder want(joiner.joined_schema());
      for (size_t i = 0; i < r.SupportSize(); ++i) {
        for (size_t j = 0; j < s.SupportSize(); ++j) {
          if (!joiner.Joinable(r.RowAt(i), s.RowAt(j))) continue;
          ASSERT_TRUE(want.Add(joiner.Join(r.RowAt(i), s.RowAt(j)),
                               r.MultiplicityAt(i) * s.MultiplicityAt(j))
                          .ok());
        }
      }
      EXPECT_EQ(*Bag::Join(r, s), *want.Build());
    }
  }
}

TEST(BagTest, JoinOverflowDetected) {
  uint64_t big = std::numeric_limits<uint64_t>::max() / 2;
  Bag r = *MakeBag(Schema{{0}}, {{{1}, big}});
  Bag s = *MakeBag(Schema{{1}}, {{{2}, 3}});
  EXPECT_FALSE(Bag::Join(r, s).ok());
}

TEST(BagTest, Containment) {
  Bag small = *MakeBag(Schema{{0}}, {{{1}, 2}});
  Bag large = *MakeBag(Schema{{0}}, {{{1}, 3}, {{2}, 1}});
  EXPECT_TRUE(Bag::Contained(small, large));
  EXPECT_FALSE(Bag::Contained(large, small));
  EXPECT_TRUE(Bag::Contained(small, small));
  Bag other_schema = *MakeBag(Schema{{1}}, {{{1}, 9}});
  EXPECT_FALSE(Bag::Contained(small, other_schema));
}

TEST(BagTest, SizeMeasures) {
  // Multiplicities 2, 1, 5: ||R||supp=3, mu=5, mb=bits of 6 = 3,
  // u=8, b = bits(3)+bits(2)+bits(6) = 2+2+3 = 7.
  Bag bag = PaperSectionTwoBag();
  EXPECT_EQ(bag.SupportSize(), 3u);
  EXPECT_EQ(bag.MultiplicityBound(), 5u);
  EXPECT_EQ(bag.MultiplicitySize(), 3u);
  EXPECT_EQ(*bag.UnarySize(), 8u);
  EXPECT_EQ(bag.BinarySize(), 7u);
  // ||R||_u <= ||R||_supp * ||R||_mu and ||R||_b <= ||R||_supp * ||R||_mb.
  EXPECT_LE(*bag.UnarySize(), bag.SupportSize() * bag.MultiplicityBound());
  EXPECT_LE(bag.BinarySize(), bag.SupportSize() * bag.MultiplicitySize());
}

TEST(BagTest, MakeBagRejectsDuplicatesAndBadArity) {
  EXPECT_FALSE(MakeBag(Schema{{0}}, {{{1}, 2}, {{1}, 3}}).ok());
  EXPECT_FALSE(MakeBag(Schema{{0, 1}}, {{{1}, 2}}).ok());
  // A zero-multiplicity occurrence still counts, in either order.
  Status zero_last = MakeBag(Schema{{0}}, {{{1}, 5}, {{1}, 0}}).status();
  Status zero_first = MakeBag(Schema{{0}}, {{{1}, 0}, {{1}, 5}}).status();
  EXPECT_EQ(zero_last.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(zero_first.code(), zero_last.code());
  EXPECT_EQ(zero_first.message(), zero_last.message());
}

TEST(BagTest, EmptySchemaBagActsAsScalar) {
  Bag scalar(Schema{});
  ASSERT_TRUE(scalar.Set(Tuple{}, 7).ok());
  EXPECT_EQ(scalar.Multiplicity(Tuple{}), 7u);
  EXPECT_EQ(scalar.SupportSize(), 1u);
}

TEST(RelationTest, ProjectAndJoin) {
  Relation r = *MakeRelation(Schema{{0, 1}}, {{0, 0}, {1, 1}});
  Relation s = *MakeRelation(Schema{{1, 2}}, {{0, 1}, {1, 0}});
  Relation j = *Relation::Join(r, s);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.Contains(Tuple{{0, 0, 1}}));
  EXPECT_TRUE(j.Contains(Tuple{{1, 1, 0}}));
  Relation p = *j.Project(Schema{{0, 2}});
  EXPECT_EQ(p.size(), 2u);
}

TEST(RelationTest, SemijoinFiltersDanglingTuples) {
  Relation r = *MakeRelation(Schema{{0, 1}}, {{0, 0}, {1, 1}, {2, 2}});
  Relation s = *MakeRelation(Schema{{1, 2}}, {{0, 9}, {2, 9}});
  Relation sj = *Relation::Semijoin(r, s);
  EXPECT_EQ(sj.size(), 2u);
  EXPECT_TRUE(sj.Contains(Tuple{{0, 0}}));
  EXPECT_TRUE(sj.Contains(Tuple{{2, 2}}));
  EXPECT_FALSE(sj.Contains(Tuple{{1, 1}}));
}

TEST(RelationTest, JoinAllRequiresNonEmpty) {
  EXPECT_FALSE(Relation::JoinAll({}).ok());
}

TEST(RelationTest, SupportRoundTrip) {
  Bag bag = PaperSectionTwoBag();
  Relation support = Relation::SupportOf(bag);
  EXPECT_EQ(support.size(), 3u);
  Bag back = support.ToBag();
  EXPECT_EQ(back.SupportSize(), 3u);
  EXPECT_EQ(back.Multiplicity(Tuple{{1, 11}}), 1u);
}

TEST(RelationTest, RelationsAreZeroOneBags) {
  // A relation viewed as a bag has every multiplicity equal to 1.
  Relation r = *MakeRelation(Schema{{0}}, {{3}, {4}});
  Bag b = r.ToBag();
  for (size_t i = 0; i < b.SupportSize(); ++i) {
    EXPECT_EQ(b.MultiplicityAt(i), 1u);
  }
}

// BorrowColumnar over `rows` (row-major ids, `arity` per row) and `mults`:
// OK, or the first failing row's message.
std::string BorrowRows(size_t arity, const std::vector<ValueId>& rows,
                       const std::vector<uint64_t>& mults) {
  const size_t n = mults.size();
  std::vector<AttrId> attrs(arity);
  for (size_t c = 0; c < arity; ++c) attrs[c] = static_cast<AttrId>(c);
  std::vector<ValueId> column_major(rows.size());
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < arity; ++c) column_major[c * n + r] = rows[r * arity + c];
  }
  Result<Bag> bag =
      Bag::BorrowColumnar(Schema{attrs}, column_major.data(), mults.data(), n, nullptr);
  return bag.ok() ? "OK" : bag.status().message();
}

TEST(BagTest, BorrowColumnarChecksTheFirstFailingRow) {
  const std::string kDescent = "sealed columnar rows not strictly ascending at row ";
  const std::string kZero = "sealed columnar bag carries a zero multiplicity at row ";
  for (size_t arity = 1; arity <= 4; ++arity) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    // Rows (0..0, r): only the last column moves.
    auto rows = [&](const std::vector<ValueId>& last) {
      std::vector<ValueId> ids;
      for (ValueId v : last) {
        ids.insert(ids.end(), arity - 1, 7);
        ids.push_back(v);
      }
      return ids;
    };
    EXPECT_EQ(BorrowRows(arity, rows({1, 2, 3}), {1, 1, 1}), "OK");
    EXPECT_EQ(BorrowRows(arity, rows({1, 2, 2}), {1, 1, 1}), kDescent + "2");
    EXPECT_EQ(BorrowRows(arity, rows({1, 3, 2}), {1, 1, 1}), kDescent + "2");
    EXPECT_EQ(BorrowRows(arity, rows({1, 1, 2}), {1, 1, 1}), kDescent + "1");
    EXPECT_EQ(BorrowRows(arity, rows({1, 2, 3}), {0, 1, 1}), kZero + "0");
    EXPECT_EQ(BorrowRows(arity, rows({1, 2, 3}), {1, 1, 0}), kZero + "2");
    // Both faults at one row: the zero multiplicity is reported.
    EXPECT_EQ(BorrowRows(arity, rows({1, 2, 2}), {1, 1, 0}), kZero + "2");
    // A descent before a zero multiplicity is reported first.
    EXPECT_EQ(BorrowRows(arity, rows({2, 1, 3}), {1, 1, 0}), kDescent + "1");
    EXPECT_EQ(BorrowRows(arity, {}, {}), "OK");
  }
  // A descent in the first column beats an ascent in the later ones.
  EXPECT_EQ(BorrowRows(2, {1, 9, 0, 10}, {1, 1}), kDescent + "1");
  EXPECT_EQ(BorrowRows(3, {1, 1, 9, 1, 2, 0}, {1, 1}), "OK");
  EXPECT_EQ(BorrowRows(3, {1, 2, 9, 1, 2, 8}, {1, 1}), kDescent + "1");
  // Side-table ids order by value, not by raw id: 3000000123 is encoded
  // before -777, so its id is the smaller one.
  const ValueId big = EncodeValue(3000000123);
  const ValueId negative = EncodeValue(-777);
  ASSERT_LT(big, negative);
  ASSERT_GE(negative, kDirectValueLimit);
  EXPECT_EQ(BorrowRows(1, {negative, 0, 5, big}, {1, 1, 1, 1}), "OK");
  EXPECT_EQ(BorrowRows(1, {big, negative}, {1, 1}), kDescent + "1");
  EXPECT_EQ(BorrowRows(1, {0, negative}, {1, 1}), kDescent + "1");
  EXPECT_EQ(BorrowRows(2, {3, negative, 3, big}, {1, 1}), "OK");
  EXPECT_EQ(BorrowRows(2, {3, big, 3, negative}, {1, 1}), kDescent + "1");
  EXPECT_EQ(BorrowRows(2, {3, big, 3, big}, {1, 1}), kDescent + "1");
}

}  // namespace
}  // namespace bagc
