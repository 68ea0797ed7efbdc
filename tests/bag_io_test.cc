// Tests for the text serialization of bags and collections.
#include <gtest/gtest.h>

#include "bag/bag_io.h"
#include "generators/workloads.h"
#include "util/random.h"

namespace bagc {
namespace {

TEST(BagIoTest, RoundTripSingleBag) {
  AttributeCatalog catalog;
  AttrId a = catalog.Intern("A");
  AttrId b = catalog.Intern("B");
  Bag bag = *MakeBag(Schema{{a, b}}, {{{1, 2}, 3}, {{-4, 5}, 1}});
  std::string text = WriteBag(bag, catalog);
  AttributeCatalog catalog2;
  auto bags = *ParseCollection(text, &catalog2);
  ASSERT_EQ(bags.size(), 1u);
  EXPECT_EQ(bags[0].SupportSize(), 2u);
  EXPECT_EQ(bags[0].Multiplicity(Tuple{{1, 2}}), 3u);
  EXPECT_EQ(bags[0].Multiplicity(Tuple{{-4, 5}}), 1u);
}

TEST(BagIoTest, RoundTripCollectionPreservesSharedAttributes) {
  AttributeCatalog catalog;
  AttrId a = catalog.Intern("A");
  AttrId b = catalog.Intern("B");
  AttrId c = catalog.Intern("C");
  Bag r = *MakeBag(Schema{{a, b}}, {{{1, 2}, 1}});
  Bag s = *MakeBag(Schema{{b, c}}, {{{2, 9}, 4}});
  std::string text = WriteCollection({r, s}, catalog);
  AttributeCatalog catalog2;
  auto bags = *ParseCollection(text, &catalog2);
  ASSERT_EQ(bags.size(), 2u);
  // The shared attribute B must map to the same id in both schemas.
  Schema shared = Schema::Intersect(bags[0].schema(), bags[1].schema());
  EXPECT_EQ(shared.arity(), 1u);
  EXPECT_EQ(catalog2.Name(shared.at(0)), "B");
}

TEST(BagIoTest, CommentsAndBlankLinesIgnored) {
  const char* text =
      "# a comment\n"
      "\n"
      "bag X Y   # header comment\n"
      "1 2 : 3\n"
      "\n"
      "# interior comment\n"
      "4 5 : 6\n"
      "end\n";
  AttributeCatalog catalog;
  auto bags = *ParseCollection(text, &catalog);
  ASSERT_EQ(bags.size(), 1u);
  EXPECT_EQ(bags[0].SupportSize(), 2u);
}

TEST(BagIoTest, HeaderOrderDoesNotHaveToBeSorted) {
  // Attributes "Z" then "A": interned ids 0, 1 — but the schema layout
  // sorts by id, so column order must be remapped correctly.
  const char* text =
      "bag Z A\n"
      "7 8 : 2\n"
      "end\n";
  AttributeCatalog catalog;
  auto bags = *ParseCollection(text, &catalog);
  ASSERT_EQ(bags.size(), 1u);
  const Bag& bag = bags[0];
  AttrId z = *catalog.Lookup("Z");
  AttrId a = *catalog.Lookup("A");
  ASSERT_EQ(bag.SupportSize(), 1u);
  EXPECT_EQ(bag.MultiplicityAt(0), 2u);
  EXPECT_EQ(*bag.RowAt(0).ValueOf(bag.schema(), z), 7);
  EXPECT_EQ(*bag.RowAt(0).ValueOf(bag.schema(), a), 8);
}

TEST(BagIoTest, ParseErrors) {
  AttributeCatalog catalog;
  EXPECT_FALSE(ParseCollection("", &catalog).ok());
  EXPECT_FALSE(ParseCollection("bag A\n1 : 2\n", &catalog).ok());  // no end
  EXPECT_FALSE(ParseCollection("notabag A\nend\n", &catalog).ok());
  EXPECT_FALSE(ParseCollection("bag A\nx : 2\nend\n", &catalog).ok());  // bad int
  EXPECT_FALSE(ParseCollection("bag A\n1 : -2\nend\n", &catalog).ok());  // neg mult
  EXPECT_FALSE(ParseCollection("bag A\n1 2 : 2\nend\n", &catalog).ok());  // arity
  EXPECT_FALSE(
      ParseCollection("bag A\n1 : 1\n1 : 2\nend\n", &catalog).ok());  // dup tuple
  EXPECT_FALSE(ParseCollection("bag A A\n1 1 : 1\nend\n", &catalog).ok());  // dup attr
}

TEST(BagIoTest, DuplicateRejectedWhicheverOccurrenceIsZero) {
  AttributeCatalog catalog;
  Status zero_last = ParseCollection("bag A\n1 : 5\n1 : 0\nend\n", &catalog).status();
  Status zero_first = ParseCollection("bag A\n1 : 0\n1 : 5\nend\n", &catalog).status();
  EXPECT_EQ(zero_last.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(zero_first.code(), zero_last.code());
  EXPECT_EQ(zero_first.message().rfind("duplicate tuple: ", 0), 0u)
      << zero_first.message();

  // The u32 ingest (LOADU32 / binary ROWS) reports the same row either way.
  DictionarySet dicts;
  AttrId a = catalog.Intern("A");
  ASSERT_TRUE(dicts.Intern(a, "x").ok());
  std::vector<ValueId> ids = {0, 0};
  ColumnView column({ids.data()}, ids.size());
  auto load = [&](std::vector<uint64_t> mults) {
    return BagFromU32Columns({"A"}, column, mults.data(), &catalog, dicts).status();
  };
  Status u32_zero_last = load({5, 0});
  Status u32_zero_first = load({0, 5});
  EXPECT_EQ(u32_zero_last.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(u32_zero_first.code(), u32_zero_last.code());
  EXPECT_EQ(u32_zero_first.message(), u32_zero_last.message());
}

TEST(BagIoTest, ZeroMultiplicityTuplesDropFromSupport) {
  AttributeCatalog catalog;
  auto bags = *ParseCollection("bag A\n1 : 0\n2 : 5\nend\n", &catalog);
  EXPECT_EQ(bags[0].SupportSize(), 1u);
}

TEST(BagIoTest, GarbageInputNeverCrashes) {
  // Robustness sweep: random byte soup must come back as a Status, never
  // crash or hang.
  Rng rng(405);
  const char alphabet[] = "bag end\n:0123456789-AZ #\t";
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    size_t len = rng.Below(120);
    for (size_t i = 0; i < len; ++i) {
      garbage += alphabet[rng.Below(sizeof(alphabet) - 1)];
    }
    AttributeCatalog catalog;
    auto result = ParseCollection(garbage, &catalog);
    // Either parses (the soup accidentally formed a document) or errors.
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(BagIoTest, RandomRoundTrips) {
  Rng rng(404);
  BagGenOptions options;
  options.support_size = 20;
  options.domain_size = 6;
  options.max_multiplicity = 1u << 30;
  AttributeCatalog catalog;
  catalog.Intern("A");
  catalog.Intern("B");
  catalog.Intern("C");
  for (int trial = 0; trial < 20; ++trial) {
    Bag bag = *MakeRandomBag(Schema{{0, 1, 2}}, options, &rng);
    AttributeCatalog catalog2;
    auto bags = *ParseCollection(WriteBag(bag, catalog), &catalog2);
    ASSERT_EQ(bags.size(), 1u);
    EXPECT_EQ(bags[0], bag);
  }
}

}  // namespace
}  // namespace bagc
