// Differential suite for the sealed-bag segment format (tuple/segment.h):
// a corrupted or truncated file must fail cleanly — InvalidArgument
// (E_PARSE) for structural damage, OutOfRange (E_RANGE) for offsets
// escaping the file — with no crash under ASan/UBSan, and an intact
// segment must round-trip the collection bit-identically against the
// parsed-text reference. CI reruns this label in the sanitizer leg
// (`ctest -L differential`).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bag/bag_io.h"
#include "server/engine_snapshot.h"
#include "server/session.h"
#include "tuple/column_store.h"
#include "tuple/segment.h"
#include "tuple/value_dictionary.h"

namespace bagc {
namespace {

// The reference collection: two bags sharing attribute b, string-valued
// so every attribute carries a real dictionary.
constexpr const char* kCollectionText =
    "bag a b\n"
    "x u : 2\n"
    "y u : 1\n"
    "y v : 7\n"
    "end\n"
    "bag b c\n"
    "u p : 3\n"
    "v q : 4\n"
    "end\n";

struct Fixture {
  AttributeCatalog catalog;
  DictionarySet dicts;
  std::vector<Bag> bags;
  std::vector<std::string> names;
  std::string segment;  // valid encoded bytes
};

Fixture MakeFixture() {
  Fixture f;
  f.bags = *ParseCollection(kCollectionText, &f.catalog, &f.dicts);
  f.names = {"left", "right"};
  f.segment = *EncodeSegment(f.names, f.bags, f.catalog, f.dicts);
  return f;
}

// The same FNV-1a the format specifies for bytes [64, size) — tests that
// corrupt the body must restamp the checksum so the *targeted* check
// (not the checksum) rejects the file.
uint64_t Fnv1a(const char* data, size_t n) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void PutU64(std::string* bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint64_t GetU64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= uint64_t{static_cast<unsigned char>(bytes[at + i])} << (8 * i);
  }
  return v;
}

void Restamp(std::string* bytes) {
  PutU64(bytes, 24,
         Fnv1a(bytes->data() + kSegmentHeaderBytes,
               bytes->size() - kSegmentHeaderBytes));
}

TEST(SegmentTest, TruncatedFileIsRejectedCleanly) {
  Fixture f = MakeFixture();
  // Every truncation point — inside the header, the tables, the heap —
  // must fail without touching a byte past the buffer.
  for (size_t keep : {size_t{0}, size_t{7}, size_t{63}, size_t{64},
                      f.segment.size() / 2, f.segment.size() - 1}) {
    std::string cut = f.segment.substr(0, keep);
    Result<SegmentReader> r = SegmentReader::Parse(cut);
    ASSERT_FALSE(r.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
}

TEST(SegmentTest, BadMagicIsRejected) {
  Fixture f = MakeFixture();
  std::string bytes = f.segment;
  bytes[0] = 'X';
  Result<SegmentReader> r = SegmentReader::Parse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

TEST(SegmentTest, WrongVersionIsRejected) {
  Fixture f = MakeFixture();
  std::string bytes = f.segment;
  bytes[8] = 99;  // u32 version LE, low byte
  Result<SegmentReader> r = SegmentReader::Parse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST(SegmentTest, ChecksumMismatchIsRejected) {
  Fixture f = MakeFixture();
  std::string bytes = f.segment;
  bytes[bytes.size() - 1] ^= 0x01;  // flip one heap bit, keep the header
  Result<SegmentReader> r = SegmentReader::Parse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

TEST(SegmentTest, ColumnOffsetOutsideFileIsRejected) {
  Fixture f = MakeFixture();
  std::string bytes = f.segment;
  // Bag entry 0's columns offset lives at bag_table + 24 (layout in
  // tuple/segment.h). Point it past EOF, restamp the checksum so the
  // bounds check — not the checksum — must catch it.
  uint64_t bag_table = GetU64(bytes, 48);
  PutU64(&bytes, bag_table + 24, bytes.size() + 4096);
  Restamp(&bytes);
  Result<SegmentReader> r = SegmentReader::Parse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange)
      << r.status().ToString();
}

TEST(SegmentTest, TableOffsetsOutsideFileAreRejected) {
  Fixture f = MakeFixture();
  for (size_t field : {size_t{40}, size_t{48}}) {  // attr table, bag table
    std::string bytes = f.segment;
    PutU64(&bytes, field, bytes.size());
    Restamp(&bytes);
    Result<SegmentReader> r = SegmentReader::Parse(bytes);
    ASSERT_FALSE(r.ok()) << "field at " << field;
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange)
        << r.status().ToString();
  }
}

TEST(SegmentTest, HeaderFileSizeMustMatch) {
  Fixture f = MakeFixture();
  std::string bytes = f.segment;
  PutU64(&bytes, 16, bytes.size() + 1);
  Result<SegmentReader> r = SegmentReader::Parse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// The zero-parse ingest must reproduce the parsed-text collection
// bit-identically: same schemas, same tuples, same multiplicities, same
// decoded serialization.
TEST(SegmentTest, MappedSegmentRoundTripsBitIdentically) {
  Fixture f = MakeFixture();
  std::string path = testing::TempDir() + "segment_roundtrip.seg";
  ASSERT_TRUE(
      WriteSegmentFile(path, f.names, f.bags, f.catalog, f.dicts).ok());
  Result<SegmentReader> reader = SegmentReader::Map(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  // Rebuild the dictionaries from the segment's externals; they must
  // reproduce the writer's id spaces exactly.
  AttributeCatalog catalog;
  DictionarySet dicts;
  ASSERT_EQ(reader->num_attrs(), 3u);
  for (size_t a = 0; a < reader->num_attrs(); ++a) {
    AttrId id = catalog.Intern(std::string(reader->attr_name(a)));
    ASSERT_TRUE(dicts.dict(id).BulkLoad(reader->AttrValues(a)).ok());
  }

  ASSERT_EQ(reader->num_bags(), f.bags.size());
  for (size_t b = 0; b < reader->num_bags(); ++b) {
    EXPECT_EQ(reader->bag_name(b), f.names[b]);
    std::vector<std::string> col_names;
    for (size_t c = 0; c < reader->bag_arity(b); ++c) {
      col_names.emplace_back(reader->attr_name(reader->bag_attr(b, c)));
    }
    ColumnStore columns = reader->Columns(b);
    Result<Bag> rebuilt = BagFromU32Columns(col_names, columns.View(),
                                            reader->Mults(b), &catalog, dicts);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    // Bit-identical: schema, tuple ids, multiplicities...
    EXPECT_TRUE(*rebuilt == f.bags[b]) << "bag " << b;
    // ...and the decoded text form (ids resolved through the rebuilt
    // dictionaries) matches the original parse's byte-for-byte.
    EXPECT_EQ(WriteBag(*rebuilt, catalog, &dicts),
              WriteBag(f.bags[b], f.catalog, &f.dicts));
  }
  std::remove(path.c_str());
}

// LOADSEG through a live session must produce the same sealed snapshot
// a text-loaded session produces: identical STATS support/dict counts
// and identical decoded witness bodies.
TEST(SegmentTest, LoadSegMatchesTextLoadedSession) {
  Fixture f = MakeFixture();
  std::string path = testing::TempDir() + "segment_session.seg";
  ASSERT_TRUE(
      WriteSegmentFile(path, f.names, f.bags, f.catalog, f.dicts).ok());

  CollectionRegistry text_registry;
  ServerSession text_session(&text_registry, nullptr);
  std::string dict_script;
  for (AttrId a : {0, 1, 2}) {
    const ValueDictionary* dict = f.dicts.find_dict(a);
    ASSERT_NE(dict, nullptr);
    dict_script += "DICT " + f.catalog.Name(a) + " " +
                   std::to_string(dict->size()) + "\n";
    for (const std::string& value : dict->externals()) dict_script += value + "\n";
    dict_script += "END\n";
  }
  std::string load_script = dict_script;
  for (size_t b = 0; b < f.bags.size(); ++b) {
    load_script += "LOADU32 " + f.names[b];
    for (AttrId a : f.bags[b].schema().attrs()) {
      load_script += " " + f.catalog.Name(a);
    }
    load_script += "\n";
    const Bag& bag = f.bags[b];
    for (size_t r = 0; r < bag.SupportSize(); ++r) {
      for (size_t c = 0; c < bag.schema().arity(); ++c) {
        load_script += std::to_string(bag.IdAt(r, c)) + " ";
      }
      load_script += ": " + std::to_string(bag.MultiplicityAt(r)) + "\n";
    }
    load_script += "END\n";
  }
  const std::string queries = "SEAL\nTWOBAG 0 1\nWITNESS left right\nSTATS\n";
  std::vector<std::string> text_out = text_session.HandleScript(load_script + queries);

  CollectionRegistry seg_registry;
  ServerSession seg_session(&seg_registry, nullptr);
  std::vector<std::string> seg_out =
      seg_session.HandleScript("LOADSEG " + path + "\n" + queries);

  for (const std::string& line : text_out) {
    ASSERT_EQ(line.rfind("ERR", 0), std::string::npos) << line;
  }
  for (const std::string& line : seg_out) {
    ASSERT_EQ(line.rfind("ERR", 0), std::string::npos) << line;
  }
  // Compare from SEAL onward (the load-phase responses legitimately
  // differ: N DICT/LOADU32 acks vs one LOADSEG ack).
  auto tail = [](const std::vector<std::string>& lines) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind("OK SEAL", 0) == 0) {
        return std::vector<std::string>(lines.begin() + i, lines.end());
      }
    }
    return std::vector<std::string>();
  };
  std::vector<std::string> text_tail = tail(text_out);
  std::vector<std::string> seg_tail = tail(seg_out);
  ASSERT_FALSE(text_tail.empty());
  // sealed_bytes is the one line that legitimately differs: the
  // segment-loaded session serves the mmap'd columns in place
  // (BagBorrowU32Columns), so its engine-resident bytes must come in at
  // or under the text-loaded copy. Everything else is byte-identical.
  auto split_sealed = [](std::vector<std::string>* lines) {
    for (auto it = lines->begin(); it != lines->end(); ++it) {
      if (it->rfind("sealed_bytes ", 0) == 0) {
        uint64_t value = std::stoull(it->substr(std::string("sealed_bytes ").size()));
        lines->erase(it);
        return value;
      }
    }
    return static_cast<uint64_t>(0);
  };
  uint64_t text_sealed = split_sealed(&text_tail);
  uint64_t seg_sealed = split_sealed(&seg_tail);
  EXPECT_GT(text_sealed, 0u);
  EXPECT_GT(seg_sealed, 0u);
  EXPECT_LE(seg_sealed, text_sealed);
  EXPECT_EQ(text_tail, seg_tail);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bagc
