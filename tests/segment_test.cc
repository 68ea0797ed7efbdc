// Differential suite for the sealed-bag segment format (tuple/segment.h):
// a corrupted or truncated file must fail cleanly — InvalidArgument
// (E_PARSE) for structural damage, OutOfRange (E_RANGE) for offsets
// escaping the file — with no crash under ASan/UBSan, and an intact
// segment must round-trip the collection bit-identically against the
// parsed-text reference. CI reruns this label in the sanitizer leg
// (`ctest -L differential`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bag/bag_io.h"
#include "server/engine_snapshot.h"
#include "server/protocol.h"
#include "server/session.h"
#include "tuple/column_store.h"
#include "tuple/segment.h"
#include "tuple/value_dictionary.h"
#include "util/checksum.h"
#include "util/random.h"

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

// Tests that corrupt the body restamp the checksum the format specifies
// for bytes [64, size), so the *targeted* check (not the checksum)
// rejects the file.
void Restamp(std::string* bytes) {
  PutU64(bytes, 24,
         Xxh64(bytes->data() + kSegmentHeaderBytes,
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
  Result<SegmentReader> mapped = SegmentReader::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto reader = std::make_shared<SegmentReader>(std::move(mapped).value());

  // Borrow the dictionaries from the segment's value tables; they must
  // reproduce the writer's id spaces exactly.
  AttributeCatalog catalog;
  DictionarySet dicts;
  ASSERT_EQ(reader->num_attrs(), 3u);
  for (size_t a = 0; a < reader->num_attrs(); ++a) {
    AttrId id = catalog.Intern(std::string(reader->attr_name(a)));
    ASSERT_TRUE(dicts.dict(id)
                    .Borrow(reader->attr_offsets(a), reader->attr_value_count(a),
                            reader->attr_blob(a), reader)
                    .ok());
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

// Runs `after_load` in two fresh sessions: one that loaded the fixture
// through DICT + LOADU32 text blocks, one that loaded it with LOADSEG
// from `path`. Every reply from SEAL onward must be byte-identical,
// except `sealed_bytes`: the segment-loaded session serves the mmap'd
// columns in place (BagBorrowU32Columns), so its engine-resident bytes
// must come in at or under the text-loaded copy.
void ExpectSegmentSessionMatchesText(const Fixture& f, const std::string& path,
                                     const std::string& after_load) {
  CollectionRegistry text_registry;
  ServerSession text_session(&text_registry, nullptr);
  std::string dict_script;
  for (AttrId a : {0, 1, 2}) {
    const ValueDictionary* dict = f.dicts.find_dict(a);
    ASSERT_NE(dict, nullptr);
    dict_script += "DICT " + f.catalog.Name(a) + " " +
                   std::to_string(dict->size()) + "\n";
    for (size_t id = 0; id < dict->size(); ++id) {
      dict_script += dict->ExternalOf(static_cast<ValueId>(id));
      dict_script += '\n';
    }
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
  std::vector<std::string> text_out = text_session.HandleScript(load_script + after_load);

  CollectionRegistry seg_registry;
  ServerSession seg_session(&seg_registry, nullptr);
  std::vector<std::string> seg_out =
      seg_session.HandleScript("LOADSEG " + path + "\n" + after_load);

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
}

// LOADSEG through a live session must produce the same sealed snapshot
// a text-loaded session produces: identical STATS support/dict counts
// and identical decoded witness bodies.
TEST(SegmentTest, LoadSegMatchesTextLoadedSession) {
  Fixture f = MakeFixture();
  std::string path = testing::TempDir() + "segment_session.seg";
  ASSERT_TRUE(
      WriteSegmentFile(path, f.names, f.bags, f.catalog, f.dicts).ok());
  ExpectSegmentSessionMatchesText(
      f, path, "SEAL\nTWOBAG 0 1\nWITNESS left right\nSTATS\n");
  std::remove(path.c_str());
}

// A text LOAD that interns a new value into a LOADSEG'd (borrowed)
// dictionary copies the table first; the new id, an INSERT over it, the
// seal and every answer match a session that never borrowed.
TEST(SegmentTest, InternIntoLoadSegDictionaryMatchesTextLoadedSession) {
  Fixture f = MakeFixture();
  std::string path = testing::TempDir() + "segment_session_intern.seg";
  ASSERT_TRUE(
      WriteSegmentFile(path, f.names, f.bags, f.catalog, f.dicts).ok());
  // `w` is new to attribute a (ids x 0, y 1), so it interns as id 2;
  // the INSERT then adds (w, u) to `left` by id.
  ExpectSegmentSessionMatchesText(f, path,
                                  "LOAD extra a c\n"
                                  "w p : 2\n"
                                  "x q : 1\n"
                                  "END\n"
                                  "INSERT left a b\n"
                                  "2 0 : 5\n"
                                  "END\n"
                                  "SEAL\n"
                                  "TWOBAG left right\n"
                                  "WITNESS left right\n"
                                  "WITNESS extra left\n"
                                  "PAIRWISE\n"
                                  "STATS\n");
  std::remove(path.c_str());
}

// Version 1 (FNV-1a checksums) has no reader: the refusal names both
// versions, through the reader and through LOADSEG.
TEST(SegmentTest, VersionOneSegmentIsRefused) {
  Fixture f = MakeFixture();
  std::string bytes = f.segment;
  bytes[8] = 1;  // u32 version LE, low byte
  Result<SegmentReader> r = SegmentReader::Parse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version 1"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("version 2"), std::string::npos)
      << r.status().message();

  std::string path = testing::TempDir() + "segment_v1.seg";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out = session.HandleScript("LOADSEG " + path + "\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("version 1"), std::string::npos) << out[0];
  std::remove(path.c_str());
}

// Writes r(a, b) and s(b, c) with `value` as one value of a. Interning
// does not judge values, so any byte string reaches the segment.
std::string WriteSegmentWithValue(const std::string& file, const std::string& value) {
  AttributeCatalog catalog;
  DictionarySet dicts;
  AttrId a = catalog.Intern("a");
  AttrId b = catalog.Intern("b");
  AttrId c = catalog.Intern("c");
  ValueId v = *dicts.Intern(a, value);
  ValueId k = *dicts.Intern(b, "k");
  ValueId m = *dicts.Intern(c, "m");
  BagBuilder r(Schema{{a, b}});
  EXPECT_TRUE(r.Add(Tuple::OfIds({v, k}), 1).ok());
  BagBuilder s(Schema{{b, c}});
  EXPECT_TRUE(s.Add(Tuple::OfIds({k, m}), 1).ok());
  std::string path = testing::TempDir() + file;
  Status written = WriteSegmentFile(path, {"r", "s"}, {*r.Build(), *s.Build()},
                                    catalog, dicts);
  EXPECT_TRUE(written.ok()) << written.ToString();
  return path;
}

// A value the text framing cannot carry (DICT refuses it) is refused at
// the one place values enter from disk: LOADSEG answers E_PARSE and
// the registry's Restore (--preload-seg) refuses the reload.
TEST(SegmentTest, UnframeableValuesAreRefusedOnLoad) {
  for (const std::string& value : {std::string("two words"), std::string(""),
                                   std::string("#x"), std::string("tab\tv"),
                                   std::string("line\n")}) {
    std::string path = WriteSegmentWithValue("segment_unframeable.seg", value);
    CollectionRegistry registry;
    ServerSession session(&registry, nullptr);
    std::vector<std::string> out = session.HandleScript("LOADSEG " + path + "\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rfind("ERR E_PARSE", 0), 0u) << "'" << value << "': " << out[0];
    EXPECT_EQ(session.HandleScript("SEAL\n")[0].rfind("ERR", 0), 0u)
        << "a refused LOADSEG must leave the session without bags";

    CollectionRegistry restored;
    Result<uint64_t> replayed = restored.Restore(restored.Default().get(), path);
    ASSERT_FALSE(replayed.ok()) << "'" << value << "'";
    EXPECT_NE(replayed.status().message().find("not representable on the wire"),
              std::string::npos)
        << replayed.status().ToString();
    std::remove(path.c_str());
  }
  // The same segment with a framable value loads, seals and witnesses.
  std::string path = WriteSegmentWithValue("segment_framable.seg", "two_words");
  CollectionRegistry registry;
  ServerSession session(&registry, nullptr);
  std::vector<std::string> out =
      session.HandleScript("LOADSEG " + path + "\nSEAL\nWITNESS r s\n");
  ASSERT_GE(out.size(), 3u);
  EXPECT_EQ(out[0], "OK LOADSEG 2 bags 2 rows");
  EXPECT_EQ(out[1].rfind("OK SEAL", 0), 0u) << out[1];
  EXPECT_NE(std::find(out.begin(), out.end(), "two_words k m : 1"), out.end());
  CollectionRegistry restored;
  EXPECT_TRUE(restored.Restore(restored.Default().get(), path).ok());
  std::remove(path.c_str());
}

// Hostile bytes: seeded mutations of a valid segment, checksum
// restamped so the structural checks (not the checksum) face them. The
// loader either refuses with a structural error class, or serves bags
// whose every id is below its dictionary's size and whose every value
// the wire can carry. The accepted bags are read back through their
// borrowed dictionaries, so ASan/UBSan see every mapped byte used.
TEST(SegmentTest, MutatedSegmentsAreRefusedOrServedSafely) {
  Fixture f = MakeFixture();
  const std::string path = testing::TempDir() + "segment_mutated.seg";
  Rng rng(2024);
  size_t accepted = 0;
  size_t refused = 0;
  for (int round = 0; round < 1500; ++round) {
    std::string bytes = f.segment;
    const size_t mutations = 1 + rng.Below(3);
    for (size_t m = 0; m < mutations; ++m) {
      // Header fields past the checksum, the tables and the heap.
      const size_t at = 32 + rng.Below(bytes.size() - 32);
      switch (rng.Below(5)) {
        case 0:  // flip one bit
          bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.Below(8)));
          break;
        case 1:  // any byte
          bytes[at] = static_cast<char>(rng.Below(256));
          break;
        case 2:  // a byte the text framing cannot carry
          bytes[at] = " #\t\n"[rng.Below(4)];
          break;
        case 3:  // a small u32 (count, index, offset) at an aligned slot
          for (int i = 0; i < 4 && (at & ~size_t{3}) + i < bytes.size(); ++i) {
            bytes[(at & ~size_t{3}) + i] =
                static_cast<char>(i == 0 ? rng.Below(8) : 0);
          }
          break;
        default:  // copy one byte over another
          bytes[at] = bytes[32 + rng.Below(bytes.size() - 32)];
          break;
      }
    }
    Restamp(&bytes);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    AttributeCatalog catalog;
    Result<SegmentBags> loaded = LoadSegmentBags(path, &catalog);
    if (!loaded.ok()) {
      const StatusCode code = loaded.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kOutOfRange ||
                  code == StatusCode::kFailedPrecondition)
          << "round " << round << ": " << loaded.status().ToString();
      ++refused;
      continue;
    }
    ++accepted;
    for (AttrId a : loaded->attrs) {
      const ValueDictionary* dict = loaded->dicts.find_dict(a);
      ASSERT_NE(dict, nullptr) << "round " << round;
      for (size_t v = 0; v < dict->size(); ++v) {
        EXPECT_TRUE(WireValidateValue(dict->ExternalOf(static_cast<ValueId>(v))).ok())
            << "round " << round;
      }
    }
    for (const Bag& bag : loaded->bags) {
      for (size_t c = 0; c < bag.schema().arity(); ++c) {
        const ValueDictionary* dict = loaded->dicts.find_dict(bag.schema().at(c));
        ASSERT_NE(dict, nullptr) << "round " << round;
        for (size_t r = 0; r < bag.SupportSize(); ++r) {
          ASSERT_LT(bag.IdAt(r, c), dict->size()) << "round " << round;
        }
      }
      EXPECT_FALSE(WriteBag(bag, catalog, &loaded->dicts).empty());
    }
  }
  // Both outcomes must occur, or the mutations test nothing.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bagc
