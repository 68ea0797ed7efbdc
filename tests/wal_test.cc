// Fault-injection differential for the delta WAL (src/tuple/wal.h) and
// the registry's crash recovery. A randomized multi-bag commit history
// is journaled, then the log is damaged every way a crash or bit rot
// can damage it — truncated at EVERY byte offset, every bit of the
// tail record flipped, interior records corrupted — and the recovered
// state must follow the torn-vs-corrupt contract exactly: torn tails
// are dropped to the last intact record boundary (recovery then
// answers bit-identically to an oracle that committed that prefix),
// while a damaged committed generation with intact records after it is
// refused outright, never silently skipped. Runs under the ASan/UBSan
// matrix leg via the `differential` label.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bag/bag_io.h"
#include "server/collection_registry.h"
#include "server/session.h"
#include "tuple/segment.h"
#include "tuple/wal.h"
#include "util/checksum.h"

namespace bagc {
namespace {

// ---------------------------------------------------------------------------
// Raw-byte helpers: the test re-implements the framing primitives so a
// codec bug cannot hide by corrupting writer and checker identically.
// The checksum is the shared util/checksum.h XXH64, which util_test pins
// to the published test vectors.

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::string WalHeaderBytes() {
  std::string h(kWalMagic);
  AppendU32(&h, kWalVersion);
  AppendU32(&h, kWalHeaderBytes);
  return h;
}

// Frames an arbitrary payload with a CORRECT checksum — the road to
// checksum-valid grammar violations EncodeWalRecord refuses to emit.
std::string FrameRaw(const std::string& payload) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  AppendU64(&out, Xxh64(payload.data(), payload.size()));
  out += payload;
  return out;
}

// Deterministic splitmix64: the history must replay identically on
// every platform the differential matrix runs.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Random but self-consistent record history: strictly increasing
// generations, one shared fingerprint, 1-2 bag blocks of 1-3 rows.
std::vector<WalRecord> RandomHistory(size_t n, uint64_t seed) {
  uint64_t state = seed;
  std::vector<WalRecord> history;
  uint64_t generation = 0;
  for (size_t i = 0; i < n; ++i) {
    WalRecord record;
    generation += 1 + NextRand(&state) % 3;
    record.generation = generation;
    record.base_fingerprint = 0xfeedfacecafef00dull;
    size_t bags = 1 + NextRand(&state) % 2;
    for (size_t b = 0; b < bags; ++b) {
      WalBagBlock block;
      block.bag_index = static_cast<uint32_t>(NextRand(&state) % 4);
      block.arity = 1 + static_cast<uint32_t>(NextRand(&state) % 3);
      size_t rows = 1 + NextRand(&state) % 3;
      for (size_t r = 0; r < rows; ++r) {
        for (uint32_t a = 0; a < block.arity; ++a) {
          block.ids.push_back(static_cast<uint32_t>(NextRand(&state) % 64));
        }
        int64_t delta = 1 + static_cast<int64_t>(NextRand(&state) % 5);
        block.deltas.push_back((NextRand(&state) % 2) ? delta : -delta);
      }
      record.bags.push_back(std::move(block));
    }
    history.push_back(std::move(record));
  }
  return history;
}

// Encodes a history into a full file image and returns the byte offset
// of each record's END (so boundaries[k] is the valid_bytes of a log
// holding exactly k+1 records).
std::string EncodeImage(const std::vector<WalRecord>& history,
                        std::vector<size_t>* boundaries) {
  std::string image = WalHeaderBytes();
  for (const WalRecord& record : history) {
    Result<std::string> encoded = EncodeWalRecord(record);
    EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
    image += *encoded;
    if (boundaries != nullptr) boundaries->push_back(image.size());
  }
  return image;
}

void ExpectRecordsEqual(const std::vector<WalRecord>& got,
                        const std::vector<WalRecord>& want, size_t want_n) {
  ASSERT_EQ(got.size(), want_n);
  for (size_t i = 0; i < want_n; ++i) {
    EXPECT_EQ(got[i].generation, want[i].generation) << "record " << i;
    EXPECT_EQ(got[i].base_fingerprint, want[i].base_fingerprint);
    ASSERT_EQ(got[i].bags.size(), want[i].bags.size()) << "record " << i;
    for (size_t b = 0; b < want[i].bags.size(); ++b) {
      EXPECT_EQ(got[i].bags[b].bag_index, want[i].bags[b].bag_index);
      EXPECT_EQ(got[i].bags[b].arity, want[i].bags[b].arity);
      EXPECT_EQ(got[i].bags[b].ids, want[i].bags[b].ids);
      EXPECT_EQ(got[i].bags[b].deltas, want[i].bags[b].deltas);
    }
  }
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// Format-level fault injection.

TEST(WalFormatTest, EncodeParseRoundTripsRandomHistory) {
  std::vector<WalRecord> history = RandomHistory(8, 0x5eed0001);
  std::string image = EncodeImage(history, nullptr);
  Result<WalContents> parsed = ParseWal(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectRecordsEqual(parsed->records, history, history.size());
  EXPECT_EQ(parsed->valid_bytes, image.size());
  EXPECT_EQ(parsed->dropped_bytes, 0u);
}

TEST(WalFormatTest, EveryTruncationPointRecoversTheLongestIntactPrefix) {
  std::vector<WalRecord> history = RandomHistory(6, 0x5eed0002);
  std::vector<size_t> boundaries;
  std::string image = EncodeImage(history, &boundaries);

  for (size_t cut = 0; cut <= image.size(); ++cut) {
    Result<WalContents> parsed = ParseWal(std::string_view(image).substr(0, cut));
    ASSERT_TRUE(parsed.ok())
        << "cut at byte " << cut << ": " << parsed.status().ToString();
    // The survivors are exactly the records whose last byte fits.
    size_t want = 0;
    while (want < boundaries.size() && boundaries[want] <= cut) ++want;
    ExpectRecordsEqual(parsed->records, history, want);
    size_t want_valid = (cut < kWalHeaderBytes)
                            ? 0
                            : (want == 0 ? kWalHeaderBytes : boundaries[want - 1]);
    EXPECT_EQ(parsed->valid_bytes, want_valid) << "cut at byte " << cut;
    EXPECT_EQ(parsed->dropped_bytes, cut - want_valid) << "cut at byte " << cut;
  }
}

TEST(WalFormatTest, EveryTailRecordBitFlipDropsExactlyTheTornTail) {
  std::vector<WalRecord> history = RandomHistory(4, 0x5eed0003);
  std::vector<size_t> boundaries;
  std::string image = EncodeImage(history, &boundaries);
  size_t tail_start = boundaries[boundaries.size() - 2];

  for (size_t byte = tail_start; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = image;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      Result<WalContents> parsed = ParseWal(damaged);
      // Whatever the flip hit — length, checksum, payload — the tail
      // record is a torn append: dropped whole, never refused, and
      // never partially applied.
      ASSERT_TRUE(parsed.ok()) << "bit " << bit << " of byte " << byte << ": "
                               << parsed.status().ToString();
      ExpectRecordsEqual(parsed->records, history, history.size() - 1);
      EXPECT_EQ(parsed->valid_bytes, tail_start);
      EXPECT_EQ(parsed->dropped_bytes, image.size() - tail_start);
    }
  }
}

TEST(WalFormatTest, InteriorRecordCorruptionIsRefusedNotSkipped) {
  std::vector<WalRecord> history = RandomHistory(4, 0x5eed0004);
  std::vector<size_t> boundaries;
  std::string image = EncodeImage(history, &boundaries);
  // Second record's frame: [len u32][checksum u64][payload]. EVERY
  // byte of a non-tail record is covered, the length field included:
  // a flipped length misaligns any single probe at the record's
  // claimed end (and can even claim past EOF), but the successor scan
  // still finds the intact records after the damage and must refuse —
  // committed generations are never silently reclassified as tail
  // debris.
  size_t start = boundaries[0];
  size_t payload_start = start + kWalRecordFrameBytes;
  for (size_t byte = start; byte < boundaries[1]; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = image;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      Result<WalContents> parsed = ParseWal(damaged);
      ASSERT_FALSE(parsed.ok())
          << "flip in "
          << (byte < start + 4 ? "length"
                               : byte < payload_start ? "checksum" : "payload")
          << " byte " << byte << " bit " << bit << " was swallowed";
    }
  }
}

TEST(WalFormatTest, ChecksumValidGrammarViolationsAreRefused) {
  const uint64_t fp = 0xfeedfacecafef00dull;
  auto payload_prefix = [&](uint64_t generation, uint32_t bag_count) {
    std::string p;
    AppendU64(&p, generation);
    AppendU64(&p, fp);
    AppendU32(&p, bag_count);
    return p;
  };
  auto one_row_block = [&](std::string* p) {
    AppendU32(p, 0);  // bag index
    AppendU32(p, 1);  // arity
    AppendU32(p, 1);  // rows
    AppendU32(p, 7);  // id
    AppendU64(p, 1);  // delta +1
  };
  std::string good = payload_prefix(1, 1);
  one_row_block(&good);

  struct Case {
    const char* what;
    std::string image;
  };
  std::vector<Case> cases;
  {  // zero bag blocks
    cases.push_back({"zero bags", WalHeaderBytes() + FrameRaw(payload_prefix(1, 0))});
  }
  {  // a block claiming zero rows
    std::string p = payload_prefix(1, 1);
    AppendU32(&p, 0);
    AppendU32(&p, 1);
    AppendU32(&p, 0);
    cases.push_back({"zero rows", WalHeaderBytes() + FrameRaw(p)});
  }
  {  // a block claiming arity zero
    std::string p = payload_prefix(1, 1);
    AppendU32(&p, 0);
    AppendU32(&p, 0);
    AppendU32(&p, 1);
    cases.push_back({"arity zero", WalHeaderBytes() + FrameRaw(p)});
  }
  {  // trailing garbage after the last block
    std::string p = good;
    p += "\x01";
    cases.push_back({"trailing bytes", WalHeaderBytes() + FrameRaw(p)});
  }
  {  // payload shorter than its own fixed header
    cases.push_back({"short payload", WalHeaderBytes() + FrameRaw("tiny")});
  }
  {  // generation does not increase
    std::string repeat = payload_prefix(1, 1);
    one_row_block(&repeat);
    cases.push_back({"stuck generation",
                     WalHeaderBytes() + FrameRaw(good) + FrameRaw(repeat)});
  }
  {  // second record swaps fingerprints mid-log
    std::string other;
    AppendU64(&other, 2);
    AppendU64(&other, fp + 1);
    AppendU32(&other, 1);
    one_row_block(&other);
    cases.push_back({"fingerprint swap",
                     WalHeaderBytes() + FrameRaw(good) + FrameRaw(other)});
  }
  for (const Case& c : cases) {
    Result<WalContents> parsed = ParseWal(c.image);
    EXPECT_FALSE(parsed.ok()) << c.what << " was accepted";
  }
  // Control: the good record alone parses.
  Result<WalContents> control = ParseWal(WalHeaderBytes() + FrameRaw(good));
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  EXPECT_EQ(control->records.size(), 1u);
}

TEST(WalFormatTest, ForeignAndVersionedHeadersAreRefused) {
  std::string foreign = "NOTAWAL\n";
  foreign.resize(32, '\0');
  EXPECT_FALSE(ParseWal(foreign).ok());
  std::string wrong_version(kWalMagic);
  AppendU32(&wrong_version, kWalVersion + 1);
  AppendU32(&wrong_version, kWalHeaderBytes);
  EXPECT_FALSE(ParseWal(wrong_version).ok());
  // An empty image and a bare header are both valid empty logs (a
  // crash can land between create, header write, and first append).
  EXPECT_TRUE(ParseWal("").ok());
  EXPECT_TRUE(ParseWal(WalHeaderBytes()).ok());
}

TEST(WalWriterTest, OpenTruncatesTornTailAtomicallyAndResumesAppending) {
  std::vector<WalRecord> history = RandomHistory(3, 0x5eed0005);
  std::vector<size_t> boundaries;
  std::string image = EncodeImage(history, &boundaries);
  // Tear the final record: keep its frame but cut the payload short.
  std::string torn = image.substr(0, boundaries[1] + kWalRecordFrameBytes + 3);
  std::string path = testing::TempDir() + "wal_writer_torn.wal";
  WriteFileBytes(path, torn);

  Result<WalWriter> writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_EQ(writer->records(), 2u);
  EXPECT_EQ(writer->last_generation(), history[1].generation);
  EXPECT_EQ(writer->base_fingerprint(), history[1].base_fingerprint);
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(static_cast<size_t>(st.st_size), boundaries[1])
      << "torn tail must be truncated off before the next append";

  // The writer resumes exactly where the intact log ended.
  ASSERT_TRUE(writer->Append(history[2]).ok());
  EXPECT_EQ(writer->records(), 3u);
  Result<WalContents> reread = ReadWalFile(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ExpectRecordsEqual(reread->records, history, 3);
  EXPECT_EQ(reread->dropped_bytes, 0u);

  // Re-appending a generation that does not advance is refused.
  EXPECT_FALSE(writer->Append(history[2]).ok());
}

TEST(WalWriterTest, OpenRefusesMidFileCorruption) {
  std::vector<WalRecord> history = RandomHistory(3, 0x5eed0006);
  std::vector<size_t> boundaries;
  std::string image = EncodeImage(history, &boundaries);
  image[boundaries[0] + kWalRecordFrameBytes] ^= 0x40;  // first record payload
  std::string path = testing::TempDir() + "wal_writer_corrupt.wal";
  WriteFileBytes(path, image);
  EXPECT_FALSE(WalWriter::Open(path).ok());
}

TEST(WalFormatTest, EncoderRefusesEmptyBatchesAndBlocks) {
  WalRecord empty;
  empty.generation = 1;
  EXPECT_FALSE(EncodeWalRecord(empty).ok());
  WalRecord hollow;
  hollow.generation = 1;
  hollow.bags.emplace_back();
  hollow.bags.back().arity = 1;
  EXPECT_FALSE(EncodeWalRecord(hollow).ok());
}

// Rewrites the checksum of every record the (possibly damaged) length
// fields still frame, so a mutation reaches the payload grammar instead
// of stopping at the checksum. A length that overruns the image ends
// the walk: that record is a torn tail however it is stamped.
void RestampRecords(std::string* image) {
  size_t at = kWalHeaderBytes;
  while (at + kWalRecordFrameBytes <= image->size()) {
    uint32_t len = 0;
    for (int i = 3; i >= 0; --i) len = (len << 8) | static_cast<uint8_t>((*image)[at + i]);
    const size_t payload = at + kWalRecordFrameBytes;
    if (len > image->size() - payload) return;
    std::string sum;
    AppendU64(&sum, Xxh64(image->data() + payload, len));
    image->replace(at + 4, 8, sum);
    at = payload + len;
  }
}

// The WAL target of the seeded mutation fuzzer: hostile bytes in a log
// that passed its checksums must come back as a Status, never a crash,
// and any log the parser accepts must re-encode to a log with the same
// contents (nothing is decoded that the encoder would write otherwise).
TEST(WalFormatTest, MutatedLogsAreRefusedOrReplayedSafely) {
  const std::string image = EncodeImage(RandomHistory(6, 0x5eed0009), nullptr);
  uint64_t state = 0x5eed000a;
  auto below = [&state](size_t n) { return static_cast<size_t>(NextRand(&state) % n); };
  size_t accepted = 0;
  size_t refused = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string bytes = image;
    const size_t mutations = 1 + below(3);
    for (size_t m = 0; m < mutations; ++m) {
      // Records only: header damage is ForeignAndVersionedHeadersAreRefused's.
      const size_t at = kWalHeaderBytes + below(bytes.size() - kWalHeaderBytes);
      switch (below(6)) {
        case 0:  // flip one bit
          bytes[at] = static_cast<char>(bytes[at] ^ (1u << below(8)));
          break;
        case 1:  // any byte
          bytes[at] = static_cast<char>(below(256));
          break;
        case 2:  // a small u32 (length, count, index, arity) at an aligned slot
          for (size_t i = 0; i < 4 && (at & ~size_t{3}) + i < bytes.size(); ++i) {
            bytes[(at & ~size_t{3}) + i] = static_cast<char>(i == 0 ? below(8) : 0);
          }
          break;
        case 3:  // an extreme u32 (huge length, count or id)
          for (size_t i = 0; i < 4 && (at & ~size_t{3}) + i < bytes.size(); ++i) {
            bytes[(at & ~size_t{3}) + i] = static_cast<char>(i == 3 ? 0x80 | below(128) : 0xff);
          }
          break;
        case 4:  // copy one byte over another
          bytes[at] = bytes[kWalHeaderBytes + below(bytes.size() - kWalHeaderBytes)];
          break;
        default:  // cut the log short
          bytes.resize(at);
          break;
      }
      if (bytes.size() <= kWalHeaderBytes) break;
    }
    RestampRecords(&bytes);
    Result<WalContents> parsed = ParseWal(bytes);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "round " << round << ": " << parsed.status().ToString();
      ++refused;
      continue;
    }
    ++accepted;
    EXPECT_EQ(parsed->valid_bytes + parsed->dropped_bytes, bytes.size()) << "round " << round;
    std::string reencoded = WalHeaderBytes();
    for (const WalRecord& record : parsed->records) {
      Result<std::string> encoded = EncodeWalRecord(record);
      ASSERT_TRUE(encoded.ok()) << "round " << round << ": " << encoded.status().ToString();
      reencoded += *encoded;
    }
    Result<WalContents> again = ParseWal(reencoded);
    ASSERT_TRUE(again.ok()) << "round " << round << ": " << again.status().ToString();
    ExpectRecordsEqual(again->records, parsed->records, parsed->records.size());
    EXPECT_EQ(again->dropped_bytes, 0u) << "round " << round;
  }
  // Both outcomes must occur, or the mutations test nothing.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

// ---------------------------------------------------------------------------
// Registry-level crash recovery: a randomized BEGIN/COMMIT history on a
// segment-backed collection, replayed from the WAL into fresh
// registries under every record-boundary truncation and under tail /
// interior damage. The oracle is the uninterrupted registry itself:
// after recovering k generations, every query answer must match the
// bytes the live server produced right after commit k.

constexpr const char* kQueryScript =
    "TWOBAG 0 1\nPAIRWISE\nGLOBAL\nKWISE 2\nWITNESS 0 1 MINIMAL\n";

std::string WriteBaseSegment(const std::string& filename, size_t salt) {
  AttributeCatalog catalog;
  DictionarySet dicts;
  std::string text;
  text += "bag item store\n";
  text += "apple downtown : " + std::to_string(2 + salt) + "\n";
  text += "banana uptown : 1\ncherry uptown : 2\nend\n";
  text += "bag store region\n";
  text += "downtown north : 2\nuptown north : 3\nend\n";
  Result<std::vector<Bag>> bags = ParseCollection(text, &catalog, &dicts);
  EXPECT_TRUE(bags.ok()) << bags.status().ToString();
  std::string path = testing::TempDir() + filename;
  EXPECT_TRUE(
      WriteSegmentFile(path, {"left", "right"}, *bags, catalog, dicts).ok());
  return path;
}

std::string MakeWalDir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

// The one WAL file a single-collection run produced.
std::string FindWalFile(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  EXPECT_NE(d, nullptr) << dir;
  std::string found;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".wal") {
      EXPECT_TRUE(found.empty()) << "more than one WAL file in " << dir;
      found = name;
    }
  }
  ::closedir(d);
  EXPECT_FALSE(found.empty()) << "no WAL file in " << dir;
  return found;
}

// Record-end offsets of a WAL image, walked straight off the framing.
std::vector<size_t> WalBoundaries(const std::string& image) {
  std::vector<size_t> boundaries;
  size_t off = kWalHeaderBytes;
  while (off + kWalRecordFrameBytes <= image.size()) {
    uint32_t len = 0;
    std::memcpy(&len, image.data() + off, 4);  // test runs little-endian hosts
    off += kWalRecordFrameBytes + len;
    EXPECT_LE(off, image.size());
    boundaries.push_back(off);
  }
  return boundaries;
}

// Recovers `wal_image` over `seg_path` in a fresh registry through
// CollectionRegistry::Restore, the call bagcd --preload-seg --wal-dir
// makes at startup. Returns the replayed generation count, or an error
// when recovery must refuse.
Result<uint64_t> RecoverInto(CollectionRegistry* registry,
                             const std::string& wal_dir,
                             const std::string& wal_name,
                             const std::string& wal_image,
                             const std::string& seg_path) {
  WriteFileBytes(wal_dir + "/" + wal_name, wal_image);
  return registry->Restore(registry->Default().get(), seg_path);
}

TEST(WalRecoveryTest, RandomizedHistoryRecoversBitIdenticalAtEveryTruncation) {
  constexpr size_t kCommits = 10;
  std::string seg_path = WriteBaseSegment("wal_recovery_base.seg", 0);
  std::string wal_dir = MakeWalDir("wal_recovery_live");

  CollectionRegistry::Options opts;
  opts.wal_dir = wal_dir;
  CollectionRegistry live(opts);
  ServerSession writer(&live, nullptr);
  {
    std::vector<std::string> sealed =
        writer.HandleScript("LOADSEG " + seg_path + "\nSEAL\n");
    ASSERT_EQ(sealed.back().rfind("OK SEAL 2 bags", 0), 0u) << sealed.back();
  }

  // Shadow multiplicities keep the random deletes legal; ids follow the
  // segment's interning order (item: apple 0, banana 1, cherry 2;
  // store: downtown 0, uptown 1; region: north 0).
  std::map<std::pair<uint32_t, uint32_t>, int64_t> shadow[2];
  shadow[0] = {{{0, 0}, 2}, {{1, 1}, 1}, {{2, 1}, 2}};
  shadow[1] = {{{0, 0}, 2}, {{1, 0}, 3}};
  const char* bag_name[2] = {"left", "right"};
  const char* bag_attrs[2] = {"item store", "store region"};
  const uint32_t id_limit[2][2] = {{3, 2}, {2, 1}};

  // oracle[k] = query answers after k committed generations.
  std::vector<std::vector<std::string>> oracle;
  oracle.push_back(writer.HandleScript(kQueryScript));
  uint64_t state = 0x5eed0007;
  for (size_t commit = 0; commit < kCommits; ++commit) {
    std::string script = "BEGIN\n";
    size_t blocks = 1 + NextRand(&state) % 2;
    for (size_t blk = 0; blk < blocks; ++blk) {
      // One block per bag in two-block commits, so a commit can never
      // net to zero rows (which would correctly skip the WAL append
      // and desynchronize this test's per-commit record accounting).
      size_t bag = (blocks == 2) ? blk : NextRand(&state) % 2;
      std::pair<uint32_t, uint32_t> row = {
          static_cast<uint32_t>(NextRand(&state) % id_limit[bag][0]),
          static_cast<uint32_t>(NextRand(&state) % id_limit[bag][1])};
      bool erase = (NextRand(&state) % 3 == 0) && shadow[bag][row] > 0;
      int64_t count = erase ? 1 : 1 + static_cast<int64_t>(NextRand(&state) % 3);
      shadow[bag][row] += erase ? -count : count;
      script += std::string(erase ? "DELETE " : "INSERT ") + bag_name[bag] +
                " " + bag_attrs[bag] + "\n" + std::to_string(row.first) + " " +
                std::to_string(row.second) + " : " + std::to_string(count) +
                "\nEND\n";
    }
    script += "COMMIT\n";
    std::vector<std::string> responses = writer.HandleScript(script);
    ASSERT_EQ(responses.back().rfind("OK COMMIT", 0), 0u)
        << "commit " << commit << ": " << responses.back();
    ASSERT_NE(responses.back().find(" bags"), std::string::npos)
        << "commit " << commit
        << " was staged, not published — no WAL record: " << responses.back();
    oracle.push_back(writer.HandleScript(kQueryScript));
  }
  ASSERT_EQ(live.wal_records_total(), kCommits);
  EXPECT_GT(live.wal_bytes_total(), 0u);

  std::string wal_name = FindWalFile(wal_dir);
  std::string image = ReadFileBytes(wal_dir + "/" + wal_name);
  std::vector<size_t> boundaries = WalBoundaries(image);
  ASSERT_EQ(boundaries.size(), kCommits);

  // Every record-boundary truncation: recovery lands on exactly the
  // first k generations and answers with the oracle's bytes.
  for (size_t k = 0; k <= kCommits; ++k) {
    std::string dir = MakeWalDir("wal_recovery_cut" + std::to_string(k));
    CollectionRegistry::Options ropts;
    ropts.wal_dir = dir;
    CollectionRegistry recovered(ropts);
    size_t cut = (k == 0) ? kWalHeaderBytes : boundaries[k - 1];
    Result<uint64_t> replayed = RecoverInto(&recovered, dir, wal_name,
                                            image.substr(0, cut), seg_path);
    ASSERT_TRUE(replayed.ok()) << "cut " << k << ": "
                               << replayed.status().ToString();
    EXPECT_EQ(*replayed, k);
    EXPECT_EQ(recovered.replayed_generations_total(), k);
    ServerSession prober(&recovered, nullptr);
    EXPECT_EQ(prober.HandleScript(kQueryScript), oracle[k]) << "cut " << k;
  }

  // A torn tail (bit flip inside the final record) drops exactly that
  // one commit; everything before it still recovers bit-identically.
  {
    std::string torn = image;
    torn[boundaries[kCommits - 2] + kWalRecordFrameBytes + 9] ^= 0x10;
    std::string dir = MakeWalDir("wal_recovery_torn");
    CollectionRegistry::Options ropts;
    ropts.wal_dir = dir;
    CollectionRegistry recovered(ropts);
    Result<uint64_t> replayed =
        RecoverInto(&recovered, dir, wal_name, torn, seg_path);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_EQ(*replayed, kCommits - 1);
    ServerSession prober(&recovered, nullptr);
    EXPECT_EQ(prober.HandleScript(kQueryScript), oracle[kCommits - 1]);
  }

  // Interior damage is NOT a torn tail: recovery must refuse the log
  // rather than silently skip a committed generation.
  {
    std::string damaged = image;
    damaged[boundaries[0] + kWalRecordFrameBytes + 9] ^= 0x10;
    std::string dir = MakeWalDir("wal_recovery_midfile");
    CollectionRegistry::Options ropts;
    ropts.wal_dir = dir;
    CollectionRegistry recovered(ropts);
    Result<uint64_t> replayed =
        RecoverInto(&recovered, dir, wal_name, damaged, seg_path);
    EXPECT_FALSE(replayed.ok());
  }

  // A WAL written against a DIFFERENT base segment must refuse to
  // replay — folding deltas over the wrong base silently corrupts.
  {
    std::string other_seg = WriteBaseSegment("wal_recovery_other.seg", 5);
    std::string dir = MakeWalDir("wal_recovery_wrongbase");
    CollectionRegistry::Options ropts;
    ropts.wal_dir = dir;
    CollectionRegistry recovered(ropts);
    Result<uint64_t> replayed =
        RecoverInto(&recovered, dir, wal_name, image, other_seg);
    ASSERT_FALSE(replayed.ok());
    EXPECT_NE(replayed.status().message().find("different base segment"),
              std::string::npos)
        << replayed.status().ToString();
  }
}

TEST(WalRecoveryTest, PoisonedWalRefusesDeltasUntilANewEpoch) {
  std::string seg_path = WriteBaseSegment("wal_poison_base.seg", 0);
  std::string wal_dir = MakeWalDir("wal_poison");
  CollectionRegistry::Options opts;
  opts.wal_dir = wal_dir;
  CollectionRegistry registry(opts);
  ServerSession session(&registry, nullptr);
  {
    std::vector<std::string> sealed =
        session.HandleScript("LOADSEG " + seg_path + "\nSEAL\n");
    ASSERT_EQ(sealed.back().rfind("OK SEAL", 0), 0u) << sealed.back();
  }
  const std::string insert = "INSERT left item store\n0 0 : 1\nEND\n";
  {
    std::vector<std::string> r = session.HandleScript(insert);
    ASSERT_EQ(r.back().rfind("OK INSERT", 0), 0u) << r.back();
  }
  EXPECT_EQ(registry.wal_records_total(), 1u);

  // An append failure for a published generation leaves the log missing
  // acked state: every further delta commit must refuse (pointing at
  // SEAL) instead of appending over the gap and acking durability.
  registry.PoisonWalForTest(registry.Default().get());
  {
    std::vector<std::string> r = session.HandleScript(insert);
    ASSERT_EQ(r.back().rfind("ERR", 0), 0u) << r.back();
    EXPECT_NE(r.back().find("SEAL to start a new epoch"), std::string::npos)
        << r.back();
  }
  EXPECT_EQ(registry.wal_records_total(), 1u)
      << "no record may land in a poisoned log";

  // A full SEAL starts a new epoch: the poisoned log is dropped and
  // delta commits work again. (This seal has no segment source — the
  // earlier publish diverged from it — so the new epoch simply has no
  // WAL rather than a fresh one.)
  {
    std::vector<std::string> sealed = session.HandleScript("SEAL\n");
    ASSERT_EQ(sealed.back().rfind("OK SEAL", 0), 0u) << sealed.back();
    std::vector<std::string> r = session.HandleScript(insert);
    ASSERT_EQ(r.back().rfind("OK INSERT", 0), 0u) << r.back();
  }
  EXPECT_EQ(registry.wal_records_total(), 0u)
      << "the poisoned epoch's log must not survive the re-seal";
}

// The value of `key` in the STATS reply for `what` ("" = global keys,
// else a collection name).
uint64_t StatValue(ServerSession* session, const std::string& what,
                   const std::string& key) {
  std::string verb = what.empty() ? "STATS\n" : "STATS " + what + "\n";
  for (const std::string& line : session->HandleScript(verb)) {
    if (line.rfind(key + " ", 0) == 0) return std::stoull(line.substr(key.size() + 1));
  }
  ADD_FAILURE() << "STATS " << what << " carried no " << key << " key";
  return 0;
}

// A restore counts as the one startup seal, not as a reload: STATS reads
// seals 1, reloads 0, N replayed generations, and the folded
// generations are numbered past the logged ones (logged 2..4, folded
// 5..7).
TEST(WalRecoveryTest, RestoreStatsMatchTheStartupSeal) {
  std::string seg_path = WriteBaseSegment("wal_restore_stats.seg", 0);
  CollectionRegistry::Options opts;
  opts.wal_dir = MakeWalDir("wal_restore_stats");
  {
    CollectionRegistry live(opts);
    ServerSession writer(&live, nullptr);
    std::string script = "LOADSEG " + seg_path + "\nSEAL\n";
    for (int i = 0; i < 3; ++i) script += "INSERT left item store\n0 0 : 1\nEND\n";
    std::vector<std::string> r = writer.HandleScript(script);
    ASSERT_EQ(r.back().rfind("OK INSERT left 1 rows 2 bags", 0), 0u) << r.back();
    ASSERT_EQ(live.wal_records_total(), 3u);
  }
  CollectionRegistry restored(opts);
  Result<uint64_t> replayed = restored.Restore(restored.Default().get(), seg_path);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, 3u);
  ServerSession prober(&restored, nullptr);
  EXPECT_EQ(StatValue(&prober, "", "seals"), 1u);
  EXPECT_EQ(StatValue(&prober, "", "replayed_generations"), 3u);
  EXPECT_EQ(StatValue(&prober, "", "snapshot"), 7u);
  EXPECT_EQ(StatValue(&prober, "default", "reloads"), 0u);
  EXPECT_EQ(StatValue(&prober, "default", "reloadable"), 1u);
}

// The WAL replays "base plus every logged delta", so the served
// generation must be exactly that. Two sessions seal the same segment
// and B commits: A's delta was built on A's generation, which B's
// replaced, so A's commit stages. Publishing it over B's would serve
// base + A while a restart replays base + B + A.
TEST(WalRecoveryTest, InterleavedSessionsRestoreTheLiveAnswer) {
  std::string seg_path = WriteBaseSegment("wal_two_sessions.seg", 0);
  CollectionRegistry::Options opts;
  opts.wal_dir = MakeWalDir("wal_two_sessions");
  const std::string seal = "LOADSEG " + seg_path + "\nSEAL\n";
  std::vector<std::string> live_answer;
  {
    CollectionRegistry live(opts);
    ServerSession a(&live, nullptr);
    ServerSession b(&live, nullptr);
    ASSERT_EQ(a.HandleScript(seal).back(), "OK SEAL 2 bags");
    ASSERT_EQ(b.HandleScript(seal).back(), "OK SEAL 2 bags");
    ASSERT_EQ(b.HandleScript("BEGIN\nINSERT left item store\n0 0 : 1\nEND\n"
                             "INSERT right store region\n0 0 : 1\nEND\nCOMMIT\n")
                  .back(),
              "OK COMMIT 2 rows 2 bags");
    EXPECT_EQ(a.HandleScript("BEGIN\nINSERT left item store\n1 1 : 1\nEND\n"
                             "INSERT right store region\n1 0 : 1\nEND\nCOMMIT\n")
                  .back(),
              "OK COMMIT 2 rows staged");
    EXPECT_EQ(live.wal_records_total(), 1u);
    ServerSession prober(&live, nullptr);
    live_answer = prober.HandleScript("WITNESS 0 1\n");
  }
  CollectionRegistry restored(opts);
  Result<uint64_t> replayed = restored.Restore(restored.Default().get(), seg_path);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ServerSession prober(&restored, nullptr);
  EXPECT_EQ(prober.HandleScript("WITNESS 0 1\n"), live_answer);
}

// The base rule at the registry: a delta built on a generation that is
// no longer the head is refused, with nothing published and no record
// logged.
TEST(WalRecoveryTest, DeltaOnAReplacedBaseIsRefusedAndNotLogged) {
  std::string seg_path = WriteBaseSegment("wal_stale_base.seg", 0);
  CollectionRegistry::Options opts;
  opts.wal_dir = MakeWalDir("wal_stale_base");
  CollectionRegistry registry(opts);
  CollectionRegistry::Collection* c = registry.Default().get();
  ServerSession session(&registry, nullptr);
  ASSERT_EQ(session.HandleScript("LOADSEG " + seg_path + "\nSEAL\n").back(),
            "OK SEAL 2 bags");
  std::shared_ptr<const EngineSnapshot> base = registry.Peek(c);
  DeltaBatch batch(1);
  batch[0].deltas.push_back({Tuple::OfIds({0, 0}), 1});
  Result<std::shared_ptr<const EngineSnapshot>> first =
      EngineSnapshot::BuildDeltaBatch(base, batch, c->NextSeq());
  Result<std::shared_ptr<const EngineSnapshot>> second =
      EngineSnapshot::BuildDeltaBatch(base, batch, c->NextSeq());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(registry.PublishDelta(c, *first, batch).ok());
  ASSERT_EQ(registry.wal_records_total(), 1u);

  Status refused = registry.PublishDelta(c, *second, batch);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused.ToString();
  EXPECT_EQ(registry.Peek(c).get(), first->get());
  EXPECT_EQ(registry.wal_records_total(), 1u);
}

// The WAL is keyed to the segment the served bags were mapped from, not
// to whatever the path names at SEAL. Here the file is replaced (same
// dictionaries, other rows) between LOADSEG and SEAL: a restart over the
// path must refuse the log rather than replay the commit onto the new
// file's rows and answer differently from the live session.
TEST(WalRecoveryTest, SegmentReplacedBeforeSealIsNeverReplayedOnto) {
  std::string seg_path = WriteBaseSegment("wal_replaced.seg", 0);
  CollectionRegistry::Options opts;
  opts.wal_dir = MakeWalDir("wal_replaced");
  std::vector<std::string> live_answer;
  {
    CollectionRegistry live(opts);
    ServerSession writer(&live, nullptr);
    ASSERT_EQ(writer.HandleScript("LOADSEG " + seg_path + "\n").back(),
              "OK LOADSEG 2 bags 5 rows");
    ASSERT_EQ(WriteBaseSegment("wal_replaced.seg", 5), seg_path);
    // The commit balances the mapped base (store downtown 3 on both
    // sides); over the replacement it would not.
    ASSERT_EQ(writer
                  .HandleScript("SEAL\nBEGIN\nINSERT left item store\n0 0 : 1\nEND\n"
                                "INSERT right store region\n0 0 : 1\nEND\nCOMMIT\n")
                  .back(),
              "OK COMMIT 2 rows 2 bags");
    ASSERT_EQ(live.wal_records_total(), 1u);
    live_answer = writer.HandleScript(kQueryScript);
    ASSERT_EQ(live_answer.front(), "OK CONSISTENT");
  }
  CollectionRegistry restored(opts);
  Result<uint64_t> replayed = restored.Restore(restored.Default().get(), seg_path);
  if (replayed.ok()) {
    ServerSession prober(&restored, nullptr);
    EXPECT_EQ(prober.HandleScript(kQueryScript), live_answer)
        << "replayed the commit onto the replacement segment";
  } else {
    EXPECT_EQ(replayed.status().code(), StatusCode::kFailedPrecondition)
        << replayed.status().ToString();
  }
}

// A session whose catalog already held a segment attribute name seals a
// different slot layout than the fresh-catalog restore rebuilds. Such a
// collection must not journal against the segment: a restart serves the
// bare base, never the committed rows with their columns permuted onto
// ids no dictionary issued.
TEST(WalRecoveryTest, PreInternedAttributesNeverReplayPermutedRows) {
  std::string seg_path = WriteBaseSegment("wal_layout_base.seg", 0);
  CollectionRegistry::Options opts;
  opts.wal_dir = MakeWalDir("wal_layout");
  std::vector<std::string> base;
  {
    CollectionRegistry fresh;
    ServerSession oracle(&fresh, nullptr);
    ASSERT_EQ(oracle.HandleScript("LOADSEG " + seg_path + "\nSEAL\n").back(),
              "OK SEAL 2 bags");
    base = oracle.HandleScript(kQueryScript);
  }
  {
    CollectionRegistry live(opts);
    ServerSession writer(&live, nullptr);
    std::vector<std::string> r = writer.HandleScript(
        "LOAD tmp region store\nEND\nDROP tmp\nLOADSEG " + seg_path +
        "\nSEAL\nBEGIN\nINSERT left item store\n0 1 : 1\nEND\n"
        "INSERT right store region\n1 0 : 1\nEND\nCOMMIT\n");
    ASSERT_EQ(r.back(), "OK COMMIT 2 rows 2 bags");
    EXPECT_EQ(StatValue(&writer, "default", "reloadable"), 0u);
    EXPECT_EQ(live.wal_records_total(), 0u);
  }
  CollectionRegistry restarted(opts);
  Result<uint64_t> replayed =
      restarted.Restore(restarted.Default().get(), seg_path);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, 0u);
  ServerSession prober(&restarted, nullptr);
  EXPECT_EQ(prober.HandleScript(kQueryScript), base);
}

// A CRC-valid record with the right base fingerprint can still carry an
// id no dictionary issued; replay must refuse it, naming the generation.
TEST(WalRecoveryTest, ReplayRefusesValueIdsNeverIssued) {
  std::string seg_path = WriteBaseSegment("wal_badid_base.seg", 0);
  std::string wal_dir = MakeWalDir("wal_badid");
  Result<uint64_t> fingerprint = SegmentFingerprint(seg_path);
  ASSERT_TRUE(fingerprint.ok()) << fingerprint.status().ToString();
  std::string wal_path = wal_dir + "/default.wal";
  std::remove(wal_path.c_str());
  {
    Result<WalWriter> writer = WalWriter::Open(wal_path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalRecord record;
    record.generation = 2;
    record.base_fingerprint = *fingerprint;
    WalBagBlock block;
    block.bag_index = 0;  // left: item (3 values), store (2 values)
    block.arity = 2;
    block.ids = {0, 7};   // store id 7 was never issued
    block.deltas = {1};
    record.bags.push_back(block);
    ASSERT_TRUE(writer->Append(record).ok());
  }
  CollectionRegistry::Options opts;
  opts.wal_dir = wal_dir;
  CollectionRegistry registry(opts);
  Result<uint64_t> replayed = registry.Restore(registry.Default().get(), seg_path);
  ASSERT_FALSE(replayed.ok()) << "replayed a never-issued id";
  EXPECT_NE(replayed.status().message().find("WAL generation 2"), std::string::npos)
      << replayed.status().ToString();
  EXPECT_NE(replayed.status().message().find("value id 7"), std::string::npos)
      << replayed.status().ToString();
}

TEST(WalRecoveryTest, SegmentFingerprintIdentifiesTheBase) {
  std::string a = WriteBaseSegment("wal_fp_a.seg", 0);
  std::string b = WriteBaseSegment("wal_fp_b.seg", 7);
  Result<uint64_t> fa = SegmentFingerprint(a);
  Result<uint64_t> fb = SegmentFingerprint(b);
  ASSERT_TRUE(fa.ok() && fb.ok());
  EXPECT_NE(*fa, 0u);
  EXPECT_NE(*fa, *fb) << "different contents must fingerprint differently";
  Result<uint64_t> again = SegmentFingerprint(a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*fa, *again);
}

}  // namespace
}  // namespace bagc
