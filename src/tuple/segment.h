// Sealed-bag segments: the mmap-able on-disk twin of the columnar
// (SoA) in-memory representation. A segment file carries a whole sealed
// collection — per-attribute dictionary externals plus each bag's
// column-major u32 id columns and u64 multiplicities — in a versioned,
// checksummed layout whose column blobs are aligned so a reader can
// serve them *in place*: SegmentReader::Map mmaps the file, validates
// every offset once, and hands out ColumnStore::Borrow views over the
// mapped spans with zero parse (no decimal scan, no interning, no row
// materialization). docs/SEGMENT.md documents the byte layout with an
// annotated hexdump.
//
// File layout (all integers little-endian):
//
//   header (64 bytes)
//     0   8   magic "BAGCSEG\n"
//     8   4   u32 version (2)
//     12  4   u32 header size (64)
//     16  8   u64 file size
//     24  8   u64 XXH64 checksum of bytes [64, file size)
//                 (util/checksum.h; version 1 used FNV-1a and is refused)
//     32  4   u32 attribute count
//     36  4   u32 bag count
//     40  8   u64 attribute table offset
//     48  8   u64 bag table offset
//     56  8   reserved (0)
//   attribute table: 32-byte entries
//     0   8   u64 name offset        4-byte-aligned UTF-8, no NUL
//     8   4   u32 name length
//     12  4   u32 value count
//     16  8   u64 value-offsets offset   (count+1) u32 prefix offsets,
//                                        4-byte-aligned, non-decreasing
//     24  8   u64 value-blob offset      concatenated externals; value i
//                                        is blob[offsets[i], offsets[i+1])
//                                        (ValueDictionary's own table shape,
//                                        so a loader borrows it in place)
//   bag table: 48-byte entries
//     0   8   u64 name offset
//     8   4   u32 name length
//     12  4   u32 arity
//     16  8   u64 column-attrs offset    arity × u32 attr-table indices,
//                                        4-byte-aligned, schema order
//     24  8   u64 columns offset         arity × rows × u32 ids,
//                                        column-major, 4-byte-aligned
//     32  8   u64 multiplicities offset  rows × u64, 8-byte-aligned
//     40  8   u64 row count
//   heap: names, offset arrays, blobs, columns, multiplicities
//
// Error classes mirror the wire mapping (server/protocol.h): a
// malformed structure (magic, version, checksum, misalignment,
// inconsistent counts) is InvalidArgument → E_PARSE; any offset or
// length pointing outside the file is OutOfRange → E_RANGE. The reader
// never dereferences an unvalidated offset, so a truncated or crafted
// file fails cleanly under ASan/UBSan (tests/segment_test.cc).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bag/bag.h"
#include "tuple/attribute.h"
#include "tuple/column_store.h"
#include "tuple/value_dictionary.h"
#include "util/result.h"

namespace bagc {

/// First 8 bytes of every segment file.
inline constexpr std::string_view kSegmentMagic = "BAGCSEG\n";

/// Format version written and accepted by this build.
inline constexpr uint32_t kSegmentVersion = 2;

/// Fixed header size (bytes); also the start of the checksummed region.
inline constexpr uint32_t kSegmentHeaderBytes = 64;

/// Serializes a sealed collection as a segment. Every attribute used by
/// a bag schema must have a dictionary in `dicts` covering every id the
/// bags carry (the segment ships dictionaries, so fully-interned
/// collections only — numerically built bags cannot round-trip).
/// `names[i]` names `bags[i]` and must be non-empty.
Result<std::string> EncodeSegment(const std::vector<std::string>& names,
                                  const std::vector<Bag>& bags,
                                  const AttributeCatalog& catalog,
                                  const DictionarySet& dicts);

/// EncodeSegment + durable atomic write to `path`: the temp file is
/// fsynced, renamed over `path`, and the directory entry synced.
Status WriteSegmentFile(const std::string& path,
                        const std::vector<std::string>& names,
                        const std::vector<Bag>& bags,
                        const AttributeCatalog& catalog,
                        const DictionarySet& dicts);

/// \brief A validated, zero-copy view of one segment file.
///
/// Map() mmaps the file (read-only, private) and owns the mapping;
/// Parse() borrows caller-owned bytes (tests, in-memory round trips).
/// All validation happens up front — accessors are unchecked and
/// borrow from the underlying bytes, so the reader must outlive every
/// string_view, value table, ColumnStore, and multiplicity pointer it
/// hands out.
/// Move-only; moving keeps borrowed pointers valid (they point into the
/// mapping, not the object).
class SegmentReader {
 public:
  static Result<SegmentReader> Map(const std::string& path);
  static Result<SegmentReader> Parse(std::string_view data);

  SegmentReader(SegmentReader&& other) noexcept;
  SegmentReader& operator=(SegmentReader&& other) noexcept;
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;
  ~SegmentReader();

  /// The header's XXH64 body checksum: the identity of the bytes this
  /// reader validated, which a WAL keyed to the segment must carry.
  uint64_t fingerprint() const { return fingerprint_; }

  size_t num_attrs() const { return attrs_.size(); }
  size_t num_bags() const { return bags_.size(); }

  std::string_view attr_name(size_t a) const { return attrs_[a].name; }
  size_t attr_value_count(size_t a) const { return attrs_[a].count; }
  /// The value table of attribute `a` in id order, borrowed from the
  /// bytes: attr_value_count(a)+1 u32 prefix offsets (validated 4-byte
  /// aligned, non-decreasing from 0) into attr_blob(a) — the exact
  /// arguments of ValueDictionary::Borrow.
  const uint32_t* attr_offsets(size_t a) const;
  std::string_view attr_blob(size_t a) const {
    return std::string_view(attrs_[a].blob, attrs_[a].blob_len);
  }

  std::string_view bag_name(size_t b) const { return bags_[b].name; }
  size_t bag_arity(size_t b) const { return bags_[b].arity; }
  size_t bag_rows(size_t b) const { return bags_[b].rows; }
  /// Attr-table index of bag b's column c (schema order).
  size_t bag_attr(size_t b, size_t c) const;

  /// Zero-copy column store over the mapped column-major ids of bag b.
  /// Borrows from the mapping — see the class ownership rules.
  ColumnStore Columns(size_t b) const;
  /// Row multiplicities of bag b (rows() entries, 8-byte-aligned).
  const uint64_t* Mults(size_t b) const;

 private:
  struct AttrMeta {
    std::string_view name;
    uint32_t count = 0;
    const char* offsets = nullptr;  // (count+1) × u32, validated aligned
    const char* blob = nullptr;
    uint64_t blob_len = 0;
  };
  struct BagMeta {
    std::string_view name;
    uint32_t arity = 0;
    uint64_t rows = 0;
    const char* attrs = nullptr;    // arity × u32, validated aligned
    const char* columns = nullptr;  // arity × rows × u32, validated aligned
    const char* mults = nullptr;    // rows × u64, validated aligned
  };

  SegmentReader() = default;
  Status Init(std::string_view data);
  void Unmap();

  const char* data_ = nullptr;
  size_t size_ = 0;
  void* mapping_ = nullptr;  // non-null: Map() owns an mmap to release
  uint64_t fingerprint_ = 0;
  std::vector<AttrMeta> attrs_;
  std::vector<BagMeta> bags_;
};

}  // namespace bagc
