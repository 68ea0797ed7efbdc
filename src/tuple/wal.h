// Delta write-ahead log: the durable twin of the in-memory delta
// commit path. A WAL file records the committed delta generations of
// one collection on top of one sealed base segment; a daemon restart
// (or a registry lazy reload) replays the log over --preload-seg and
// recovers the exact published state, so live mutating tenants no
// longer rewind to the sealed base. docs/WAL.md documents the byte
// layout with an annotated hexdump.
//
// File layout (all integers little-endian):
//
//   header (16 bytes)
//     0   8   magic "BAGCWAL\n"
//     8   4   u32 version (2)
//     12  4   u32 header size (16)
//   records, back to back, each:
//     0   4   u32 payload length
//     4   8   u64 XXH64 checksum of the payload bytes (util/checksum.h;
//             version 1 used FNV-1a and is refused)
//     12  .   payload:
//               0   8   u64 generation id (strictly increasing)
//               8   8   u64 base-segment fingerprint (the BAGCSEG
//                       header checksum of the sealed base — see
//                       SegmentFingerprint)
//               16  4   u32 bag block count (>= 1)
//               per bag block:
//                 0   4   u32 bag index (position in the collection)
//                 4   4   u32 arity
//                 8   4   u32 row count (>= 1)
//                 per row: arity × u32 value ids, then i64 delta
//                          (two's complement u64 on the wire)
//
// Torn-vs-corrupt policy (the crash-recovery contract, pinned by
// tests/wal_test.cc under ASan/UBSan):
//   - A record that fails validation (checksum mismatch, or a length
//     field overrunning the end of the file) with NO checksum-valid
//     record anywhere after it is a torn tail from a crashed append:
//     it is dropped (and WalWriter::Open truncates it off atomically
//     before appending).
//   - The same damage with a checksum-valid record anywhere after it
//     is mid-file corruption, not a crash artifact: the reader refuses
//     the whole log (InvalidArgument → E_PARSE) rather than silently
//     skipping a committed generation. The successor probe SCANS every
//     byte offset past the damage instead of trusting the damaged
//     record's own length field — a bit flip in the length would
//     otherwise misalign a single probe and misclassify intact
//     committed records as tail debris.
//   - A checksum-valid record whose payload violates the grammar
//     (short payload, zero bags, more bag blocks than the payload can
//     hold, zero rows, trailing bytes, non-increasing generation,
//     fingerprint differing from the first record's) is refused
//     (InvalidArgument → E_PARSE).
// The reader validates every length before dereferencing, mirroring
// the BAGCSEG reader's hostile-bytes discipline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace bagc {

/// First 8 bytes of every WAL file.
inline constexpr std::string_view kWalMagic = "BAGCWAL\n";

/// Format version written and accepted by this build.
inline constexpr uint32_t kWalVersion = 2;

/// Fixed header size (bytes); records start here.
inline constexpr uint32_t kWalHeaderBytes = 16;

/// Bytes of framing before each record's payload (u32 length + u64
/// payload checksum).
inline constexpr uint32_t kWalRecordFrameBytes = 12;

/// Hard cap on one record's payload. A BEGIN/COMMIT transaction is
/// journaled as ONE record, so the session caps a transaction's
/// cumulative buffered bytes strictly below this (kMaxTxnWalBytes in
/// session.cc) — anything the wire accepted is guaranteed to encode.
inline constexpr uint32_t kWalMaxRecordPayload = 1u << 28;

/// One bag's signed row deltas within a committed generation.
/// `ids` is row-major (rows() × arity); `deltas[r]` is the signed
/// multiplicity adjustment of row r.
struct WalBagBlock {
  uint32_t bag_index = 0;
  uint32_t arity = 0;
  std::vector<uint32_t> ids;
  std::vector<int64_t> deltas;

  size_t rows() const { return deltas.size(); }
};

/// One committed delta generation: every bag it touched, all-or-nothing.
struct WalRecord {
  uint64_t generation = 0;
  uint64_t base_fingerprint = 0;
  std::vector<WalBagBlock> bags;
};

/// Everything a valid WAL file holds, plus the recovery accounting the
/// server reports (STATS wal_records / wal_bytes) and the smoke tests
/// assert on.
struct WalContents {
  std::vector<WalRecord> records;
  /// Bytes of header plus intact records — the offset a recovering
  /// writer truncates to.
  uint64_t valid_bytes = 0;
  /// Torn-tail bytes dropped past valid_bytes (0 for a clean log).
  uint64_t dropped_bytes = 0;
};

/// Serializes one record (framing + payload). Refuses empty batches,
/// empty bag blocks, id/arity shape mismatches, and payloads over
/// kWalMaxRecordPayload.
Result<std::string> EncodeWalRecord(const WalRecord& record);

/// Parses a whole WAL image per the torn-vs-corrupt policy above.
/// Borrows nothing: the returned records own their data.
Result<WalContents> ParseWal(std::string_view data);

/// Reads and parses the WAL at `path`. A missing file is NotFound; an
/// empty or header-only file is a valid empty log.
Result<WalContents> ReadWalFile(const std::string& path);

/// The base-segment fingerprint a WAL record must carry: maps the
/// BAGCSEG file at `path` (SegmentReader::Map, which validates it whole)
/// and returns its SegmentReader::fingerprint(). The server keys its
/// logs to the mapping its bags came from, never to a re-read path.
Result<uint64_t> SegmentFingerprint(const std::string& path);

/// \brief Appender for one collection's WAL.
///
/// Open() creates the file (with header) if absent — fsyncing the
/// parent directory so the new entry is durable — and on an existing
/// file validates every record, atomically truncates a torn final
/// record, and refuses mid-file corruption. Append() writes the framed
/// record with O_APPEND semantics and fdatasyncs before returning, so
/// an acked commit survives power loss.
///
/// Fail-stop: any I/O error inside Append (short write, fdatasync)
/// truncates the file back to the last durable record boundary, closes
/// the descriptor, and permanently fails the writer — every later
/// Append returns FailedPrecondition. A writer that reported an error
/// can never chop or misaccount a previously committed record; the
/// owner must reopen (or re-seal the epoch) to resume.
/// Single-writer: the server serializes appends per collection.
/// Move-only.
class WalWriter {
 public:
  static Result<WalWriter> Open(const std::string& path);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Durably appends one committed generation. The record's generation
  /// must be strictly greater than every generation already in the log.
  Status Append(const WalRecord& record);

  /// Append() with the record's bytes already produced by
  /// EncodeWalRecord(record) — the commit path encodes (and
  /// size-checks) BEFORE publishing so an unencodable batch is refused
  /// with nothing published, then appends without re-encoding.
  /// `encoded` MUST be EncodeWalRecord(record)'s output.
  Status AppendEncoded(const WalRecord& record, std::string_view encoded);

  /// True once an Append hit an I/O error; the writer refuses all
  /// further appends (see class comment).
  bool failed() const { return failed_; }

  /// Records in the log (pre-existing plus appended).
  uint64_t records() const { return records_; }
  /// Current file size in bytes.
  uint64_t bytes() const { return bytes_; }
  /// Highest generation in the log; 0 if the log is empty.
  uint64_t last_generation() const { return last_generation_; }
  /// Fingerprint carried by the log's records; 0 if the log is empty
  /// (the first append sets it).
  uint64_t base_fingerprint() const { return base_fingerprint_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter() = default;
  void Close();
  // The fail-stop transition: truncate back to the last durable record
  // boundary (best effort), close the fd, refuse further appends.
  void FailPermanently();

  std::string path_;
  int fd_ = -1;
  bool failed_ = false;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
  uint64_t last_generation_ = 0;
  uint64_t base_fingerprint_ = 0;
};

}  // namespace bagc
