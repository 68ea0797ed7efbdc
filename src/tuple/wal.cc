#include "tuple/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "tuple/segment.h"
#include "util/checksum.h"
#include "util/little_endian.h"
#include "util/sync_dir.h"

namespace bagc {

namespace {

std::string WalHeader() {
  std::string h(kWalMagic);
  AppendLittleEndian<uint32_t>(&h, kWalVersion);
  AppendLittleEndian<uint32_t>(&h, kWalHeaderBytes);
  return h;
}

// Bounded cursor over one record's payload. All Take* methods check
// remaining length before dereferencing.
class PayloadCursor {
 public:
  PayloadCursor(const char* data, size_t size) : data_(data), size_(size) {}

  bool TakeU32(uint32_t* out) {
    if (size_ - pos_ < 4) return false;
    *out = LoadLittleEndian<uint32_t>(data_ + pos_);
    pos_ += 4;
    return true;
  }
  bool TakeU64(uint64_t* out) {
    if (size_ - pos_ < 8) return false;
    *out = LoadLittleEndian<uint64_t>(data_ + pos_);
    pos_ += 8;
    return true;
  }
  size_t remaining() const { return size_ - pos_; }
  const char* cursor() const { return data_ + pos_; }
  void Skip(size_t n) { pos_ += n; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Decodes one checksum-valid payload into a record, enforcing the
// grammar (counts, shapes, exact consumption). Generation/fingerprint
// ordering is checked by the caller, which sees the whole log.
// Whether any checksum-valid record starts at or after `from`. The
// damage classifier cannot trust the damaged record's own length field
// (it may BE the flipped bytes), so it scans every candidate offset:
// an intact committed record anywhere past the damage proves mid-file
// corruption rather than a torn tail. A 64-bit checksum makes a false
// positive inside genuine tail debris negligible. Cost is paid only on
// the recovery path of an already-damaged log, where refusing slowly
// beats dropping wrongly.
bool HasValidRecordAfter(std::string_view data, size_t from) {
  for (size_t probe = from; probe + kWalRecordFrameBytes <= data.size();
       ++probe) {
    uint64_t len = LoadLittleEndian<uint32_t>(data.data() + probe);
    if (len > kWalMaxRecordPayload) continue;
    if (probe + kWalRecordFrameBytes + len > data.size()) continue;
    const char* payload = data.data() + probe + kWalRecordFrameBytes;
    if (LoadLittleEndian<uint64_t>(data.data() + probe + 4) ==
        Xxh64(payload, static_cast<size_t>(len))) {
      return true;
    }
  }
  return false;
}

Status DecodePayload(const char* data, size_t size, WalRecord* out) {
  PayloadCursor cur(data, size);
  uint32_t bag_count = 0;
  if (!cur.TakeU64(&out->generation) || !cur.TakeU64(&out->base_fingerprint) ||
      !cur.TakeU32(&bag_count)) {
    return Status::InvalidArgument("WAL record payload shorter than its header");
  }
  if (bag_count == 0) {
    return Status::InvalidArgument("WAL record carries no bag blocks");
  }
  // A block is at least its 12-byte header plus one row of one id (12
  // bytes): refuse a count the payload cannot hold before it sizes the
  // reserve below (a hostile count would ask for ~2^32 blocks).
  constexpr size_t kMinBlockBytes = 24;
  if (bag_count > cur.remaining() / kMinBlockBytes) {
    return Status::InvalidArgument("WAL record claims " + std::to_string(bag_count) +
                                   " bag blocks; its payload holds at most " +
                                   std::to_string(cur.remaining() / kMinBlockBytes));
  }
  out->bags.clear();
  out->bags.reserve(bag_count);
  for (uint32_t b = 0; b < bag_count; ++b) {
    WalBagBlock block;
    uint32_t rows = 0;
    if (!cur.TakeU32(&block.bag_index) || !cur.TakeU32(&block.arity) ||
        !cur.TakeU32(&rows)) {
      return Status::InvalidArgument("WAL bag block header extends past payload");
    }
    if (block.arity == 0) {
      return Status::InvalidArgument("WAL bag block has arity 0");
    }
    if (rows == 0) {
      return Status::InvalidArgument("WAL bag block has no rows");
    }
    // row bytes = arity*4 + 8; both factors fit u32 so u64 math is safe.
    uint64_t row_bytes = uint64_t{block.arity} * 4 + 8;
    if (uint64_t{rows} * row_bytes > cur.remaining()) {
      return Status::InvalidArgument("WAL bag block rows extend past payload");
    }
    block.ids.reserve(size_t{rows} * block.arity);
    block.deltas.reserve(rows);
    for (uint32_t r = 0; r < rows; ++r) {
      const char* p = cur.cursor();
      for (uint32_t c = 0; c < block.arity; ++c) {
        block.ids.push_back(LoadLittleEndian<uint32_t>(p + 4 * uint64_t{c}));
      }
      block.deltas.push_back(static_cast<int64_t>(
          LoadLittleEndian<uint64_t>(p + 4 * uint64_t{block.arity})));
      cur.Skip(static_cast<size_t>(row_bytes));
    }
    out->bags.push_back(std::move(block));
  }
  if (cur.remaining() != 0) {
    return Status::InvalidArgument(
        "WAL record payload has " + std::to_string(cur.remaining()) +
        " trailing bytes");
  }
  return Status::OK();
}

}  // namespace

Result<std::string> EncodeWalRecord(const WalRecord& record) {
  if (record.bags.empty()) {
    return Status::InvalidArgument("refusing to log an empty delta batch");
  }
  std::string payload;
  AppendLittleEndian<uint64_t>(&payload, record.generation);
  AppendLittleEndian<uint64_t>(&payload, record.base_fingerprint);
  AppendLittleEndian<uint32_t>(&payload, static_cast<uint32_t>(record.bags.size()));
  for (const WalBagBlock& block : record.bags) {
    if (block.arity == 0) {
      return Status::InvalidArgument("WAL bag block has arity 0");
    }
    if (block.deltas.empty()) {
      return Status::InvalidArgument("refusing to log an empty bag block");
    }
    if (block.ids.size() != block.deltas.size() * block.arity) {
      return Status::InvalidArgument(
          "WAL bag block id count does not match rows × arity");
    }
    if (block.deltas.size() > UINT32_MAX) {
      return Status::OutOfRange("WAL bag block row count overflows u32");
    }
    AppendLittleEndian<uint32_t>(&payload, block.bag_index);
    AppendLittleEndian<uint32_t>(&payload, block.arity);
    AppendLittleEndian<uint32_t>(&payload, static_cast<uint32_t>(block.deltas.size()));
    for (size_t r = 0; r < block.deltas.size(); ++r) {
      for (uint32_t c = 0; c < block.arity; ++c) {
        AppendLittleEndian<uint32_t>(&payload, block.ids[r * block.arity + c]);
      }
      AppendLittleEndian<uint64_t>(&payload, static_cast<uint64_t>(block.deltas[r]));
    }
  }
  if (payload.size() > kWalMaxRecordPayload) {
    return Status::OutOfRange("WAL record payload exceeds " +
                              std::to_string(kWalMaxRecordPayload) + " bytes");
  }
  std::string out;
  out.reserve(kWalRecordFrameBytes + payload.size());
  AppendLittleEndian<uint32_t>(&out, static_cast<uint32_t>(payload.size()));
  AppendLittleEndian<uint64_t>(&out, Xxh64(payload.data(), payload.size()));
  out += payload;
  return out;
}

Result<WalContents> ParseWal(std::string_view data) {
  WalContents contents;
  // Empty file: a crash between O_CREAT and the header write. Valid,
  // empty; the writer lays the header down again.
  if (data.empty()) return contents;
  const std::string header = WalHeader();
  if (data.size() < kWalHeaderBytes) {
    // A torn header write. Only droppable if what's there is a prefix
    // of the real header — anything else is not ours.
    if (std::memcmp(data.data(), header.data(), data.size()) != 0) {
      return Status::InvalidArgument("bad WAL magic");
    }
    contents.dropped_bytes = data.size();
    return contents;
  }
  if (std::memcmp(data.data(), kWalMagic.data(), kWalMagic.size()) != 0) {
    return Status::InvalidArgument("bad WAL magic");
  }
  uint32_t version = LoadLittleEndian<uint32_t>(data.data() + 8);
  if (version != kWalVersion) {
    return Status::InvalidArgument("unsupported WAL version " +
                                   std::to_string(version) + " (expected " +
                                   std::to_string(kWalVersion) + ")");
  }
  if (LoadLittleEndian<uint32_t>(data.data() + 12) != kWalHeaderBytes) {
    return Status::InvalidArgument("bad WAL header size");
  }
  contents.valid_bytes = kWalHeaderBytes;

  size_t off = kWalHeaderBytes;
  while (off < data.size()) {
    size_t remaining = data.size() - off;
    if (remaining < kWalRecordFrameBytes) {
      break;  // torn frame at the tail
    }
    uint64_t len = LoadLittleEndian<uint32_t>(data.data() + off);
    const char* payload = data.data() + off + kWalRecordFrameBytes;
    bool frame_fits = kWalRecordFrameBytes + len <= remaining;
    if (!frame_fits ||
        LoadLittleEndian<uint64_t>(data.data() + off + 4) !=
            Xxh64(payload, static_cast<size_t>(len))) {
      // A damaged record: overrunning length or failing checksum. The
      // length field itself may be the damaged bytes, so the successor
      // probe scans every offset past it (HasValidRecordAfter) instead
      // of trusting it. An intact record anywhere after the damage
      // means a *committed* generation is corrupted mid-file — refuse
      // rather than silently skip it. Otherwise the damage (and
      // everything after) is tail debris from one torn append; drop
      // from here.
      if (HasValidRecordAfter(data, off + 1)) {
        return Status::InvalidArgument(
            "WAL record at offset " + std::to_string(off) +
            " is damaged (" +
            (frame_fits ? "checksum mismatch" : "length overruns the file") +
            ") with intact records after it — mid-file corruption, not a "
            "torn tail");
      }
      break;
    }
    WalRecord record;
    Status st = DecodePayload(payload, static_cast<size_t>(len), &record);
    if (!st.ok()) {
      return Status::InvalidArgument("WAL record at offset " +
                                     std::to_string(off) + ": " + st.message());
    }
    if (!contents.records.empty()) {
      const WalRecord& prev = contents.records.back();
      if (record.generation <= prev.generation) {
        return Status::InvalidArgument(
            "WAL generation " + std::to_string(record.generation) +
            " at offset " + std::to_string(off) +
            " does not increase past " + std::to_string(prev.generation));
      }
      if (record.base_fingerprint != prev.base_fingerprint) {
        return Status::InvalidArgument(
            "WAL record at offset " + std::to_string(off) +
            " carries base fingerprint " +
            std::to_string(record.base_fingerprint) +
            " but the log opened with " +
            std::to_string(prev.base_fingerprint));
      }
    }
    contents.records.push_back(std::move(record));
    off += kWalRecordFrameBytes + static_cast<size_t>(len);
    contents.valid_bytes = off;
  }
  contents.dropped_bytes = data.size() - contents.valid_bytes;
  return contents;
}

Result<WalContents> ReadWalFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("open(" + path + "): " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    Status err = Status::Internal("fstat(" + path + "): " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < bytes.size()) {
    ssize_t n = ::pread(fd, bytes.data() + got, bytes.size() - got, got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return Status::Internal("read(" + path + "): " +
                              (n < 0 ? std::strerror(errno) : "short read"));
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  auto parsed = ParseWal(bytes);
  if (!parsed.ok()) {
    return Status::Error(parsed.status().code(),
                         path + ": " + parsed.status().message());
  }
  return parsed;
}

Result<uint64_t> SegmentFingerprint(const std::string& path) {
  BAGC_ASSIGN_OR_RETURN(SegmentReader reader, SegmentReader::Map(path));
  return reader.fingerprint();
}

Result<WalWriter> WalWriter::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Internal("open(" + path + "): " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    Status err = Status::Internal("fstat(" + path + "): " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < bytes.size()) {
    ssize_t n = ::pread(fd, bytes.data() + got, bytes.size() - got, got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return Status::Internal("read(" + path + "): " +
                              (n < 0 ? std::strerror(errno) : "short read"));
    }
    got += static_cast<size_t>(n);
  }
  auto parsed = ParseWal(bytes);
  if (!parsed.ok()) {
    ::close(fd);
    return Status::Error(parsed.status().code(),
                         path + ": " + parsed.status().message());
  }
  const WalContents& contents = parsed.value();
  if (contents.dropped_bytes > 0) {
    // Atomic torn-tail amputation: one ftruncate to the last intact
    // record boundary, before any new append can land after the tear.
    if (::ftruncate(fd, static_cast<off_t>(contents.valid_bytes)) != 0) {
      Status err = Status::Internal("ftruncate(" + path + "): " +
                                    std::strerror(errno));
      ::close(fd);
      return err;
    }
  }
  WalWriter writer;
  writer.path_ = path;
  writer.fd_ = fd;
  writer.bytes_ = contents.valid_bytes;
  writer.records_ = contents.records.size();
  if (!contents.records.empty()) {
    writer.last_generation_ = contents.records.back().generation;
    writer.base_fingerprint_ = contents.records.back().base_fingerprint;
  }
  if (writer.bytes_ < kWalHeaderBytes) {
    std::string header = WalHeader();
    size_t put = 0;
    while (put < header.size()) {
      ssize_t n = ::write(fd, header.data() + put, header.size() - put);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return Status::Internal("write(" + path + "): " +
                                std::strerror(errno));
      }
      put += static_cast<size_t>(n);
    }
    if (::fdatasync(fd) != 0) {
      return Status::Internal("fdatasync(" + path + "): " +
                              std::strerror(errno));
    }
    writer.bytes_ = kWalHeaderBytes;
  }
  // The records are only as durable as the directory entry pointing at
  // them: fsync the parent so a just-created (O_CREAT) file survives
  // power loss before the first commit is acked.
  BAGC_RETURN_NOT_OK(SyncParentDir(path));
  return writer;
}

Status WalWriter::Append(const WalRecord& record) {
  BAGC_ASSIGN_OR_RETURN(std::string bytes, EncodeWalRecord(record));
  return AppendEncoded(record, bytes);
}

Status WalWriter::AppendEncoded(const WalRecord& record,
                                std::string_view encoded) {
  if (fd_ < 0) {
    return Status::FailedPrecondition(
        failed_ ? "WAL writer failed on a previous append; reopen the log"
                : "WAL writer is closed");
  }
  if (record.generation <= last_generation_ && records_ > 0) {
    return Status::InvalidArgument(
        "WAL generation " + std::to_string(record.generation) +
        " does not increase past " + std::to_string(last_generation_));
  }
  if (records_ > 0 && record.base_fingerprint != base_fingerprint_) {
    return Status::InvalidArgument(
        "WAL append carries base fingerprint " +
        std::to_string(record.base_fingerprint) + " but the log holds " +
        std::to_string(base_fingerprint_));
  }
  size_t put = 0;
  while (put < encoded.size()) {
    ssize_t n = ::write(fd_, encoded.data() + put, encoded.size() - put);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Status err = Status::Internal("write(" + path_ + "): " +
                                    std::strerror(errno));
      FailPermanently();
      return err;
    }
    put += static_cast<size_t>(n);
  }
  if (::fdatasync(fd_) != 0) {
    // The record's bytes are fully in the file but not provably on the
    // medium, and post-fsync-failure page state is unknowable. Fail
    // stop: amputate back to the last durable boundary and retire the
    // writer — reusing it could later truncate with stale accounting
    // and chop a committed record mid-file.
    Status err = Status::Internal("fdatasync(" + path_ + "): " +
                                  std::strerror(errno));
    FailPermanently();
    return err;
  }
  bytes_ += encoded.size();
  records_ += 1;
  last_generation_ = record.generation;
  base_fingerprint_ = record.base_fingerprint;
  return Status::OK();
}

void WalWriter::FailPermanently() {
  // A partial or unsynced append is exactly the torn tail the reader
  // knows how to drop; amputate it now (best effort — the reader drops
  // it on the next Open regardless) and refuse every further append so
  // stale accounting can never truncate a committed record.
  ::ftruncate(fd_, static_cast<off_t>(bytes_));
  ::close(fd_);
  fd_ = -1;
  failed_ = true;
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      failed_(other.failed_),
      bytes_(other.bytes_),
      records_(other.records_),
      last_generation_(other.last_generation_),
      base_fingerprint_(other.base_fingerprint_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    failed_ = other.failed_;
    bytes_ = other.bytes_;
    records_ = other.records_;
    last_generation_ = other.last_generation_;
    base_fingerprint_ = other.base_fingerprint_;
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace bagc
