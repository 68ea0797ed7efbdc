#include "tuple/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/checksum.h"
#include "util/little_endian.h"

namespace bagc {

namespace {

void AlignTo(std::string* out, size_t alignment) {
  while (out->size() % alignment != 0) out->push_back('\0');
}

// Overflow-safe bounds check: [offset, offset + count*elem) ⊆ [0, size).
Status CheckRange(uint64_t offset, uint64_t count, uint64_t elem, size_t size,
                  const char* what) {
  if (elem != 0 && count > UINT64_MAX / elem) {
    return Status::OutOfRange(std::string("segment ") + what +
                              " length overflows");
  }
  uint64_t len = count * elem;
  if (offset > size || len > size - offset) {
    return Status::OutOfRange(std::string("segment ") + what +
                              " extends past end of file");
  }
  return Status::OK();
}

Status CheckAligned(const char* base, uint64_t offset, size_t alignment,
                    const char* what) {
  if (reinterpret_cast<uintptr_t>(base + offset) % alignment != 0) {
    return Status::InvalidArgument(std::string("segment ") + what +
                                   " is not " + std::to_string(alignment) +
                                   "-byte aligned");
  }
  return Status::OK();
}

}  // namespace

Result<std::string> EncodeSegment(const std::vector<std::string>& names,
                                  const std::vector<Bag>& bags,
                                  const AttributeCatalog& catalog,
                                  const DictionarySet& dicts) {
  if (names.size() != bags.size()) {
    return Status::InvalidArgument("segment bag names do not match bag count");
  }
  if (bags.empty()) {
    return Status::InvalidArgument("refusing to write an empty segment");
  }
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i].empty()) {
      return Status::InvalidArgument("segment bag " + std::to_string(i) +
                                     " has an empty name");
    }
    for (size_t j = 0; j < i; ++j) {
      if (names[j] == names[i]) {
        return Status::InvalidArgument("duplicate bag name '" + names[i] +
                                       "' in segment");
      }
    }
  }
  // The attribute table covers exactly the attributes the bags use, in
  // AttrId order; a fully covering dictionary is required per attribute
  // (the segment ships it, and ids are meaningless without it).
  std::vector<AttrId> used;
  for (const Bag& bag : bags) {
    for (AttrId a : bag.schema().attrs()) used.push_back(a);
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  std::vector<const ValueDictionary*> dict_of(used.size(), nullptr);
  for (size_t i = 0; i < used.size(); ++i) {
    dict_of[i] = dicts.find_dict(used[i]);
    if (dict_of[i] == nullptr) {
      return Status::FailedPrecondition(
          "segment export requires a dictionary for attribute '" +
          catalog.Name(used[i]) + "'");
    }
  }
  auto attr_index = [&used](AttrId a) {
    return static_cast<uint32_t>(
        std::lower_bound(used.begin(), used.end(), a) - used.begin());
  };
  for (size_t b = 0; b < bags.size(); ++b) {
    const Schema& schema = bags[b].schema();
    const size_t rows = bags[b].SupportSize();
    for (size_t c = 0; c < schema.arity(); ++c) {
      const ValueDictionary* dict = dict_of[attr_index(schema.at(c))];
      for (size_t r = 0; r < rows; ++r) {
        ValueId id = bags[b].IdAt(r, c);
        if (id >= dict->size()) {
          return Status::OutOfRange(
              "bag '" + names[b] + "' carries id " + std::to_string(id) +
              " never issued for attribute '" + catalog.Name(schema.at(c)) +
              "' — not sealed through these dictionaries");
        }
      }
    }
  }

  std::string out(kSegmentHeaderBytes, '\0');
  const size_t attr_table = out.size();
  out.append(used.size() * 32, '\0');
  const size_t bag_table = out.size();
  out.append(bags.size() * 48, '\0');

  for (size_t i = 0; i < used.size(); ++i) {
    const std::string name = catalog.Name(used[i]);
    const ValueDictionary& dict = *dict_of[i];
    AlignTo(&out, 4);
    size_t name_off = out.size();
    out += name;
    AlignTo(&out, 4);
    // The dictionary's table is already the on-disk shape: copy it.
    size_t offsets_off = out.size();
    for (size_t v = 0; v <= dict.size(); ++v) {
      AppendLittleEndian<uint32_t>(&out, dict.offsets()[v]);
    }
    size_t blob_off = out.size();
    out += dict.blob();
    size_t entry = attr_table + i * 32;
    PutLittleEndian<uint64_t>(&out[entry + 0], name_off);
    PutLittleEndian<uint32_t>(&out[entry + 8], static_cast<uint32_t>(name.size()));
    PutLittleEndian<uint32_t>(&out[entry + 12], static_cast<uint32_t>(dict.size()));
    PutLittleEndian<uint64_t>(&out[entry + 16], offsets_off);
    PutLittleEndian<uint64_t>(&out[entry + 24], blob_off);
  }

  for (size_t b = 0; b < bags.size(); ++b) {
    const Schema& schema = bags[b].schema();
    const size_t rows = bags[b].SupportSize();
    AlignTo(&out, 4);
    size_t name_off = out.size();
    out += names[b];
    AlignTo(&out, 4);
    size_t attrs_off = out.size();
    for (AttrId a : schema.attrs()) AppendLittleEndian<uint32_t>(&out, attr_index(a));
    AlignTo(&out, 4);
    size_t columns_off = out.size();
    for (size_t c = 0; c < schema.arity(); ++c) {
      for (size_t r = 0; r < rows; ++r) {
        AppendLittleEndian<uint32_t>(&out, bags[b].IdAt(r, c));
      }
    }
    AlignTo(&out, 8);
    size_t mults_off = out.size();
    for (size_t r = 0; r < rows; ++r) {
      AppendLittleEndian<uint64_t>(&out, bags[b].MultiplicityAt(r));
    }
    size_t entry = bag_table + b * 48;
    PutLittleEndian<uint64_t>(&out[entry + 0], name_off);
    PutLittleEndian<uint32_t>(&out[entry + 8], static_cast<uint32_t>(names[b].size()));
    PutLittleEndian<uint32_t>(&out[entry + 12], static_cast<uint32_t>(schema.arity()));
    PutLittleEndian<uint64_t>(&out[entry + 16], attrs_off);
    PutLittleEndian<uint64_t>(&out[entry + 24], columns_off);
    PutLittleEndian<uint64_t>(&out[entry + 32], mults_off);
    PutLittleEndian<uint64_t>(&out[entry + 40], rows);
  }

  std::memcpy(out.data(), kSegmentMagic.data(), kSegmentMagic.size());
  PutLittleEndian<uint32_t>(&out[8], kSegmentVersion);
  PutLittleEndian<uint32_t>(&out[12], kSegmentHeaderBytes);
  PutLittleEndian<uint64_t>(&out[16], out.size());
  PutLittleEndian<uint32_t>(&out[32], static_cast<uint32_t>(used.size()));
  PutLittleEndian<uint32_t>(&out[36], static_cast<uint32_t>(bags.size()));
  PutLittleEndian<uint64_t>(&out[40], attr_table);
  PutLittleEndian<uint64_t>(&out[48], bag_table);
  PutLittleEndian<uint64_t>(&out[56], 0);
  PutLittleEndian<uint64_t>(&out[24], Xxh64(out.data() + kSegmentHeaderBytes,
                         out.size() - kSegmentHeaderBytes));
  return out;
}

Status WriteSegmentFile(const std::string& path,
                        const std::vector<std::string>& names,
                        const std::vector<Bag>& bags,
                        const AttributeCatalog& catalog,
                        const DictionarySet& dicts) {
  BAGC_ASSIGN_OR_RETURN(std::string bytes,
                        EncodeSegment(names, bags, catalog, dicts));
  // Temp-then-rename: a crashed or concurrent writer can never leave a
  // half-written file where a LOADSEG will find it.
  std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + tmp + ": " + std::strerror(errno));
  }
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

Result<SegmentReader> SegmentReader::Map(const std::string& path) {
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
  size_t size = static_cast<size_t>(st.st_size);
  if (size < kSegmentHeaderBytes) {
    ::close(fd);
    return Status::InvalidArgument("truncated segment file " + path + " (" +
                                   std::to_string(size) + " bytes)");
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (mapping == MAP_FAILED) {
    return Status::Internal("mmap(" + path + "): " + std::strerror(errno));
  }
  SegmentReader reader;
  reader.mapping_ = mapping;
  Status init = reader.Init(
      std::string_view(static_cast<const char*>(mapping), size));
  if (!init.ok()) return init;  // reader's destructor unmaps
  return reader;
}

Result<SegmentReader> SegmentReader::Parse(std::string_view data) {
  SegmentReader reader;
  BAGC_RETURN_NOT_OK(reader.Init(data));
  return reader;
}

Status SegmentReader::Init(std::string_view data) {
  data_ = data.data();
  size_ = data.size();
  if (size_ < kSegmentHeaderBytes) {
    return Status::InvalidArgument("truncated segment (" +
                                   std::to_string(size_) + " bytes)");
  }
  if (std::memcmp(data_, kSegmentMagic.data(), kSegmentMagic.size()) != 0) {
    return Status::InvalidArgument("bad segment magic");
  }
  uint32_t version = LoadLittleEndian<uint32_t>(data_ + 8);
  if (version != kSegmentVersion) {
    return Status::InvalidArgument(
        "unsupported segment version " + std::to_string(version) +
        " (this build reads only version " + std::to_string(kSegmentVersion) +
        "; re-export the segment)");
  }
  if (LoadLittleEndian<uint32_t>(data_ + 12) != kSegmentHeaderBytes) {
    return Status::InvalidArgument("bad segment header size");
  }
  uint64_t file_size = LoadLittleEndian<uint64_t>(data_ + 16);
  if (file_size != size_) {
    return Status::InvalidArgument(
        "segment header claims " + std::to_string(file_size) +
        " bytes but the file has " + std::to_string(size_));
  }
  uint64_t checksum = LoadLittleEndian<uint64_t>(data_ + 24);
  if (checksum != Xxh64(data_ + kSegmentHeaderBytes,
                        size_ - kSegmentHeaderBytes)) {
    return Status::InvalidArgument("segment checksum mismatch");
  }
  uint32_t num_attrs = LoadLittleEndian<uint32_t>(data_ + 32);
  uint32_t num_bags = LoadLittleEndian<uint32_t>(data_ + 36);
  uint64_t attr_table = LoadLittleEndian<uint64_t>(data_ + 40);
  uint64_t bag_table = LoadLittleEndian<uint64_t>(data_ + 48);
  BAGC_RETURN_NOT_OK(CheckRange(attr_table, num_attrs, 32, size_, "attribute table"));
  BAGC_RETURN_NOT_OK(CheckRange(bag_table, num_bags, 48, size_, "bag table"));
  if (num_bags == 0) {
    return Status::InvalidArgument("segment holds no bags");
  }

  attrs_.reserve(num_attrs);
  for (uint32_t i = 0; i < num_attrs; ++i) {
    const char* e = data_ + attr_table + uint64_t{i} * 32;
    AttrMeta meta;
    uint64_t name_off = LoadLittleEndian<uint64_t>(e + 0);
    uint32_t name_len = LoadLittleEndian<uint32_t>(e + 8);
    meta.count = LoadLittleEndian<uint32_t>(e + 12);
    uint64_t offsets_off = LoadLittleEndian<uint64_t>(e + 16);
    uint64_t blob_off = LoadLittleEndian<uint64_t>(e + 24);
    BAGC_RETURN_NOT_OK(CheckRange(name_off, name_len, 1, size_, "attribute name"));
    BAGC_RETURN_NOT_OK(CheckRange(offsets_off, uint64_t{meta.count} + 1, 4,
                                  size_, "value offsets"));
    BAGC_RETURN_NOT_OK(CheckAligned(data_, offsets_off, 4, "value-offsets array"));
    meta.name = std::string_view(data_ + name_off, name_len);
    meta.offsets = data_ + offsets_off;
    // Offsets must be non-decreasing prefix sums starting at 0; the last
    // one is the blob length.
    if (LoadLittleEndian<uint32_t>(meta.offsets) != 0) {
      return Status::InvalidArgument("segment value offsets do not start at 0");
    }
    for (uint32_t v = 0; v < meta.count; ++v) {
      if (LoadLittleEndian<uint32_t>(meta.offsets + 4 * (uint64_t{v} + 1)) <
          LoadLittleEndian<uint32_t>(meta.offsets + 4 * uint64_t{v})) {
        return Status::InvalidArgument(
            "segment value offsets are not non-decreasing");
      }
    }
    meta.blob_len = LoadLittleEndian<uint32_t>(meta.offsets + 4 * uint64_t{meta.count});
    BAGC_RETURN_NOT_OK(CheckRange(blob_off, meta.blob_len, 1, size_, "value blob"));
    meta.blob = data_ + blob_off;
    for (const AttrMeta& prior : attrs_) {
      if (prior.name == meta.name) {
        return Status::InvalidArgument("duplicate attribute '" +
                                       std::string(meta.name) + "' in segment");
      }
    }
    attrs_.push_back(meta);
  }

  bags_.reserve(num_bags);
  for (uint32_t i = 0; i < num_bags; ++i) {
    const char* e = data_ + bag_table + uint64_t{i} * 48;
    BagMeta meta;
    uint64_t name_off = LoadLittleEndian<uint64_t>(e + 0);
    uint32_t name_len = LoadLittleEndian<uint32_t>(e + 8);
    meta.arity = LoadLittleEndian<uint32_t>(e + 12);
    uint64_t attrs_off = LoadLittleEndian<uint64_t>(e + 16);
    uint64_t columns_off = LoadLittleEndian<uint64_t>(e + 24);
    uint64_t mults_off = LoadLittleEndian<uint64_t>(e + 32);
    meta.rows = LoadLittleEndian<uint64_t>(e + 40);
    BAGC_RETURN_NOT_OK(CheckRange(name_off, name_len, 1, size_, "bag name"));
    if (meta.arity == 0) {
      return Status::InvalidArgument("segment bag has arity 0");
    }
    BAGC_RETURN_NOT_OK(CheckRange(attrs_off, meta.arity, 4, size_,
                                  "bag attribute indices"));
    BAGC_RETURN_NOT_OK(CheckAligned(data_, attrs_off, 4, "bag attribute indices"));
    if (meta.rows > UINT64_MAX / meta.arity) {
      return Status::OutOfRange("segment column block length overflows");
    }
    BAGC_RETURN_NOT_OK(CheckRange(columns_off, meta.rows * meta.arity, 4,
                                  size_, "column block"));
    BAGC_RETURN_NOT_OK(CheckAligned(data_, columns_off, 4, "column block"));
    BAGC_RETURN_NOT_OK(CheckRange(mults_off, meta.rows, 8, size_,
                                  "multiplicity block"));
    BAGC_RETURN_NOT_OK(CheckAligned(data_, mults_off, 8, "multiplicity block"));
    meta.name = std::string_view(data_ + name_off, name_len);
    meta.attrs = data_ + attrs_off;
    meta.columns = data_ + columns_off;
    meta.mults = data_ + mults_off;
    for (uint32_t c = 0; c < meta.arity; ++c) {
      if (LoadLittleEndian<uint32_t>(meta.attrs + 4 * uint64_t{c}) >= num_attrs) {
        return Status::OutOfRange(
            "segment bag references attribute index beyond the table");
      }
    }
    bags_.push_back(meta);
  }
  return Status::OK();
}

const uint32_t* SegmentReader::attr_offsets(size_t a) const {
  // Alignment was validated at Init, as for the columns.
  return reinterpret_cast<const uint32_t*>(attrs_[a].offsets);
}

size_t SegmentReader::bag_attr(size_t b, size_t c) const {
  return LoadLittleEndian<uint32_t>(bags_[b].attrs + 4 * c);
}

ColumnStore SegmentReader::Columns(size_t b) const {
  const BagMeta& meta = bags_[b];
  // Alignment was validated at Init; this cast is what "mmap-able" buys:
  // the engine probes these ids exactly where the kernel mapped them.
  return ColumnStore::Borrow(reinterpret_cast<const ValueId*>(meta.columns),
                             meta.rows, meta.arity);
}

const uint64_t* SegmentReader::Mults(size_t b) const {
  return reinterpret_cast<const uint64_t*>(bags_[b].mults);
}

SegmentReader::SegmentReader(SegmentReader&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapping_(other.mapping_),
      attrs_(std::move(other.attrs_)),
      bags_(std::move(other.bags_)) {
  other.mapping_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

SegmentReader& SegmentReader::operator=(SegmentReader&& other) noexcept {
  if (this != &other) {
    Unmap();
    data_ = other.data_;
    size_ = other.size_;
    mapping_ = other.mapping_;
    attrs_ = std::move(other.attrs_);
    bags_ = std::move(other.bags_);
    other.mapping_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

SegmentReader::~SegmentReader() { Unmap(); }

void SegmentReader::Unmap() {
  if (mapping_ != nullptr) {
    ::munmap(mapping_, size_);
    mapping_ = nullptr;
  }
}

}  // namespace bagc
