#include "tuple/value_dictionary.h"

#include <algorithm>
#include <numeric>

#include "tuple/tuple.h"
#include "util/checked_math.h"
#include "util/checksum.h"

namespace bagc {

namespace {

// Fewest slots a non-empty table has; 8 values fit before the first growth.
constexpr size_t kMinSlots = 16;

// Smallest power-of-two table that holds `n` values at load <= 1/2.
size_t SlotsFor(size_t n) {
  size_t slots = kMinSlots;
  while (slots < 2 * n) slots *= 2;
  return slots;
}

}  // namespace

size_t ValueDictionary::Probe(std::string_view external) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = Xxh64(external.data(), external.size()) & mask;
  while (slots_[slot] != kInvalidValueId && ExternalOf(slots_[slot]) != external) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void ValueDictionary::Rehash(size_t num_slots) {
  slots_.assign(num_slots, kInvalidValueId);
  const size_t n = size();
  for (size_t pos = 0; pos < n; ++pos) {
    slots_[Probe(ExternalOf(static_cast<ValueId>(pos)))] = static_cast<ValueId>(pos);
  }
}

void ValueDictionary::SetOwnedTable(std::vector<uint32_t> offsets, std::string blob) {
  owned_offsets_ = std::move(offsets);
  owned_blob_ = std::move(blob);
  borrowed_offsets_ = nullptr;
  borrowed_blob_ = nullptr;
  borrowed_size_ = 0;
  keep_alive_.reset();
}

Result<ValueId> ValueDictionary::Intern(std::string_view external) {
  ++intern_calls_;
  // Slots hold positions in the table; the issued id is id_base_ + position.
  size_t slot = 0;
  if (!slots_.empty()) {
    slot = Probe(external);
    if (slots_[slot] != kInvalidValueId) return static_cast<ValueId>(id_base_ + slots_[slot]);
  }
  // Next id = id_base_ + size(); reject once it would collide with the
  // reserved kInvalidValueId sentinel (i.e. past UINT32_MAX - 1).
  const size_t n = size();
  BAGC_ASSIGN_OR_RETURN(uint64_t next, CheckedAdd(id_base_, static_cast<uint64_t>(n)));
  if (next >= static_cast<uint64_t>(kInvalidValueId)) {
    return Status::ArithmeticOverflow("value dictionary exhausted the uint32 id space");
  }
  const uint64_t blob_end = uint64_t{offsets()[n]} + external.size();
  if (blob_end > UINT32_MAX) {
    return Status::ArithmeticOverflow("value dictionary blob exceeds 4 GiB");
  }
  if (borrowed()) {  // copy on write
    SetOwnedTable(std::vector<uint32_t>(offsets(), offsets() + n + 1), std::string(blob()));
  }
  if (2 * (n + 1) > slots_.size()) {
    Rehash(SlotsFor(n + 1));
    slot = Probe(external);
  }
  if (owned_offsets_.empty()) owned_offsets_.push_back(0);
  owned_blob_.append(external);
  owned_offsets_.push_back(static_cast<uint32_t>(blob_end));
  slots_[slot] = static_cast<ValueId>(n);
  return static_cast<ValueId>(next);
}

Status ValueDictionary::IndexLoadedTable() {
  const size_t n = size();
  slots_.assign(SlotsFor(n), kInvalidValueId);
  for (size_t pos = 0; pos < n; ++pos) {
    std::string_view value = ExternalOf(static_cast<ValueId>(pos));
    size_t slot = Probe(value);
    if (slots_[slot] != kInvalidValueId) {
      Status duplicate = Status::InvalidArgument(
          "duplicate value in dictionary block: '" + std::string(value) + "'");
      *this = ValueDictionary();
      return duplicate;
    }
    slots_[slot] = static_cast<ValueId>(pos);
  }
  return Status::OK();
}

namespace {

Status CheckLoadable(size_t issued, uint64_t id_base, uint64_t count) {
  if (issued != 0 || id_base != 0) {
    return Status::FailedPrecondition(
        "loading a value table requires an empty dictionary: ids are "
        "meaningful only relative to one encoder, so merging id spaces is "
        "refused");
  }
  if (count >= static_cast<uint64_t>(kInvalidValueId)) {
    return Status::ArithmeticOverflow("bulk load would exhaust the uint32 id space");
  }
  return Status::OK();
}

}  // namespace

Status ValueDictionary::BulkLoad(const std::vector<std::string>& values) {
  BAGC_RETURN_NOT_OK(CheckLoadable(size(), id_base_, values.size()));
  if (values.empty()) return Status::OK();
  uint64_t total = 0;
  for (const std::string& v : values) total += v.size();
  if (total > UINT32_MAX) {
    return Status::ArithmeticOverflow("dictionary block exceeds 4 GiB of values");
  }
  owned_offsets_.reserve(values.size() + 1);
  owned_offsets_.push_back(0);
  owned_blob_.reserve(total);
  for (const std::string& v : values) {
    owned_blob_ += v;
    owned_offsets_.push_back(static_cast<uint32_t>(owned_blob_.size()));
  }
  return IndexLoadedTable();
}

Status ValueDictionary::Borrow(const uint32_t* offsets, size_t count,
                               std::string_view blob,
                               std::shared_ptr<const void> keep_alive) {
  BAGC_RETURN_NOT_OK(CheckLoadable(size(), id_base_, count));
  if (keep_alive == nullptr) {
    return Status::InvalidArgument("a borrowed value table needs an owner to pin it");
  }
  if (offsets[0] != 0 || offsets[count] != blob.size()) {
    return Status::InvalidArgument(
        "value offsets must run from 0 to the blob length");
  }
  for (size_t i = 0; i < count; ++i) {
    if (offsets[i + 1] < offsets[i]) {
      return Status::InvalidArgument("value offsets are not non-decreasing");
    }
  }
  if (count == 0) return Status::OK();
  borrowed_offsets_ = offsets;
  borrowed_blob_ = blob.data();
  borrowed_size_ = count;
  keep_alive_ = std::move(keep_alive);
  return IndexLoadedTable();
}

size_t ValueDictionary::OwnedBytes() const {
  size_t bytes = slots_.size() * sizeof(ValueId);
  if (!borrowed()) {
    bytes += owned_offsets_.size() * sizeof(uint32_t) + owned_blob_.size();
  }
  return bytes;
}

std::optional<ValueId> ValueDictionary::Find(std::string_view external) const {
  if (slots_.empty()) return std::nullopt;
  ValueId pos = slots_[Probe(external)];
  if (pos == kInvalidValueId) return std::nullopt;
  return static_cast<ValueId>(id_base_ + pos);
}

std::vector<ValueId> ValueDictionary::Canonicalize() {
  const size_t n = size();
  // order[k] = old id of the k-th smallest external value.
  std::vector<ValueId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](ValueId a, ValueId b) {
    return ExternalOf(a) < ExternalOf(b);
  });
  std::vector<ValueId> remap(n);
  std::vector<uint32_t> offsets{0};
  offsets.reserve(n + 1);
  std::string blob;
  blob.reserve(this->blob().size());
  for (size_t k = 0; k < n; ++k) {
    remap[order[k]] = static_cast<ValueId>(k);
    blob.append(ExternalOf(order[k]));
    offsets.push_back(static_cast<uint32_t>(blob.size()));
  }
  SetOwnedTable(std::move(offsets), std::move(blob));
  if (!slots_.empty()) Rehash(slots_.size());
  return remap;
}

ValueDictionary& DictionarySet::dict(AttrId a) {
  if (a >= dicts_.size()) dicts_.resize(a + 1);
  if (dicts_[a] == nullptr) dicts_[a] = std::make_unique<ValueDictionary>();
  return *dicts_[a];
}

const ValueDictionary* DictionarySet::find_dict(AttrId a) const {
  if (a >= dicts_.size()) return nullptr;
  return dicts_[a].get();
}

Result<ValueId> DictionarySet::Intern(AttrId a, std::string_view external) {
  return dict(a).Intern(external);
}

Result<Tuple> DictionarySet::EncodeRow(const Schema& schema,
                                       const std::vector<std::string>& tokens) {
  if (tokens.size() != schema.arity()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  std::vector<ValueId> ids(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    BAGC_ASSIGN_OR_RETURN(ids[i], Intern(schema.at(i), tokens[i]));
  }
  return Tuple::OfIds(std::move(ids));
}

Result<std::vector<std::string>> DictionarySet::DecodeRow(const Schema& schema,
                                                          const Tuple& row) const {
  if (row.arity() != schema.arity()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  std::vector<std::string> out(row.arity());
  for (size_t i = 0; i < row.arity(); ++i) {
    const ValueDictionary* d = find_dict(schema.at(i));
    ValueId id = row.id(i);
    if (d == nullptr || id >= d->size()) {
      return Status::NotFound("row id was not issued by this dictionary set");
    }
    out[i] = d->ExternalOf(id);
  }
  return out;
}

size_t DictionarySet::num_dicts() const {
  size_t n = 0;
  for (const auto& d : dicts_) n += (d != nullptr);
  return n;
}

size_t DictionarySet::total_size() const {
  size_t n = 0;
  for (const auto& d : dicts_) n += (d == nullptr ? 0 : d->size());
  return n;
}

uint64_t DictionarySet::total_intern_calls() const {
  uint64_t n = 0;
  for (const auto& d : dicts_) n += (d == nullptr ? 0 : d->intern_calls());
  return n;
}

size_t DictionarySet::OwnedBytes() const {
  size_t n = 0;
  for (const auto& d : dicts_) n += (d == nullptr ? 0 : d->OwnedBytes());
  return n;
}

DictionarySet DictionarySet::Clone() const {
  DictionarySet copy;
  copy.dicts_.resize(dicts_.size());
  for (size_t a = 0; a < dicts_.size(); ++a) {
    if (dicts_[a] != nullptr) {
      copy.dicts_[a] = std::make_unique<ValueDictionary>(*dicts_[a]);
    }
  }
  return copy;
}

std::vector<std::vector<ValueId>> DictionarySet::CanonicalizeAll() {
  std::vector<std::vector<ValueId>> remaps(dicts_.size());
  for (size_t a = 0; a < dicts_.size(); ++a) {
    if (dicts_[a] != nullptr) remaps[a] = dicts_[a]->Canonicalize();
  }
  return remaps;
}

}  // namespace bagc
