#include "tuple/value_dictionary.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "tuple/tuple.h"
#include "util/checked_math.h"

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
  size_t slot = std::hash<std::string_view>{}(external) & mask;
  while (slots_[slot] != kInvalidValueId && externals_[slots_[slot]] != external) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void ValueDictionary::Rehash(size_t num_slots) {
  slots_.assign(num_slots, kInvalidValueId);
  for (size_t pos = 0; pos < externals_.size(); ++pos) {
    slots_[Probe(externals_[pos])] = static_cast<ValueId>(pos);
  }
}

Result<ValueId> ValueDictionary::Intern(const std::string& external) {
  ++intern_calls_;
  // Slots hold positions in externals_; the issued id is id_base_ + position.
  size_t slot = 0;
  if (!slots_.empty()) {
    slot = Probe(external);
    if (slots_[slot] != kInvalidValueId) return static_cast<ValueId>(id_base_ + slots_[slot]);
  }
  // Next id = id_base_ + size(); reject once it would collide with the
  // reserved kInvalidValueId sentinel (i.e. past UINT32_MAX - 1).
  BAGC_ASSIGN_OR_RETURN(uint64_t next,
                        CheckedAdd(id_base_, static_cast<uint64_t>(externals_.size())));
  if (next >= static_cast<uint64_t>(kInvalidValueId)) {
    return Status::ArithmeticOverflow("value dictionary exhausted the uint32 id space");
  }
  if (2 * (externals_.size() + 1) > slots_.size()) {
    Rehash(SlotsFor(externals_.size() + 1));
    slot = Probe(external);
  }
  slots_[slot] = static_cast<ValueId>(externals_.size());
  externals_.emplace_back(external);
  return static_cast<ValueId>(next);
}

Status ValueDictionary::BulkLoad(std::vector<std::string> values) {
  if (!externals_.empty() || id_base_ != 0) {
    return Status::FailedPrecondition(
        "BulkLoad requires an empty dictionary: ids are meaningful only "
        "relative to one encoder, so merging id spaces is refused");
  }
  if (static_cast<uint64_t>(values.size()) >=
      static_cast<uint64_t>(kInvalidValueId)) {
    return Status::ArithmeticOverflow(
        "bulk load would exhaust the uint32 id space");
  }
  if (values.empty()) return Status::OK();
  externals_ = std::move(values);
  slots_.assign(SlotsFor(externals_.size()), kInvalidValueId);
  for (size_t pos = 0; pos < externals_.size(); ++pos) {
    size_t slot = Probe(externals_[pos]);
    if (slots_[slot] != kInvalidValueId) {
      Status duplicate = Status::InvalidArgument(
          "duplicate value in dictionary block: '" + externals_[pos] + "'");
      externals_.clear();
      slots_.clear();
      return duplicate;
    }
    slots_[slot] = static_cast<ValueId>(pos);
  }
  return Status::OK();
}

std::optional<ValueId> ValueDictionary::Find(const std::string& external) const {
  if (slots_.empty()) return std::nullopt;
  ValueId pos = slots_[Probe(external)];
  if (pos == kInvalidValueId) return std::nullopt;
  return static_cast<ValueId>(id_base_ + pos);
}

std::vector<ValueId> ValueDictionary::Canonicalize() {
  size_t n = externals_.size();
  // order[k] = old id of the k-th smallest external value.
  std::vector<ValueId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](ValueId a, ValueId b) {
    return externals_[a] < externals_[b];
  });
  std::vector<ValueId> remap(n);
  std::vector<std::string> sorted(n);
  for (size_t k = 0; k < n; ++k) {
    remap[order[k]] = static_cast<ValueId>(k);
    sorted[k] = std::move(externals_[order[k]]);
  }
  externals_ = std::move(sorted);
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

Result<ValueId> DictionarySet::Intern(AttrId a, const std::string& external) {
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
