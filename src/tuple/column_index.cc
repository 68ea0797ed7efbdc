#include "tuple/column_index.h"

namespace bagc {

namespace {

constexpr size_t kMinCapacity = 16;

size_t NextPowerOfTwo(size_t n) {
  size_t p = kMinCapacity;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ColumnIndex::ColumnIndex(ColumnView keys) : keys_(std::move(keys)) {
  size_t n = keys_.num_rows();
  // All rows are inserted up front, so size the table once (load < ~0.7)
  // and never rehash.
  slots_.assign(NextPowerOfTwo(n + n / 2 + 1), 0);
  std::vector<uint64_t> hashes;
  keys_.HashRows(&hashes);
  // Pass 1: each row's group.
  std::vector<uint32_t> group_of(n);
  for (size_t r = 0; r < n; ++r) {
    size_t slot = FindSlot(hashes[r], keys_, r);
    if (slots_[slot] == 0) {
      groups_.push_back({static_cast<uint32_t>(r), hashes[r]});
      slots_[slot] = static_cast<uint32_t>(groups_.size());
    }
    group_of[r] = slots_[slot] - 1;
  }
  // Pass 2: group sizes (counted once the group count is known, so the
  // offsets are allocated once) and their prefix sums, then every row
  // into its group's range in ascending row order.
  offsets_.assign(groups_.size() + 1, 0);
  for (size_t r = 0; r < n; ++r) ++offsets_[group_of[r] + 1];
  for (size_t g = 0; g < groups_.size(); ++g) offsets_[g + 1] += offsets_[g];
  rows_.resize(n);
  std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (size_t r = 0; r < n; ++r) rows_[fill[group_of[r]]++] = static_cast<uint32_t>(r);
}

size_t ColumnIndex::FindSlot(uint64_t hash, const ColumnView& view,
                             size_t row) const {
  size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t tag = slots_[i];
    if (tag == 0) return i;
    const ColumnGroup& g = groups_[tag - 1];
    if (g.hash == hash && keys_.RowsEqual(g.lead, view, row)) return i;
    i = (i + 1) & mask;
  }
}

uint32_t ColumnIndex::Probe(const ColumnView& probes, size_t row,
                            uint64_t hash) const {
  if (slots_.empty()) return kNoGroup;  // default-constructed index
  size_t slot = FindSlot(hash, probes, row);
  return slots_[slot] == 0 ? kNoGroup : slots_[slot] - 1;
}

void ColumnIndex::ProbeAll(const ColumnView& probes,
                           std::vector<uint32_t>* out) const {
  size_t n = probes.num_rows();
  out->assign(n, kNoGroup);
  if (n == 0) return;
  std::vector<uint64_t> hashes;
  probes.HashRows(&hashes);
  if (slots_.empty()) return;  // default-constructed index: no groups
  // Load every probe's first slot in one pass, so the loads overlap: an
  // empty slot is a definitive miss and a matching first slot a
  // definitive hit, so the slot walk only runs on genuine collisions.
  std::vector<uint32_t> tags(n);
  size_t mask = slots_.size() - 1;
  for (size_t r = 0; r < n; ++r) tags[r] = slots_[hashes[r] & mask];
  for (size_t r = 0; r < n; ++r) {
    uint32_t tag = tags[r];
    if (tag == 0) continue;  // first slot empty: kNoGroup
    const ColumnGroup& g = groups_[tag - 1];
    if (g.hash == hashes[r] && keys_.RowsEqual(g.lead, probes, r)) {
      (*out)[r] = tag - 1;
    } else {
      (*out)[r] = Probe(probes, r, hashes[r]);
    }
  }
}

}  // namespace bagc
