#include "tuple/value_codec.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

namespace bagc {

namespace {

// Process-global side table for values outside the direct range. Append
// only; guarded by a mutex. Construction, printing, and I/O are the only
// callers — row comparisons never decode — so the lock is off every hot
// path.
struct SideTable {
  std::mutex mu;
  std::vector<Value> values;
  std::unordered_map<Value, ValueId> ids;
};

SideTable& GlobalSideTable() {
  static SideTable* table = new SideTable();  // leaked: process lifetime
  return *table;
}

}  // namespace

ValueId EncodeValue(Value v) {
  if (IsDirectValue(v)) return static_cast<ValueId>(v);
  SideTable& table = GlobalSideTable();
  std::lock_guard<std::mutex> lock(table.mu);
  auto it = table.ids.find(v);
  if (it != table.ids.end()) return it->second;
  // kInvalidValueId is reserved, so the side table holds at most
  // 2^31 - 1 entries. Reaching that would mean interning two billion
  // distinct out-of-range constants; treat it as a program error.
  if (table.values.size() >= static_cast<size_t>(kInvalidValueId - kDirectValueLimit)) {
    std::fprintf(stderr, "bagc: value side table exhausted\n");
    std::abort();
  }
  ValueId id = kDirectValueLimit + static_cast<ValueId>(table.values.size());
  table.values.push_back(v);
  table.ids.emplace(v, id);
  return id;
}

Value DecodeValue(ValueId id) {
  if (id < kDirectValueLimit) return static_cast<Value>(id);
  SideTable& table = GlobalSideTable();
  std::lock_guard<std::mutex> lock(table.mu);
  size_t idx = id - kDirectValueLimit;
  if (idx >= table.values.size()) return static_cast<Value>(id);
  return table.values[idx];
}

}  // namespace bagc
