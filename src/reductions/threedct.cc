#include "reductions/threedct.h"

namespace bagc {

ThreeDctInstance MakeFeasibleInstance(size_t n, uint64_t max_entry, Rng* rng) {
  ThreeDctInstance inst;
  inst.n = n;
  inst.row_sums.assign(n * n, 0);
  inst.column_sums.assign(n * n, 0);
  inst.front_sums.assign(n * n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      for (size_t k = 0; k < n; ++k) {
        uint64_t x = rng->Range(0, max_entry);
        inst.row_sums[i * n + k] += x;
        inst.column_sums[j * n + k] += x;
        inst.front_sums[i * n + j] += x;
      }
    }
  }
  return inst;
}

ThreeDctInstance PerturbInstance(const ThreeDctInstance& instance, uint64_t delta,
                                 Rng* rng) {
  ThreeDctInstance out = instance;
  size_t which = static_cast<size_t>(rng->Below(3));
  size_t pos = static_cast<size_t>(rng->Below(out.n * out.n));
  std::vector<uint64_t>* target =
      which == 0 ? &out.row_sums : which == 1 ? &out.column_sums : &out.front_sums;
  (*target)[pos] += delta;
  return out;
}

Result<BagCollection> ToTriangleBags(const ThreeDctInstance& instance) {
  if (instance.n == 0) return Status::InvalidArgument("empty 3DCT instance");
  // Attributes A1, A2, A3 with ids 0, 1, 2 — the index sets i, j, k.
  Schema a13{{0, 2}};
  Schema a23{{1, 2}};
  Schema a12{{0, 1}};
  BagBuilder r(a13), c(a23), f(a12);
  size_t n = instance.n;
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) {
      Tuple uv{{static_cast<Value>(u), static_cast<Value>(v)}};
      // R(i,k), C(j,k), F(i,j): each bag's two coordinates are (u, v).
      BAGC_RETURN_NOT_OK(r.Add(uv, instance.R(u, v)));
      BAGC_RETURN_NOT_OK(c.Add(uv, instance.C(u, v)));
      BAGC_RETURN_NOT_OK(f.Add(std::move(uv), instance.F(u, v)));
    }
  }
  BAGC_ASSIGN_OR_RETURN(Bag rb, r.Build());
  BAGC_ASSIGN_OR_RETURN(Bag cb, c.Build());
  BAGC_ASSIGN_OR_RETURN(Bag fb, f.Build());
  return BagCollection::Make({std::move(rb), std::move(cb), std::move(fb)});
}

bool VerifyTable(const ThreeDctInstance& instance,
                 const std::vector<uint64_t>& table) {
  size_t n = instance.n;
  if (table.size() != n * n * n) return false;
  auto at = [&](size_t i, size_t j, size_t k) { return table[(i * n + j) * n + k]; };
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < n; ++k) {
      uint64_t sum = 0;
      for (size_t q = 0; q < n; ++q) sum += at(i, q, k);
      if (sum != instance.R(i, k)) return false;
    }
  }
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < n; ++k) {
      uint64_t sum = 0;
      for (size_t q = 0; q < n; ++q) sum += at(q, j, k);
      if (sum != instance.C(j, k)) return false;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      uint64_t sum = 0;
      for (size_t q = 0; q < n; ++q) sum += at(i, j, q);
      if (sum != instance.F(i, j)) return false;
    }
  }
  return true;
}

}  // namespace bagc
