// Shared sealer for flat (tuple, annotation) entry vectors: sort by tuple,
// merge runs of equal tuples with a semiring +, drop zero annotations.
// This is the single implementation behind BagBuilder::Build (counting
// semiring), BagBuilder::BuildDistinct (a + that refuses any repeat) and
// KRelation::Seal (arbitrary positive semiring).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "tuple/tuple.h"
#include "util/result.h"

namespace bagc {
namespace internal {

/// Sorts `rows` by tuple, merges equal-tuple runs with `plus`
/// (a (const Tuple& key, Annotation, Annotation) -> Result<Annotation>;
/// the key lets a plus that refuses repeats name the tuple), and erases
/// entries whose merged annotation satisfies `is_zero`. On error the
/// vector is cleared — partially merged state never leaks to the caller.
template <typename Annotation, typename Plus, typename IsZero>
Status SealEntries(std::vector<std::pair<Tuple, Annotation>>* rows,
                   Plus&& plus, IsZero&& is_zero) {
  using Entry = std::pair<Tuple, Annotation>;
  std::stable_sort(rows->begin(), rows->end(),
                   [](const Entry& a, const Entry& b) { return a.first < b.first; });
  size_t out = 0;
  for (size_t i = 0; i < rows->size();) {
    size_t run = i + 1;
    Annotation total = std::move((*rows)[i].second);
    while (run < rows->size() && (*rows)[run].first == (*rows)[i].first) {
      Result<Annotation> sum =
          plus((*rows)[i].first, std::move(total), (*rows)[run].second);
      if (!sum.ok()) {
        rows->clear();
        return sum.status();
      }
      total = std::move(sum).value();
      ++run;
    }
    if (!is_zero(total)) {
      if (out != i) (*rows)[out].first = std::move((*rows)[i].first);
      (*rows)[out].second = std::move(total);
      ++out;
    }
    i = run;
  }
  rows->resize(out);
  return Status::OK();
}

}  // namespace internal
}  // namespace bagc
