#include "tuple/column_store.h"

#include "util/hash.h"

namespace bagc {

ColumnView ColumnView::Select(const Projector& proj) const {
  std::vector<const ValueId*> cols(proj.arity());
  for (size_t i = 0; i < proj.arity(); ++i) cols[i] = columns_[proj.SourceIndex(i)];
  return ColumnView(std::move(cols), rows_);
}

ValueId ColumnView::MaxId(size_t c) const {
  const ValueId* col = columns_[c];
  ValueId best = 0;
  for (size_t r = 0; r < rows_; ++r) best = col[r] > best ? col[r] : best;
  return best;
}

Tuple ColumnView::RowAt(size_t r) const {
  std::vector<ValueId> ids(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) ids[c] = columns_[c][r];
  return Tuple::OfIds(std::move(ids));
}

bool ColumnView::RowsEqual(size_t a, const ColumnView& other, size_t b) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c][a] != other.columns_[c][b]) return false;
  }
  return true;
}

int ColumnView::CompareRows(size_t a, const ColumnView& other, size_t b) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    ValueId x = columns_[c][a];
    ValueId y = other.columns_[c][b];
    if (x == y) continue;
    if ((x | y) < kDirectValueLimit) return x < y ? -1 : 1;
    return ValueIdLess(x, y) ? -1 : 1;
  }
  return 0;
}

void ColumnView::HashRows(std::vector<uint64_t>* out) const {
  out->assign(rows_, HashSeed(columns_.size()));
  uint64_t* hashes = out->data();
  for (const ValueId* col : columns_) {
    for (size_t r = 0; r < rows_; ++r) {
      HashCombine(&hashes[r], static_cast<uint64_t>(col[r]));
    }
  }
}

ColumnView ColumnStore::View() const {
  std::vector<const ValueId*> cols(arity_);
  for (size_t c = 0; c < arity_; ++c) cols[c] = column(c);
  return ColumnView(std::move(cols), rows_);
}

Tuple ColumnStore::RowAt(size_t r) const {
  std::vector<ValueId> ids(arity_);
  for (size_t c = 0; c < arity_; ++c) ids[c] = column(c)[r];
  return Tuple::OfIds(std::move(ids));
}

}  // namespace bagc
