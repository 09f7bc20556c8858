#include "util/bitmatrix.h"

#include <algorithm>
#include <cassert>

#include "util/hierarchical_bitvector.h"

namespace sparqlsim::util {

BitMatrix BitMatrix::Build(size_t rows, size_t cols,
                           std::vector<std::pair<uint32_t, uint32_t>>&& entries) {
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());

  BitMatrix m(rows, cols);
  m.row_offsets_.clear();
  m.cols_index_.reserve(entries.size());
  for (size_t pos = 0; pos < entries.size();) {
    uint32_t r = entries[pos].first;
    assert(r < rows);
    m.rows_index_.push_back(r);
    m.row_offsets_.push_back(static_cast<uint32_t>(m.cols_index_.size()));
    while (pos < entries.size() && entries[pos].first == r) {
      assert(entries[pos].second < cols);
      m.cols_index_.push_back(entries[pos].second);
      ++pos;
    }
  }
  m.row_offsets_.push_back(static_cast<uint32_t>(m.cols_index_.size()));
  return m;
}

int64_t BitMatrix::FindRowSlot(size_t r) const {
  auto it = std::lower_bound(rows_index_.begin(), rows_index_.end(),
                             static_cast<uint32_t>(r));
  if (it == rows_index_.end() || *it != r) return -1;
  return it - rows_index_.begin();
}

std::span<const uint32_t> BitMatrix::Row(size_t r) const {
  int64_t slot = FindRowSlot(r);
  if (slot < 0) return {};
  return {cols_index_.data() + row_offsets_[slot],
          row_offsets_[slot + 1] - row_offsets_[slot]};
}

bool BitMatrix::Test(size_t r, size_t c) const {
  auto row = Row(r);
  return std::binary_search(row.begin(), row.end(), static_cast<uint32_t>(c));
}

void BitMatrix::Multiply(const BitVector& x, BitVector* out) const {
  assert(x.size() == rows_);
  assert(out->size() == cols_);
  MultiplyImpl(x, out);
}

void BitMatrix::Multiply(const HierarchicalBitVector& x, BitVector* out) const {
  assert(x.size() == rows_);
  assert(out->size() == cols_);
  MultiplyImpl(x, out);
}

void BitMatrix::MultiplyRange(const BitVector& x, size_t col_begin,
                              size_t col_end, BitVector* out) const {
  assert(x.size() == rows_);
  assert(out->size() == cols_);
  assert(col_begin % BitVector::kWordBits == 0);
  assert(col_end == cols_ || col_end % BitVector::kWordBits == 0);
  assert(col_begin <= col_end && col_end <= cols_);
  MultiplyRangeImpl(x, col_begin, col_end, out);
}

void BitMatrix::MultiplyRange(const HierarchicalBitVector& x, size_t col_begin,
                              size_t col_end, BitVector* out) const {
  assert(x.size() == rows_);
  assert(out->size() == cols_);
  MultiplyRangeImpl(x, col_begin, col_end, out);
}

bool BitMatrix::RowIntersects(size_t r, const BitVector& y) const {
  assert(y.size() == cols_);
  for (uint32_t c : Row(r)) {
    if (y.Test(c)) return true;
  }
  return false;
}

BitVector BitMatrix::RowSummary() const {
  BitVector summary(rows_);
  for (uint32_t r : rows_index_) summary.Set(r);
  return summary;
}

BitVector BitMatrix::ColSummary() const {
  BitVector summary(cols_);
  for (uint32_t c : cols_index_) summary.Set(c);
  return summary;
}

BitMatrix BitMatrix::Transposed() const {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  entries.reserve(Nnz());
  for (size_t slot = 0; slot < rows_index_.size(); ++slot) {
    uint32_t r = rows_index_[slot];
    for (uint32_t i = row_offsets_[slot]; i < row_offsets_[slot + 1]; ++i) {
      entries.emplace_back(cols_index_[i], r);
    }
  }
  return Build(cols_, rows_, std::move(entries));
}

size_t BitMatrix::ApproxBytes() const {
  return rows_index_.size() * sizeof(uint32_t) +
         row_offsets_.size() * sizeof(uint32_t) +
         cols_index_.size() * sizeof(uint32_t) + sizeof(*this);
}

}  // namespace sparqlsim::util
