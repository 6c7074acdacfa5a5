#include "common/bit_matrix.h"

#include "common/bit_kernels.h"

namespace dcs {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols) : cols_(cols) {
  rows_.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) rows_.emplace_back(cols);
}

void BitMatrix::AppendRow(BitVector row) {
  if (rows_.empty()) {
    cols_ = row.size();
  } else {
    DCS_CHECK(row.size() == cols_)
        << "appended row width " << row.size()
        << " does not match matrix width " << cols_;
  }
  rows_.push_back(std::move(row));
}

std::vector<std::uint32_t> BitMatrix::ColumnWeights() const {
  if (rows_.empty() || cols_ == 0) return std::vector<std::uint32_t>(cols_, 0);
  // The kernel adds whole words of counts; the padding columns' zeros are
  // cut off after.
  const std::size_t num_words = rows_.front().num_words();
  std::vector<std::uint32_t> weights(num_words * 64, 0);
  std::vector<const std::uint64_t*> row_words;
  row_words.reserve(rows_.size());
  for (const BitVector& r : rows_) row_words.push_back(r.words());
  ActiveBitKernels().accumulate_column_counts(
      row_words.data(), row_words.size(), 0, num_words, weights.data());
  weights.resize(cols_);
  return weights;
}

BitVector BitMatrix::ExtractColumn(std::size_t c) const {
  DCS_CHECK(c < cols_) << "column " << c << " out of range for width "
                       << cols_;
  BitVector column(rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (rows_[r].Test(c)) column.Set(r);
  }
  return column;
}

std::vector<BitVector> BitMatrix::ExtractColumns(
    const std::vector<std::size_t>& cols_to_take) const {
  for (std::size_t c : cols_to_take) {
    DCS_DCHECK(c < cols_) << "column " << c << " out of range for width "
                          << cols_;
  }
  std::vector<BitVector> result(cols_to_take.size(), BitVector(rows_.size()));
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const BitVector& row_bits = rows_[r];
    for (std::size_t i = 0; i < cols_to_take.size(); ++i) {
      if (row_bits.Test(cols_to_take[i])) result[i].Set(r);
    }
  }
  return result;
}

}  // namespace dcs
