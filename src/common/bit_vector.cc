#include "common/bit_vector.h"

#include <algorithm>
#include <bit>

#include "common/bit_kernels.h"

namespace dcs {

void BitVector::Reset() {
  std::fill(words_.begin(), words_.end(), 0ULL);
}

std::size_t BitVector::CountOnes() const {
  return ActiveBitKernels().count_ones(words_.data(), words_.size());
}

std::size_t BitVector::CommonOnes(const BitVector& other) const {
  DCS_CHECK(num_bits_ == other.num_bits_);
  return ActiveBitKernels().and_count(words_.data(), other.words_.data(),
                                      words_.size());
}

void BitVector::InPlaceAnd(const BitVector& other) {
  DCS_CHECK(num_bits_ == other.num_bits_);
  ActiveBitKernels().and_inplace(words_.data(), other.words_.data(),
                                 words_.size());
}

void BitVector::InPlaceOr(const BitVector& other) {
  DCS_CHECK(num_bits_ == other.num_bits_);
  ActiveBitKernels().or_inplace(words_.data(), other.words_.data(),
                                words_.size());
}

void BitVector::AssignAnd(const BitVector& a, const BitVector& b) {
  DCS_CHECK(a.num_bits_ == b.num_bits_);
  num_bits_ = a.num_bits_;
  words_.resize(a.words_.size());
  const std::uint64_t* rows[2] = {a.words_.data(), b.words_.data()};
  ActiveBitKernels().and_fold(rows, 2, words_.size(), words_.data());
}

double BitVector::FillRatio() const {
  if (num_bits_ == 0) return 0.0;
  return static_cast<double>(CountOnes()) / static_cast<double>(num_bits_);
}

void BitVector::AppendSetBits(std::vector<std::size_t>* out) const {
  // One counting pass up front beats the repeated reallocation the growth
  // loop used to trigger on dense 4 Mbit rows.
  out->reserve(out->size() + CountOnes());
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      out->push_back((w << 6) + static_cast<std::size_t>(bit));
      word &= word - 1;
    }
  }
}

}  // namespace dcs
