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
  std::size_t count = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    count +=
        static_cast<std::size_t>(std::popcount(words_[w] & other.words_[w]));
  }
  return count;
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
