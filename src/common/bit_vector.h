#ifndef DCS_COMMON_BIT_VECTOR_H_
#define DCS_COMMON_BIT_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace dcs {

/// \brief Fixed-size bit array with word-level bulk operations.
///
/// This is the workhorse of both the streaming sketches (a router bitmap is a
/// BitVector) and the analysis center (matrix columns/rows are BitVectors and
/// the detectors live on AND + popcount). Bulk operations run on the
/// runtime-dispatched kernel layer (common/bit_kernels.h): AVX2 or NEON
/// where the host supports it, portable scalar otherwise, with bit-identical
/// results either way.
class BitVector {
 public:
  /// An empty (zero-bit) vector.
  BitVector() = default;

  /// A vector of `num_bits` bits, all zero.
  explicit BitVector(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  BitVector(const BitVector&) = default;
  BitVector& operator=(const BitVector&) = default;
  BitVector(BitVector&&) = default;
  BitVector& operator=(BitVector&&) = default;

  /// Number of bits.
  std::size_t size() const { return num_bits_; }

  /// Number of backing 64-bit words.
  std::size_t num_words() const { return words_.size(); }

  /// Sets bit `i` to 1.
  void Set(std::size_t i) {
    DCS_CHECK(i < num_bits_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  /// Sets bit `i` to 0.
  void Clear(std::size_t i) {
    DCS_CHECK(i < num_bits_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  /// Returns bit `i`.
  bool Test(std::size_t i) const {
    DCS_CHECK(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// Zeroes every bit, keeping the size.
  void Reset();

  /// Number of 1 bits (the paper's "weight").
  std::size_t CountOnes() const;

  /// Number of positions where both this and `other` are 1 — the paper's
  /// "common 1s" statistic. Requires equal sizes.
  std::size_t CommonOnes(const BitVector& other) const;

  /// Fraction of bits set, in [0,1]; 0 for an empty vector.
  double FillRatio() const;

  /// Appends the index of every set bit to `out`.
  void AppendSetBits(std::vector<std::size_t>* out) const;

  /// Raw word access (read-only), for serialization and tight loops.
  const std::uint64_t* words() const { return words_.data(); }

  /// Raw word access (mutable). Callers must not set padding bits past
  /// size(); bulk ops assume they are zero.
  std::uint64_t* mutable_words() { return words_.data(); }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  std::size_t num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace dcs

#endif  // DCS_COMMON_BIT_VECTOR_H_
