#include "common/distributions.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/stats_math.h"

namespace dcs {
namespace {

// Generic mode-centered inversion given the log pmf at the mode and ratio
// functions pmf(k+1)/pmf(k), pmf(k-1)/pmf(k). Support is [lo_support,
// hi_support]. Exact up to floating-point rounding; expected cost O(sigma).
template <typename UpRatio, typename DownRatio>
std::int64_t ModeCenteredInversion(Rng* rng, std::int64_t mode,
                                   double log_pmf_mode,
                                   std::int64_t lo_support,
                                   std::int64_t hi_support, UpRatio up_ratio,
                                   DownRatio down_ratio) {
  const double u = rng->UniformDouble();
  const double pmf_mode = std::exp(log_pmf_mode);
  double cum = pmf_mode;
  if (u < cum) return mode;

  std::int64_t lo = mode;
  std::int64_t hi = mode;
  double p_lo = pmf_mode;
  double p_hi = pmf_mode;
  while (true) {
    const bool can_down = lo > lo_support;
    const bool can_up = hi < hi_support;
    if (!can_down && !can_up) {
      // Floating-point shortfall: the remaining mass rounds to the boundary
      // with the larger residual probability.
      return p_lo >= p_hi ? lo_support : hi_support;
    }
    const double next_down = can_down ? p_lo * down_ratio(lo) : -1.0;
    const double next_up = can_up ? p_hi * up_ratio(hi) : -1.0;
    if (next_down >= next_up) {
      --lo;
      p_lo = next_down;
      cum += p_lo;
      if (u < cum) return lo;
    } else {
      ++hi;
      p_hi = next_up;
      cum += p_hi;
      if (u < cum) return hi;
    }
  }
}

}  // namespace

std::int64_t SampleBinomial(Rng* rng, std::int64_t n, double p) {
  DCS_CHECK(n >= 0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - SampleBinomial(rng, n, 1.0 - p);

  const double np = static_cast<double>(n) * p;
  if (np < 30.0) {
    // Sequential inversion from zero: cum pmf recurrence, expected O(np).
    const double q = 1.0 - p;
    const double ratio = p / q;
    double pmf = std::pow(q, static_cast<double>(n));
    if (pmf > 0.0) {
      double cum = pmf;
      const double u = rng->UniformDouble();
      std::int64_t k = 0;
      while (u >= cum && k < n) {
        pmf *= ratio * static_cast<double>(n - k) /
               static_cast<double>(k + 1);
        ++k;
        cum += pmf;
      }
      return k;
    }
    // q^n underflowed (huge n, tiny p, but np < 30): Poisson is exact to
    // within O(p) here.
    return std::min<std::int64_t>(n, SamplePoisson(rng, np));
  }

  const auto mode = static_cast<std::int64_t>(
      std::floor((static_cast<double>(n) + 1) * p));
  const double log_pmf_mode = LogBinomPmf(mode, n, p);
  const double odds = p / (1.0 - p);
  return ModeCenteredInversion(
      rng, mode, log_pmf_mode, 0, n,
      [n, odds](std::int64_t k) {
        return odds * static_cast<double>(n - k) / static_cast<double>(k + 1);
      },
      [n, odds](std::int64_t k) {
        return static_cast<double>(k) /
               (static_cast<double>(n - k + 1) * odds);
      });
}

std::int64_t SampleHypergeometric(Rng* rng, std::int64_t big_n, std::int64_t i,
                                  std::int64_t j) {
  DCS_CHECK(i >= 0 && i <= big_n && j >= 0 && j <= big_n);
  const std::int64_t k_min = std::max<std::int64_t>(0, i + j - big_n);
  const std::int64_t k_max = std::min(i, j);
  if (k_min == k_max) return k_min;
  const auto mode = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(
          std::floor(static_cast<double>((i + 1) * (j + 1)) /
                     static_cast<double>(big_n + 2))),
      k_min, k_max);
  const double log_pmf_mode = LogHypergeomPmf(mode, big_n, i, j);
  // pmf(k+1)/pmf(k) = (i-k)(j-k) / ((k+1)(N-i-j+k+1))
  return ModeCenteredInversion(
      rng, mode, log_pmf_mode, k_min, k_max,
      [big_n, i, j](std::int64_t k) {
        return static_cast<double>((i - k) * (j - k)) /
               static_cast<double>((k + 1) * (big_n - i - j + k + 1));
      },
      [big_n, i, j](std::int64_t k) {
        return static_cast<double>(k * (big_n - i - j + k)) /
               static_cast<double>((i - k + 1) * (j - k + 1));
      });
}

std::int64_t SamplePoisson(Rng* rng, double mean) {
  DCS_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth inversion in the log domain is unnecessary at this size.
    const double limit = std::exp(-mean);
    double prod = rng->UniformDouble();
    std::int64_t k = 0;
    while (prod > limit) {
      prod *= rng->UniformDouble();
      ++k;
    }
    return k;
  }
  const auto mode = static_cast<std::int64_t>(std::floor(mean));
  const double log_pmf_mode = static_cast<double>(mode) * std::log(mean) -
                              mean - LogGamma(static_cast<double>(mode) + 1);
  return ModeCenteredInversion(
      rng, mode, log_pmf_mode, 0,
      std::numeric_limits<std::int64_t>::max(),
      [mean](std::int64_t k) { return mean / static_cast<double>(k + 1); },
      [mean](std::int64_t k) { return static_cast<double>(k) / mean; });
}

std::vector<std::uint64_t> SampleWithoutReplacement(Rng* rng, std::uint64_t n,
                                                    std::uint64_t k) {
  DCS_CHECK(k <= n);
  // Floyd's algorithm: k iterations, O(k) expected set operations.
  std::vector<std::uint64_t> result;
  result.reserve(k);
  // A small open-addressing set would be faster, but k is modest in all our
  // uses; std::vector + sorted lookup keeps it simple.
  std::vector<std::uint64_t> chosen;
  chosen.reserve(k);
  for (std::uint64_t r = n - k; r < n; ++r) {
    const std::uint64_t candidate = rng->UniformInt(r + 1);
    const std::uint64_t pick =
        std::binary_search(chosen.begin(), chosen.end(), candidate)
            ? r
            : candidate;
    chosen.insert(std::lower_bound(chosen.begin(), chosen.end(), pick), pick);
    result.push_back(pick);
  }
  return result;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha) {
  DCS_CHECK(n >= 1);
  cdf_.resize(n);
  double total = 0.0;
  for (std::uint64_t r = 1; r <= n; ++r) {
    total += std::pow(static_cast<double>(r), -alpha);
    cdf_[r - 1] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::uint64_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(it - cdf_.begin()) + 1;
}

double ZipfSampler::Pmf(std::uint64_t r) const {
  DCS_CHECK(r >= 1 && r <= cdf_.size());
  const double hi = cdf_[r - 1];
  const double lo = r >= 2 ? cdf_[r - 2] : 0.0;
  return hi - lo;
}

}  // namespace dcs
