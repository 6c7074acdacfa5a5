#include "common/stats_math.h"

#include <algorithm>
#include <cmath>
#include <math.h>  // lgamma_r (POSIX), not declared by <cmath>.
#include <limits>

#include "common/logging.h"

namespace dcs {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Cap on exact tail summations. The experiments in this library stay far
// below it; hitting the cap indicates a misuse, so we fall back to a normal
// approximation rather than loop for minutes.
constexpr std::int64_t kMaxExactTerms = 4'000'000;

double NormalTailLogApprox(double z) {
  // log P[Z > z] for large z via the asymptotic expansion of the Mills ratio.
  if (z < 8.0) return std::log(1.0 - 0.5 * std::erfc(z / std::sqrt(2.0)));
  return -0.5 * z * z - std::log(z) - 0.5 * std::log(2.0 * M_PI);
}

}  // namespace

double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

double LogChoose(double n, double k) {
  if (k < 0 || k > n) return kNegInf;
  if (k == 0 || k == n) return 0.0;
  return LogGamma(n + 1) - LogGamma(k + 1) - LogGamma(n - k + 1);
}

double LogSumExp(double a, double b) {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

double LogBinomPmf(std::int64_t k, std::int64_t n, double p) {
  if (k < 0 || k > n) return kNegInf;
  if (p <= 0.0) return k == 0 ? 0.0 : kNegInf;
  if (p >= 1.0) return k == n ? 0.0 : kNegInf;
  const double dk = static_cast<double>(k);
  const double dn = static_cast<double>(n);
  return LogChoose(dn, dk) + dk * std::log(p) + (dn - dk) * std::log1p(-p);
}

namespace {

// log of sum_{k=lo..hi} Binomial(n,p) pmf, summed with a streaming
// log-sum-exp using the pmf recurrence. Requires 0 <= lo <= hi <= n.
double LogBinomRangeSum(std::int64_t lo, std::int64_t hi, std::int64_t n,
                        double p) {
  if (lo > hi) return kNegInf;
  const double log_ratio_base = std::log(p) - std::log1p(-p);
  // Start at whichever end is closer to the mode so the first term is the
  // largest and the running max never needs rescaling.
  const auto mode = static_cast<std::int64_t>(
      std::floor((static_cast<double>(n) + 1) * p));
  std::int64_t start = std::clamp(mode, lo, hi);
  const double log_start = LogBinomPmf(start, n, p);
  if (log_start == kNegInf) return kNegInf;

  double total = 1.0;  // Terms scaled by exp(-log_start).
  // Walk down from start-1 to lo.
  double rel = 0.0;
  for (std::int64_t k = start; k > lo; --k) {
    // pmf(k-1)/pmf(k) = k / ((n-k+1) * (p/q))
    rel += std::log(static_cast<double>(k)) -
           std::log(static_cast<double>(n - k + 1)) - log_ratio_base;
    const double term = std::exp(rel);
    total += term;
    if (term < 1e-18 * total) break;
  }
  // Walk up from start+1 to hi.
  rel = 0.0;
  for (std::int64_t k = start; k < hi; ++k) {
    // pmf(k+1)/pmf(k) = (n-k)/(k+1) * (p/q)
    rel += std::log(static_cast<double>(n - k)) -
           std::log(static_cast<double>(k + 1)) + log_ratio_base;
    const double term = std::exp(rel);
    total += term;
    if (term < 1e-18 * total) break;
  }
  return log_start + std::log(total);
}

}  // namespace

double LogBinomCdf(std::int64_t x, std::int64_t n, double p) {
  if (x < 0) return kNegInf;
  if (x >= n) return 0.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return kNegInf;
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  // Sum the shorter side exactly when affordable.
  if (x + 1 <= kMaxExactTerms) {
    return LogBinomRangeSum(0, x, n, p);
  }
  if (n - x <= kMaxExactTerms) {
    const double log_sf = LogBinomRangeSum(x + 1, n, n, p);
    const double sf = std::exp(log_sf);
    return sf < 1.0 ? std::log1p(-sf) : kNegInf;
  }
  // Fallback: normal approximation with continuity correction.
  const double z = (static_cast<double>(x) + 0.5 - mean) / sd;
  return z < 0 ? NormalTailLogApprox(-z) : std::log(NormalCdf(z));
}

double LogBinomSf(std::int64_t x, std::int64_t n, double p) {
  if (x < 0) return 0.0;
  if (x >= n) return kNegInf;
  if (p <= 0.0) return kNegInf;
  if (p >= 1.0) return 0.0;
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  if (n - x <= kMaxExactTerms) {
    return LogBinomRangeSum(x + 1, n, n, p);
  }
  if (x + 1 <= kMaxExactTerms) {
    const double log_cdf = LogBinomRangeSum(0, x, n, p);
    const double cdf = std::exp(log_cdf);
    return cdf < 1.0 ? std::log1p(-cdf) : kNegInf;
  }
  const double z = (static_cast<double>(x) + 0.5 - mean) / sd;
  return z > 0 ? NormalTailLogApprox(z) : std::log(1.0 - NormalCdf(z));
}

double BinomCdf(std::int64_t x, std::int64_t n, double p) {
  return std::exp(LogBinomCdf(x, n, p));
}

std::int64_t BinomQuantile(double q, std::int64_t n, double p) {
  DCS_CHECK(q > 0.0 && q < 1.0);
  std::int64_t lo = 0;
  std::int64_t hi = n;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (BinomCdf(mid, n, p) >= q) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

double LogHypergeomPmf(std::int64_t k, std::int64_t big_n, std::int64_t i,
                       std::int64_t j) {
  DCS_CHECK(i >= 0 && i <= big_n);
  DCS_CHECK(j >= 0 && j <= big_n);
  const std::int64_t k_min = std::max<std::int64_t>(0, i + j - big_n);
  const std::int64_t k_max = std::min(i, j);
  if (k < k_min || k > k_max) return kNegInf;
  return LogChoose(static_cast<double>(i), static_cast<double>(k)) +
         LogChoose(static_cast<double>(big_n - i),
                   static_cast<double>(j - k)) -
         LogChoose(static_cast<double>(big_n), static_cast<double>(j));
}

namespace {

// log sum of hypergeometric pmf over [lo, hi], accumulated outward from the
// in-range point nearest the mode via the pmf recurrence.
double LogHypergeomRangeSum(std::int64_t lo, std::int64_t hi,
                            std::int64_t big_n, std::int64_t i,
                            std::int64_t j) {
  if (lo > hi) return kNegInf;
  const std::int64_t k_min = std::max<std::int64_t>(0, i + j - big_n);
  const std::int64_t k_max = std::min(i, j);
  lo = std::max(lo, k_min);
  hi = std::min(hi, k_max);
  if (lo > hi) return kNegInf;
  const auto mode = std::clamp<std::int64_t>(
      (i + 1) * (j + 1) / (big_n + 2), lo, hi);
  const double log_start = LogHypergeomPmf(mode, big_n, i, j);
  if (log_start == kNegInf) return kNegInf;
  double total = 1.0;  // Scaled by exp(-log_start).
  auto up_ratio = [&](std::int64_t k) {
    // pmf(k+1)/pmf(k).
    return std::log(static_cast<double>(i - k)) +
           std::log(static_cast<double>(j - k)) -
           std::log(static_cast<double>(k + 1)) -
           std::log(static_cast<double>(big_n - i - j + k + 1));
  };
  double rel = 0.0;
  for (std::int64_t k = mode; k < hi; ++k) {
    rel += up_ratio(k);
    const double term = std::exp(rel);
    total += term;
    if (term < 1e-18 * total) break;
  }
  rel = 0.0;
  for (std::int64_t k = mode; k > lo; --k) {
    rel -= up_ratio(k - 1);
    const double term = std::exp(rel);
    total += term;
    if (term < 1e-18 * total) break;
  }
  return log_start + std::log(total);
}

}  // namespace

double HypergeomCdf(std::int64_t x, std::int64_t big_n, std::int64_t i,
                    std::int64_t j) {
  const std::int64_t k_min = std::max<std::int64_t>(0, i + j - big_n);
  if (x < k_min) return 0.0;
  const std::int64_t k_max = std::min(i, j);
  if (x >= k_max) return 1.0;
  const auto mode = std::clamp<std::int64_t>(
      (i + 1) * (j + 1) / (big_n + 2), k_min, k_max);
  if (x >= mode) {
    // Short upper tail: 1 - SF.
    return 1.0 - std::exp(LogHypergeomRangeSum(x + 1, k_max, big_n, i, j));
  }
  return std::exp(LogHypergeomRangeSum(k_min, x, big_n, i, j));
}

double LogHypergeomSf(std::int64_t x, std::int64_t big_n, std::int64_t i,
                      std::int64_t j) {
  const std::int64_t k_max = std::min(i, j);
  if (x >= k_max) return kNegInf;
  const std::int64_t k_min = std::max<std::int64_t>(0, i + j - big_n);
  const std::int64_t lo = std::max(x + 1, k_min);
  const auto mode = std::clamp<std::int64_t>(
      (i + 1) * (j + 1) / (big_n + 2), k_min, k_max);
  if (lo <= mode) {
    // The sum includes the mode: compute via the complement, whose terms
    // decay away from the mode.
    const double log_cdf = LogHypergeomRangeSum(k_min, lo - 1, big_n, i, j);
    const double cdf = std::exp(log_cdf);
    return cdf < 1.0 ? std::log1p(-cdf) : kNegInf;
  }
  return LogHypergeomRangeSum(lo, k_max, big_n, i, j);
}

std::int64_t HypergeomUpperThreshold(double p_star, std::int64_t big_n,
                                     std::int64_t i, std::int64_t j) {
  DCS_CHECK(p_star > 0.0 && p_star < 1.0);
  const std::int64_t k_min = std::max<std::int64_t>(0, i + j - big_n);
  const std::int64_t k_max = std::min(i, j);
  const double log_p_star = std::log(p_star);
  std::int64_t lo = k_min - 1;  // P[X > k_min - 1] = 1 > p_star.
  std::int64_t hi = k_max;      // P[X > k_max] = 0 <= p_star.
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (LogHypergeomSf(mid, big_n, i, j) <= log_p_star) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

double NormalCdf(double z) {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

}  // namespace dcs
