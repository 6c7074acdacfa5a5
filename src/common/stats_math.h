#ifndef DCS_COMMON_STATS_MATH_H_
#define DCS_COMMON_STATS_MATH_H_

#include <cstdint>

namespace dcs {

/// log|Gamma(x)|, the value std::lgamma returns. Unlike std::lgamma it never
/// writes the global `signgam`, so concurrent callers (the pooled lambda
/// calibration) do not race.
double LogGamma(double x);

/// Natural log of n choose k; -inf when k < 0 or k > n.
double LogChoose(double n, double k);

/// log(exp(a) + exp(b)) without overflow.
double LogSumExp(double a, double b);

/// Natural log of the Binomial(n, p) probability mass at k.
/// Returns -inf outside the support.
double LogBinomPmf(std::int64_t k, std::int64_t n, double p);

/// P[X <= x] for X ~ Binomial(n, p). This is the paper's `binocdf(x, n, p)`.
/// Exact summation from whichever tail is shorter; stable for n up to ~1e9
/// when the short tail has O(1e6) terms or the result saturates at 0/1.
double BinomCdf(std::int64_t x, std::int64_t n, double p);

/// log P[X <= x]; usable when the lower tail underflows a double.
double LogBinomCdf(std::int64_t x, std::int64_t n, double p);

/// log P[X > x]; usable when the upper tail underflows a double.
double LogBinomSf(std::int64_t x, std::int64_t n, double p);

/// Smallest x such that BinomCdf(x, n, p) >= q, for q in (0,1).
std::int64_t BinomQuantile(double q, std::int64_t n, double p);

/// Natural log of the hypergeometric pmf: drawing j marked items without
/// replacement from a population of N of which i are marked, probability that
/// k of the drawn are marked. This is the paper's X(i, j) with N = 1024.
double LogHypergeomPmf(std::int64_t k, std::int64_t big_n, std::int64_t i,
                       std::int64_t j);

/// P[X <= x] for the hypergeometric above.
double HypergeomCdf(std::int64_t x, std::int64_t big_n, std::int64_t i,
                    std::int64_t j);

/// log P[X > x] for the hypergeometric above.
double LogHypergeomSf(std::int64_t x, std::int64_t big_n, std::int64_t i,
                      std::int64_t j);

/// Smallest threshold lambda such that P[X > lambda] <= p_star, i.e. the
/// paper's per-row-pair threshold lambda_{i,j} (Section IV-B).
std::int64_t HypergeomUpperThreshold(double p_star, std::int64_t big_n,
                                     std::int64_t i, std::int64_t j);

/// Standard normal CDF.
double NormalCdf(double z);

}  // namespace dcs

#endif  // DCS_COMMON_STATS_MATH_H_
