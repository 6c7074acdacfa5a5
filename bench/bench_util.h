#ifndef DCS_BENCH_BENCH_UTIL_H_
#define DCS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"

namespace dcs {
namespace bench {

/// Prints the standard experiment banner: which paper artifact this binary
/// regenerates and at what scale it is running.
inline void Banner(const char* artifact, const char* description,
                   BenchScale scale) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("scale: %s   (set DCS_SCALE=paper for full scale, "
              "DCS_TRIALS=<k> to override trials)\n",
              BenchScaleName(scale).c_str());
  std::printf("==============================================================\n");
}

/// Monotonic wall-clock seconds.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The median of `samples` (the upper one for an even count), or 0 when
/// there are none. Benches report medians of repeated runs because single
/// wall-clock runs on a shared host move by tens of percent.
inline double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[samples.size() / 2];
}

/// RNG seed from the environment (DCS_SEED convention), as the unsigned
/// value Rng's constructor takes. Negative values wrap, which is fine for a
/// seed but is made explicit here so -Wsign-conversion stays clean.
inline std::uint64_t EnvSeed(const char* name, std::int64_t default_value) {
  return static_cast<std::uint64_t>(EnvInt64(name, default_value));
}

/// Trials with a scale-dependent default, overridable via DCS_TRIALS.
inline int Trials(BenchScale scale, int small_default, int paper_default) {
  const std::int64_t env = EnvInt64("DCS_TRIALS", 0);
  if (env > 0) return static_cast<int>(env);
  return scale == BenchScale::kPaper ? paper_default : small_default;
}

}  // namespace bench
}  // namespace dcs

#endif  // DCS_BENCH_BENCH_UTIL_H_
