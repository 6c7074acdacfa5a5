// Fig 7: weight of the heaviest b'-product vs iteration for a 1000 x 4M
// matrix with a planted 100 x 30 pattern, S1 = the 4,000 heaviest columns.
// The curve dives exponentially while noise rows are zeroed out, flattens
// while the product absorbs pattern columns, and dives again once they are
// exhausted. The full curve comes from record_full_trajectory; the same
// search run without it stops on evidence, three losing iterations after
// the product with the lowest natural-occurrence bound, which sits right
// around the number of pattern columns that survived the screen (15 in
// the paper's instance). The table shows both runs side by side.

#include <cstdio>

#include "analysis/aligned_detector.h"
#include "analysis/synthetic_matrix.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"

#include <iostream>

int main() {
  using namespace dcs;
  const BenchScale scale = BenchScaleFromEnv();
  bench::Banner("Fig 7", "weight-loss trajectory of the greedy k-product search",
                scale);

  SyntheticAlignedOptions matrix_opts;
  matrix_opts.m = 1000;
  matrix_opts.n = 4u << 20;
  matrix_opts.n_prime = 4000;
  matrix_opts.pattern_rows = 100;
  matrix_opts.pattern_cols = 30;
  if (scale != BenchScale::kPaper) {
    // Same geometry at one quarter the screen width: the three-phase shape
    // is identical and the run completes in seconds.
    matrix_opts.n_prime = 2000;
  }

  AlignedDetectorOptions detector_opts;
  detector_opts.first_iteration_hopefuls = matrix_opts.n_prime;
  detector_opts.hopefuls = 1024;
  detector_opts.max_iterations = 26;
  detector_opts.record_full_trajectory = true;

  Rng rng(bench::EnvSeed("DCS_SEED", 7));
  const double t0 = bench::NowSeconds();
  const SyntheticScreened instance =
      SampleScreenedAligned(matrix_opts, &rng);
  std::printf("planted 100 x 30 pattern; %zu pattern columns survived the "
              "heaviest-%zu screen\n",
              instance.pattern_columns_in_screen, matrix_opts.n_prime);

  const AlignedDetection detection =
      AlignedDetector(detector_opts).Detect(instance.screened);
  detector_opts.record_full_trajectory = false;
  const AlignedDetection stopped =
      AlignedDetector(detector_opts).Detect(instance.screened);
  const double elapsed = bench::NowSeconds() - t0;

  TablePrinter table({"iteration b'", "heaviest b'-product weight",
                      "loss ratio vs previous", "evidence-stop run"});
  for (std::size_t i = 0; i < detection.weight_trajectory.size(); ++i) {
    const std::size_t iteration = i + 2;
    std::string ratio = "-";
    if (i > 0 && detection.weight_trajectory[i - 1] > 0) {
      ratio = TablePrinter::Fmt(
          static_cast<double>(detection.weight_trajectory[i]) /
              static_cast<double>(detection.weight_trajectory[i - 1]),
          3);
    }
    const std::string run =
        i < stopped.weight_trajectory.size()
            ? std::to_string(stopped.weight_trajectory[i])
            : "stopped";
    table.AddRow({std::to_string(iteration),
                  std::to_string(detection.weight_trajectory[i]), ratio, run});
  }
  table.Print(std::cout);
  std::printf("\nfull curve: best product at iteration %zu (pattern columns "
              "in screen: %zu); pattern %s\n",
              detection.best_iteration, instance.pattern_columns_in_screen,
              detection.pattern_found ? "FOUND" : "not found");
  std::printf("evidence stop: ran to iteration %zu, best product at "
              "iteration %zu; pattern %s\n",
              stopped.weight_trajectory.size() + 1, stopped.best_iteration,
              stopped.pattern_found ? "FOUND" : "not found");
  std::printf("elapsed: %.1f s\n", elapsed);
  return 0;
}
