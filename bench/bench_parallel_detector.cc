// Section IV-D: cost of the aligned analysis pipeline. Times
// DetectInMatrix, which runs on the calling thread, split into its three
// stages by the `stage.*` timers: the weight screen, the k-product search
// and the core scan. Every time is the median of 5 runs. Every run asserts
// the detection equals the first one before a time is reported (a fast
// wrong answer would be worthless).
//
// Scenarios:
//   planted_c<n>   128 rows x n columns of Bernoulli(1/2) noise with a
//                  40 x 30 planted pattern, n' = 2000, cold screen.
//   quarter_c<n>   perfbench's aligned_paper_quarter shape: 100 rows at
//                  1/4 fill with a 40 x 60 pattern, n' = 1000 (500 for the
//                  smoke width), screen hot-started from column weights.
//   paper_c<n>     the paper's epoch (Section III-A): 100 rows x 4 Mbit at
//                  1/2 fill with a 40 x 30 pattern, n' = 4000 and the
//                  default hopefuls, cold screen (full run only).
//
// Per scenario the search's work is exported next to its time: the
// iterations it ran (search_iterations, one per b' from the pair pass on;
// the search stops on evidence at least three iterations after its best
// product, so a pattern wider than the budget runs all of them), the
// columns counted against a product (search_candidate_counts, from the
// detector.aligned.candidate_counts counter) and the search time per
// counted column (search_per_count_ns), and the core scan's time per
// core-row word (core_scan_per_row_word_ns: one positional-popcount
// pass over the core rows), under the kernel tier the snapshot records
// (kernel_tier.<name> = 1).
//
// Flags:
//   --smoke        The small-width scenarios only (the CI perf gate).
//   --out <path>   Where to write the machine-readable results as JSON
//                  lines via the obs exporter (default
//                  BENCH_parallel_detector.json in the working directory).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/aligned_detector.h"
#include "bench_util.h"
#include "common/bit_kernels.h"
#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "obs/exporter.h"
#include "obs/metrics.h"

namespace {

struct Scenario {
  std::string name;
  std::size_t rows = 0;
  std::size_t cols = 0;
  bool quarter_fill = false;
  std::size_t pattern_rows = 0;
  std::size_t pattern_cols = 0;
  std::size_t n_prime = 0;
  std::size_t hopefuls = 0;
  bool hot_weights = false;
};

Scenario Planted(std::size_t cols) {
  Scenario s;
  s.name = "planted_c" + std::to_string(cols);
  s.rows = 128;
  s.cols = cols;
  s.pattern_rows = 40;
  s.pattern_cols = 30;
  s.n_prime = 2000;
  s.hopefuls = dcs::AlignedDetectorOptions{}.hopefuls;
  return s;
}

// Mirrors perfbench/workloads.cc's aligned_paper_quarter (full and smoke).
Scenario Quarter(std::size_t cols, bool smoke_width) {
  Scenario s;
  s.name = "quarter_c" + std::to_string(cols);
  s.rows = 100;
  s.cols = cols;
  s.quarter_fill = true;
  s.pattern_rows = 40;
  s.pattern_cols = 60;
  s.n_prime = smoke_width ? 500 : 1000;
  s.hopefuls = smoke_width ? 128 : 256;
  s.hot_weights = true;
  return s;
}

Scenario Paper() {
  Scenario s;
  s.name = "paper_c" + std::to_string(4u << 20);
  s.rows = 100;
  s.cols = 4u << 20;
  s.pattern_rows = 40;
  s.pattern_cols = 30;
  s.n_prime = 4000;
  s.hopefuls = dcs::AlignedDetectorOptions{}.hopefuls;
  return s;
}

// Noise at 1/2 or 1/4 fill with the scenario's pattern planted in
// scattered rows and columns.
dcs::BitMatrix PlantedMatrix(const Scenario& s, dcs::Rng* rng) {
  dcs::BitMatrix matrix(s.rows, s.cols);
  for (std::size_t r = 0; r < s.rows; ++r) {
    dcs::BitVector& row = matrix.row(r);
    std::uint64_t* words = row.mutable_words();
    for (std::size_t w = 0; w < row.num_words(); ++w) {
      words[w] = s.quarter_fill ? rng->Next() & rng->Next() : rng->Next();
    }
    if (s.cols % 64 != 0) {
      words[row.num_words() - 1] &= (1ULL << (s.cols % 64)) - 1;
    }
  }
  for (std::size_t k = 0; k < s.pattern_rows; ++k) {
    const std::size_t r = (k * 7 + 3) % s.rows;
    for (std::size_t c = 0; c < s.pattern_cols; ++c) {
      matrix.Set(r, (c * 997 + 13) % s.cols);
    }
  }
  return matrix;
}

bool SameDetection(const dcs::AlignedDetection& a,
                   const dcs::AlignedDetection& b) {
  return a.pattern_found == b.pattern_found && a.rows == b.rows &&
         a.columns == b.columns &&
         a.weight_trajectory == b.weight_trajectory &&
         a.best_iteration == b.best_iteration;
}

// Seconds recorded into a stage histogram since `before_ns`.
double StageSeconds(const dcs::LatencyHistogram& hist,
                    std::uint64_t before_ns) {
  return static_cast<double>(hist.sum() - before_ns) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs;
  bool smoke = false;
  std::string out_path = "BENCH_parallel_detector.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }

  const BenchScale scale = BenchScaleFromEnv();
  bench::Banner("Section IV-D", "aligned-analysis stage costs", scale);

  // Full runs include the smoke scenarios so a committed full snapshot and
  // a CI --smoke run share metric names for tools/bench_compare.
  std::vector<Scenario> scenarios = {Planted(1u << 16),
                                     Quarter(1u << 18, true)};
  if (!smoke) {
    scenarios.push_back(Planted(1u << 20));
    scenarios.push_back(Quarter(1u << 20, false));
    scenarios.push_back(Paper());
    if (scale == BenchScale::kPaper) scenarios.push_back(Planted(4u << 20));
  }

  MetricsRegistry::Global().set_enabled(true);
  const LatencyHistogram& screen_hist = ObsHistogram("stage.weight_screen.ns");
  const LatencyHistogram& search_hist = ObsHistogram("stage.aligned_detect.ns");
  const LatencyHistogram& core_hist =
      ObsHistogram("stage.aligned_core_scan.ns");
  const Counter& iterations = ObsCounter("detector.aligned.iterations");
  const Counter& candidate_counts =
      ObsCounter("detector.aligned.candidate_counts");

  Rng rng(bench::EnvSeed("DCS_SEED", 41));
  constexpr int kReps = 5;
  TablePrinter table(
      {"scenario", "detect s", "screen s", "search s", "core scan s"});
  TablePrinter work({"scenario", "iterations", "best b'", "columns counted",
                     "search ns/count", "core rows",
                     "core scan ns/row-word"});
  for (const Scenario& s : scenarios) {
    const BitMatrix matrix = PlantedMatrix(s, &rng);
    const std::vector<std::uint32_t> weights =
        s.hot_weights ? matrix.ColumnWeights() : std::vector<std::uint32_t>{};
    const std::vector<std::uint32_t>* hot = s.hot_weights ? &weights : nullptr;
    AlignedDetectorOptions options;
    options.first_iteration_hopefuls = s.n_prime;
    options.hopefuls = s.hopefuls;

    const AlignedDetector detector(options);
    const std::uint64_t iterations_before = iterations.value();
    const std::uint64_t counts_before = candidate_counts.value();
    const AlignedDetection reference =
        detector.DetectInMatrix(matrix, s.n_prime, hot);
    const std::uint64_t search_iterations =
        iterations.value() - iterations_before;
    const std::uint64_t search_counts =
        candidate_counts.value() - counts_before;
    if (!reference.pattern_found) {
      std::fprintf(stderr, "FATAL: the detector missed the pattern in %s\n",
                   s.name.c_str());
      return 1;
    }

    // samples[stage] over the repetitions; stage 0 is the whole
    // DetectInMatrix call.
    std::vector<std::vector<double>> samples(4);
    for (int rep = 0; rep < kReps; ++rep) {
      const std::uint64_t screen0 = screen_hist.sum();
      const std::uint64_t search0 = search_hist.sum();
      const std::uint64_t core0 = core_hist.sum();
      const double t = bench::NowSeconds();
      const AlignedDetection detection =
          detector.DetectInMatrix(matrix, s.n_prime, hot);
      samples[0].push_back(bench::NowSeconds() - t);
      samples[1].push_back(StageSeconds(screen_hist, screen0));
      samples[2].push_back(StageSeconds(search_hist, search0));
      samples[3].push_back(StageSeconds(core_hist, core0));
      if (!SameDetection(reference, detection)) {
        std::fprintf(stderr, "FATAL: detection diverged in run %d, %s\n", rep,
                     s.name.c_str());
        return 1;
      }
    }

    const double detect = bench::Median(samples[0]);
    const double screen = bench::Median(samples[1]);
    const double search = bench::Median(samples[2]);
    const double core = bench::Median(samples[3]);
    table.AddRow({s.name, TablePrinter::Fmt(detect, 3),
                  TablePrinter::Fmt(screen, 3), TablePrinter::Fmt(search, 3),
                  TablePrinter::Fmt(core, 4)});
    const std::string prefix = "bench.parallel_detector." + s.name;
    ObsGauge(prefix + ".detect_s").Set(detect);
    ObsGauge(prefix + ".screen_s").Set(screen);
    ObsGauge(prefix + ".search_s").Set(search);
    ObsGauge(prefix + ".core_scan_s").Set(core);
    const double ns_per_count =
        search * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(search_counts, 1));
    const double core_row_words =
        static_cast<double>(reference.rows.size()) *
        static_cast<double>((s.cols + 63) / 64);
    const double core_ns_per_row_word = core * 1e9 / core_row_words;
    work.AddRow({s.name, std::to_string(search_iterations),
                 std::to_string(reference.best_iteration),
                 std::to_string(search_counts),
                 TablePrinter::Fmt(ns_per_count, 3),
                 std::to_string(reference.rows.size()),
                 TablePrinter::Fmt(core_ns_per_row_word, 3)});
    ObsGauge(prefix + ".search_iterations")
        .Set(static_cast<double>(search_iterations));
    ObsGauge(prefix + ".search_candidate_counts")
        .Set(static_cast<double>(search_counts));
    ObsGauge(prefix + ".search_per_count_ns").Set(ns_per_count);
    ObsGauge(prefix + ".core_scan_per_row_word_ns").Set(core_ns_per_row_word);
  }
  ObsGauge("bench.parallel_detector.host_cpus")
      .Set(static_cast<double>(std::thread::hardware_concurrency()));
  // The tier the search was timed on, as a name: a snapshot from another
  // tier shows in tools/bench_compare as a metric only one side has.
  ObsGauge(std::string("bench.parallel_detector.kernel_tier.") +
           ActiveBitKernels().name)
      .Set(1.0);
  table.Print(std::cout);
  std::printf(
      "\nMedians of %d runs on the calling thread. Every detection equals\n"
      "the first run's (rows, columns, weight trajectory, best iteration).\n",
      kReps);
  std::printf("\nSearch and core-scan work (%s kernels):\n",
              ActiveBitKernels().name);
  work.Print(std::cout);

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << SnapshotToJsonLines(snapshot);
  out.close();
  std::printf("wrote %zu metrics to %s\n", snapshot.entries.size(),
              out_path.c_str());
  return 0;
}
