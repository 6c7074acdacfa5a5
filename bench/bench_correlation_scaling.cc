// Section IV-D: the pairwise row-correlation cost that dominates the
// analysis center, and the paper's parallelism mitigation (the scan is
// embarrassingly parallel over group pairs). Measures wall time for growing
// group counts (each build on a fresh lambda table, median of three) and
// extrapolates to the paper's n = 102,400. The paper's
// other suggestion, scanning a vertex sample, is not offered: on the
// benchmark's unaligned traffic a 25% sample missed every planted content
// (EXPERIMENTS.md Section IV-D).

#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/lambda_table.h"
#include "analysis/unaligned_graph_builder.h"
#include "bench_util.h"
#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace {

dcs::BitMatrix RandomMatrix(std::size_t groups, std::size_t arrays,
                            std::size_t bits, dcs::Rng* rng) {
  dcs::BitMatrix matrix(groups * arrays, bits);
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    std::uint64_t* words = matrix.row(r).mutable_words();
    for (std::size_t w = 0; w < matrix.row(r).num_words(); ++w) {
      words[w] = rng->Next() & rng->Next();  // ~25% fill.
    }
  }
  return matrix;
}

}  // namespace

int main() {
  using namespace dcs;
  const BenchScale scale = BenchScaleFromEnv();
  bench::Banner("Section IV-D", "row-correlation cost and mitigations",
                scale);

  const std::size_t arrays = 10;
  const std::size_t bits = 1024;
  const std::vector<std::size_t> group_counts =
      scale == BenchScale::kPaper
          ? std::vector<std::size_t>{256, 512, 1024, 2048}
          : std::vector<std::size_t>{128, 256, 512};

  Rng rng(bench::EnvSeed("DCS_SEED", 29));
  ThreadPool pool(4);

  TablePrinter table(
      {"groups n", "serial s", "4-thread pool s", "speedup", "edges"});
  double last_serial = 0.0;
  std::size_t last_n = 0;
  for (std::size_t n : group_counts) {
    const BitMatrix matrix = RandomMatrix(n, arrays, bits, &rng);
    GraphBuilderOptions serial;
    serial.arrays_per_group = arrays;

    GraphBuilderOptions parallel = serial;
    parallel.scan.pool = &pool;

    // Each build runs on its own fresh lambda table, so both columns pay
    // the same calibration (a first epoch's cost) and neither inherits the
    // other's. Medians of three.
    Graph g_serial(0);
    std::vector<double> serial_runs, parallel_runs;
    for (int rep = 0; rep < 3; ++rep) {
      double t = bench::NowSeconds();
      g_serial = BuildCorrelationGraph(matrix, LambdaTable(bits, 1e-6), serial);
      serial_runs.push_back(bench::NowSeconds() - t);
      t = bench::NowSeconds();
      const Graph g_parallel =
          BuildCorrelationGraph(matrix, LambdaTable(bits, 1e-6), parallel);
      parallel_runs.push_back(bench::NowSeconds() - t);
      if (g_parallel.edges() != g_serial.edges()) {
        std::fprintf(stderr, "FATAL: pooled graph diverged at n = %zu\n", n);
        return 1;
      }
    }
    const double serial_s = bench::Median(serial_runs);
    const double parallel_s = bench::Median(parallel_runs);

    table.AddRow({std::to_string(n), TablePrinter::Fmt(serial_s, 3),
                  TablePrinter::Fmt(parallel_s, 3),
                  TablePrinter::Fmt(serial_s / parallel_s, 2),
                  std::to_string(g_serial.num_edges())});
    last_serial = serial_s;
    last_n = n;
  }
  table.Print(std::cout);
  const double scale_factor =
      (102400.0 / static_cast<double>(last_n)) *
      (102400.0 / static_cast<double>(last_n));
  std::printf(
      "\nextrapolated serial cost at the paper's n = 102,400: %.0f s "
      "(~%.1f h) per epoch —\nmatching the paper's 'a few hours in "
      "software... but the network generates such a workload every second'.\n"
      "The scan is embarrassingly parallel over group pairs.\n",
      last_serial * scale_factor, last_serial * scale_factor / 3600.0);
  return 0;
}
