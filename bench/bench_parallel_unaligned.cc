// Section IV-D: strong-scaling of the unaligned analysis pipeline. Times
// what DcsMonitor runs per unaligned epoch -- BuildCorrelationGraphs (row
// weights, the ER and core lambda calibration, one fused pair scan) and
// DetectUnalignedPattern on the core graph (min-degree peel, survivor
// expansion, second core) -- serially and at 1/2/4/8 threads. The build is
// timed with a cold lambda pair (fresh tables, as the monitor's first
// epoch) and a warm one (the same tables again, as every later epoch of
// the same shape). Each time is the median of 5 runs; the warm build is
// also reported per row pair (warm_pair_ns: the warm time over
// C(groups, 2) x arrays^2 row pairs), the unit the pair-scan kernels are
// tuned in, under the kernel tier the banner names and the snapshot
// records (kernel_tier.<name> = 1). Every run asserts
// both graphs equal single-table BuildCorrelationGraph builds and the
// detection equals the serial one before a speedup is reported (a fast
// wrong answer would be worthless).
//
// Flags:
//   --smoke        128-group scenario (the CI scalar-kernels pass).
//   --out <path>   Where to write the machine-readable results as JSON
//                  lines via the obs exporter (default
//                  BENCH_parallel_unaligned.json in the working directory).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/lambda_table.h"
#include "analysis/unaligned_detector.h"
#include "analysis/unaligned_graph_builder.h"
#include "bench_util.h"
#include "common/bit_kernels.h"
#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "obs/exporter.h"
#include "obs/metrics.h"

namespace {

// Group-major matrix of `groups` x `arrays` rows: ~1/4-full random rows
// (two ANDed random words per word) with a planted cluster — `planted`
// groups sharing `signal` common indices in their first array, the paper's
// common-content model at measurement scale.
dcs::BitMatrix PlantedGroupMatrix(std::size_t groups, std::size_t arrays,
                                  std::size_t bits, std::size_t planted,
                                  std::size_t signal, dcs::Rng* rng) {
  dcs::BitMatrix matrix(groups * arrays, bits);
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    dcs::BitVector& row = matrix.row(r);
    std::uint64_t* words = row.mutable_words();
    for (std::size_t w = 0; w < row.num_words(); ++w) {
      words[w] = rng->Next() & rng->Next();
    }
    if (bits % 64 != 0) {
      words[row.num_words() - 1] &= (1ULL << (bits % 64)) - 1;
    }
  }
  const std::size_t stride = groups / planted;
  for (std::size_t k = 0; k < planted; ++k) {
    const std::size_t row = (k * stride) * arrays;
    for (std::size_t s = 0; s < signal; ++s) {
      matrix.Set(row, (s * 797 + 31) % bits);  // Scattered shared content.
    }
  }
  return matrix;
}

bool SameDetection(const dcs::UnalignedDetection& a,
                   const dcs::UnalignedDetection& b) {
  return a.core == b.core && a.second_core == b.second_core &&
         a.detected == b.detected;
}

// One gauge per measured quantity, named so the JSON is self-describing:
// bench.parallel_unaligned.g<groups>.t<threads>.<quantity>.
void RecordGauge(std::size_t groups, const std::string& threads,
                 const char* quantity, double value) {
  const std::string name = "bench.parallel_unaligned.g" +
                           std::to_string(groups) + ".t" + threads + "." +
                           quantity;
  dcs::ObsGauge(name).Set(value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs;
  bool smoke = false;
  std::string out_path = "BENCH_parallel_unaligned.json";
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
  bench::Banner("Section IV-D", "unaligned-analysis strong scaling", scale);
  std::printf("kernel tier: %s\n", ActiveBitKernels().name);

  // Full runs include the smoke scenario (128 groups) so a committed full
  // snapshot and a CI --smoke run share metric names for tools/bench_compare.
  const std::vector<std::size_t> group_counts =
      smoke ? std::vector<std::size_t>{128}
            : (scale == BenchScale::kPaper
                   ? std::vector<std::size_t>{128, 1024, 2048}
                   : std::vector<std::size_t>{128, 1024});
  const std::size_t arrays = 4;
  const std::size_t bits = 1024;
  // 0 = no pool (the serial engine).
  const std::vector<std::size_t> thread_counts = {0, 1, 2, 4, 8};

  MetricsRegistry::Global().set_enabled(true);

  Rng rng(bench::EnvSeed("DCS_SEED", 43));
  constexpr int kReps = 5;
  const Counter& row_pairs = ObsCounter("pairscan.row_pairs_compared");
  const Counter& entries = ObsCounter("unaligned.lambda_calibrated_entries");
  TablePrinter table({"groups", "threads", "cold s", "warm s",
                      "warm ns/pair", "detect s", "total s", "speedup",
                      "row pairs", "lambda cold"});
  for (std::size_t groups : group_counts) {
    const std::size_t planted = groups / 16;
    const BitMatrix matrix =
        PlantedGroupMatrix(groups, arrays, bits, planted, 160, &rng);

    // The pipeline's two calibrations: p* from the null edge probabilities
    // 0.665/n (ER graph) and 8.2/n (core graph), Section IV-B.
    const double n = static_cast<double>(groups);
    const double er_p_star = LambdaTable::PStarFromEdgeProb(0.665 / n, arrays);
    const double core_p_star = LambdaTable::PStarFromEdgeProb(8.2 / n, arrays);
    GraphBuilderOptions builder;
    builder.arrays_per_group = arrays;
    UnalignedDetectorOptions detector;
    detector.beta = planted < 8 ? planted : planted - 4;
    detector.expand_min_edges = 2;

    // Reference: one single-table build per graph, serial.
    const Graph reference_er =
        BuildCorrelationGraph(matrix, LambdaTable(bits, er_p_star), builder);
    const Graph reference_core =
        BuildCorrelationGraph(matrix, LambdaTable(bits, core_p_star), builder);
    const UnalignedDetection reference =
        DetectUnalignedPattern(reference_core, detector);
    if (reference.core.size() != detector.beta) {
      std::fprintf(stderr, "FATAL: serial core has %zu vertices, want %zu\n",
                   reference.core.size(), detector.beta);
      return 1;
    }

    double serial_total_s = 0.0;
    for (const std::size_t threads : thread_counts) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      const std::string label =
          threads == 0 ? "serial" : std::to_string(threads);
      GraphBuilderOptions pooled_builder = builder;
      pooled_builder.scan.pool = pool.get();
      std::vector<double> cold_s, warm_s, detect_s;
      std::uint64_t cold_pairs = 0, warm_pairs = 0;
      std::uint64_t cold_entries = 0, warm_entries = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        const LambdaTable er(bits, er_p_star);
        const LambdaTable core(bits, core_p_star);
        for (const bool warm : {false, true}) {
          const std::uint64_t pairs_before = row_pairs.value();
          const std::uint64_t entries_before = entries.value();
          const double t = bench::NowSeconds();
          const auto [er_graph, core_graph] =
              BuildCorrelationGraphs(matrix, er, core, pooled_builder);
          (warm ? warm_s : cold_s).push_back(bench::NowSeconds() - t);
          (warm ? warm_pairs : cold_pairs) = row_pairs.value() - pairs_before;
          (warm ? warm_entries : cold_entries) =
              entries.value() - entries_before;
          if (er_graph.edges() != reference_er.edges() ||
              core_graph.edges() != reference_core.edges()) {
            std::fprintf(stderr,
                         "FATAL: fused graphs diverged at %s threads, "
                         "groups=%zu\n",
                         label.c_str(), groups);
            return 1;
          }
          if (!warm) continue;
          const double d = bench::NowSeconds();
          const UnalignedDetection detection =
              DetectUnalignedPattern(core_graph, detector);
          detect_s.push_back(bench::NowSeconds() - d);
          if (!SameDetection(reference, detection)) {
            std::fprintf(stderr,
                         "FATAL: detection diverged at %s threads, "
                         "groups=%zu\n",
                         label.c_str(), groups);
            return 1;
          }
        }
      }
      // A steady epoch: warm build plus detection.
      const double cold = bench::Median(cold_s);
      const double warm = bench::Median(warm_s);
      const double detect = bench::Median(detect_s);
      const double total_s = warm + detect;
      if (threads == 0) serial_total_s = total_s;
      const double speedup = serial_total_s / total_s;
      // Every row pair of every group pair, compared or skipped as empty.
      const double all_row_pairs = n * (n - 1.0) / 2.0 *
                                   static_cast<double>(arrays * arrays);
      const double warm_pair_ns = warm / all_row_pairs * 1e9;
      table.AddRow({std::to_string(groups), label, TablePrinter::Fmt(cold, 3),
                    TablePrinter::Fmt(warm, 3),
                    TablePrinter::Fmt(warm_pair_ns, 2),
                    TablePrinter::Fmt(detect, 4),
                    TablePrinter::Fmt(total_s, 3),
                    TablePrinter::Fmt(speedup, 2),
                    std::to_string(warm_pairs), std::to_string(cold_entries)});
      RecordGauge(groups, label, "cold_graphs_s", cold);
      RecordGauge(groups, label, "warm_graphs_s", warm);
      RecordGauge(groups, label, "warm_pair_ns", warm_pair_ns);
      RecordGauge(groups, label, "detect_s", detect);
      RecordGauge(groups, label, "total_s", total_s);
      RecordGauge(groups, label, "speedup", speedup);
      RecordGauge(groups, label, "cold_row_pairs",
                  static_cast<double>(cold_pairs));
      RecordGauge(groups, label, "warm_row_pairs",
                  static_cast<double>(warm_pairs));
      RecordGauge(groups, label, "cold_lambda_entries_computed",
                  static_cast<double>(cold_entries));
      RecordGauge(groups, label, "warm_lambda_entries_computed",
                  static_cast<double>(warm_entries));
    }
  }
  ObsGauge("bench.parallel_unaligned.host_cpus")
      .Set(static_cast<double>(std::thread::hardware_concurrency()));
  // The tier the times were taken on, as a name: a snapshot from another
  // tier shows in tools/bench_compare as a metric only one side has.
  ObsGauge(std::string("bench.parallel_unaligned.kernel_tier.") +
           ActiveBitKernels().name)
      .Set(1.0);
  table.Print(std::cout);
  std::printf(
      "\nMedians of %d runs. Both fused graphs equal single-table builds\n"
      "and every detection equals the serial one (core, second core,\n"
      "detected set). total = warm build + detect, a steady epoch; speedup\n"
      "is against the serial total. Speedups are bounded by the machine's\n"
      "core count (%u here): on a single core every row measures\n"
      "scheduling overhead, not scaling.\n",
      kReps, std::thread::hardware_concurrency());

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
