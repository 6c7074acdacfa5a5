// Micro-benchmark for the runtime-dispatched bit kernels (the AND+popcount
// hot path every detector bottoms out in). Compares three implementations
// of each primitive:
//   seed    — the word-at-a-time loop the repo shipped with (reproduced
//             here verbatim as the baseline),
//   scalar  — the portable kernel table (multi-accumulator loops),
//   active  — whatever ActiveBitKernels() dispatched to on this host
//             (AVX-512 / AVX2 / NEON / scalar; DCS_FORCE_SCALAR=1 pins it
//             to scalar).
// The headline number is and_count_columns in ns per column: one product
// against a contiguous block of 1000 two-word screened columns, the aligned
// search's only count, on each tier this host runs; the headline reads the
// active tier, so DCS_FORCE_SCALAR=1 reports the scalar one. The tile lines
// time the unaligned pair scan's shape: and_count_tile over every group
// pair of 512 groups x 10 rows x 1024 bits, in ns per row pair on each tier
// this host runs, then the whole warm serial scan (BuildCorrelationGraphs)
// on the active tier. The per-column lines time the aligned epoch's passes
// around those counts on each tier: accumulate_column_counts in ns per
// row-word over 40 and 100 rows of 1 Mbit (the core scan and the cold
// weights), add_row_to_byte_lanes in us per 1 Mbit row (the running
// weights), and select_at_least in ns per value (the search's floor).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/lambda_table.h"
#include "analysis/unaligned_graph_builder.h"
#include "bench_util.h"
#include "common/bit_kernels.h"
#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/table_printer.h"

namespace {

// The seed implementation: one popcount per word, one serial accumulator.
std::size_t SeedCountOnes(const std::uint64_t* words, std::size_t num_words) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < num_words; ++w) {
    count += static_cast<std::size_t>(std::popcount(words[w]));
  }
  return count;
}

std::vector<std::uint64_t> RandomWords(dcs::Rng* rng, std::size_t num_words) {
  std::vector<std::uint64_t> words(num_words);
  for (std::uint64_t& w : words) w = rng->Next();
  return words;
}

// Every kernel table this host runs, scalar first.
std::vector<const dcs::BitKernelOps*> RunnableTiers() {
  std::vector<const dcs::BitKernelOps*> tiers = {&dcs::ScalarBitKernels()};
  for (const auto* simd : dcs::internal::RunnableSimdBitKernels()) {
    tiers.push_back(simd);
  }
  return tiers;
}

// Wall time per call, amortized over enough repetitions to outlast timer
// noise; the checksum defeats dead-code elimination.
template <typename Fn>
double SecsPerCall(int reps, std::uint64_t* checksum, Fn&& fn) {
  const double t = dcs::bench::NowSeconds();
  for (int r = 0; r < reps; ++r) *checksum += fn();
  return (dcs::bench::NowSeconds() - t) / reps;
}

}  // namespace

int main() {
  using namespace dcs;
  const BenchScale scale = BenchScaleFromEnv();
  bench::Banner("bit kernels", "AND+popcount hot-path dispatch layer", scale);
  std::printf("active kernel table: %s\n\n", ActiveBitKernels().name);

  Rng rng(bench::EnvSeed("DCS_SEED", 77));
  std::uint64_t checksum = 0;

  // --- count_ones on one stream.
  {
    TablePrinter table({"bits", "seed GB/s", "scalar GB/s", "active GB/s",
                        "active/seed"});
    for (std::size_t bits : {std::size_t{1} << 20, std::size_t{4} << 20}) {
      const std::size_t words = bits / 64;
      const auto a = RandomWords(&rng, words);
      const int reps = 400;
      const double seed_s = SecsPerCall(
          reps, &checksum, [&] { return SeedCountOnes(a.data(), words); });
      const double scalar_s = SecsPerCall(reps, &checksum, [&] {
        return ScalarBitKernels().count_ones(a.data(), words);
      });
      const double active_s = SecsPerCall(reps, &checksum, [&] {
        return ActiveBitKernels().count_ones(a.data(), words);
      });
      const double bytes = static_cast<double>(words) * 8.0;
      table.AddRow({std::to_string(bits),
                    TablePrinter::Fmt(bytes / seed_s / 1e9, 2),
                    TablePrinter::Fmt(bytes / scalar_s / 1e9, 2),
                    TablePrinter::Fmt(bytes / active_s / 1e9, 2),
                    TablePrinter::Fmt(seed_s / active_s, 2)});
    }
    std::printf("count_ones (weight):\n");
    table.Print(std::cout);
  }

  // --- and_count_columns: one product against a block of 1000 screened
  // columns, the aligned search's count at n' = 1000, on each runnable
  // tier. The headline is two words per column (m = 65..128 routers).
  {
    const std::size_t num_cols = 1000;
    const int calls = 20000;
    const std::vector<const BitKernelOps*> tiers = RunnableTiers();
    TablePrinter table({"tier", "words/col", "ns/column", "vs scalar"});
    std::vector<std::uint32_t> out(num_cols);
    double headline_ns = 0.0;
    double headline_scalar_ns = 0.0;
    for (std::size_t wpc : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      const auto block = RandomWords(&rng, num_cols * wpc);
      const auto left = RandomWords(&rng, wpc);
      double scalar_ns = 0.0;
      for (const BitKernelOps* tier : tiers) {
        std::vector<double> runs;
        for (int rep = 0; rep < 5; ++rep) {
          runs.push_back(SecsPerCall(1, &checksum, [&] {
            std::uint64_t sum = 0;
            for (int call = 0; call < calls; ++call) {
              tier->and_count_columns(left.data(), block.data(), num_cols,
                                      wpc, out.data());
              sum += out[static_cast<std::size_t>(call) % num_cols];
            }
            return sum;
          }));
        }
        const double ns = bench::Median(runs) /
                          (static_cast<double>(calls) *
                           static_cast<double>(num_cols)) * 1e9;
        if (tier == tiers.front()) scalar_ns = ns;
        table.AddRow({tier->name, std::to_string(wpc),
                      TablePrinter::Fmt(ns, 3),
                      TablePrinter::Fmt(scalar_ns / ns, 2)});
        if (wpc == 2 && tier == &ActiveBitKernels()) {
          headline_ns = ns;
          headline_scalar_ns = scalar_ns;
        }
      }
    }
    std::printf("\nand_count_columns (one product vs a block of %zu "
                "columns; median of 5):\n", num_cols);
    table.Print(std::cout);
    if (headline_ns > 0.0) {
      std::printf("\nheadline: and_count_columns at 2 words per column = "
                  "%.3f ns/column on %s (%.2fx scalar)\n", headline_ns,
                  ActiveBitKernels().name, headline_scalar_ns / headline_ns);
    }
  }

  // --- The aligned epoch's per-column passes on each runnable tier: the
  // positional popcount (core scan, cold weights), the byte-lane add of
  // one row (running weights) and the search's floor select.
  {
    const std::size_t words = (std::size_t{1} << 20) / 64;  // 1 Mbit rows.
    const std::vector<const BitKernelOps*> tiers = RunnableTiers();
    std::vector<std::vector<std::uint64_t>> rows;
    std::vector<const std::uint64_t*> ptrs;
    for (std::size_t r = 0; r < 100; ++r) {
      rows.push_back(RandomWords(&rng, words));
      for (std::uint64_t& w : rows.back()) w &= rng.Next();  // ~1/4 fill.
      ptrs.push_back(rows.back().data());
    }
    TablePrinter table({"tier", "kernel", "shape", "time", "vs scalar"});
    std::vector<std::uint32_t> counts(words * 64);
    for (const std::size_t num_rows : {std::size_t{40}, std::size_t{100}}) {
      double scalar_ns = 0.0;
      for (const BitKernelOps* tier : tiers) {
        std::vector<double> runs;
        for (int rep = 0; rep < 5; ++rep) {
          std::fill(counts.begin(), counts.end(), 0u);
          runs.push_back(SecsPerCall(1, &checksum, [&] {
            tier->accumulate_column_counts(ptrs.data(), num_rows, 0, words,
                                           counts.data());
            return std::uint64_t{counts[words * 64 - 1]};
          }));
        }
        const double ns = bench::Median(runs) * 1e9 /
                          static_cast<double>(num_rows * words);
        if (tier == tiers.front()) scalar_ns = ns;
        table.AddRow({tier->name, "accumulate_column_counts",
                      std::to_string(num_rows) + " x 1 Mbit",
                      TablePrinter::Fmt(ns, 3) + " ns/row-word",
                      TablePrinter::Fmt(scalar_ns / ns, 2)});
      }
    }
    {
      std::vector<std::uint8_t> lanes(words * 64);
      double scalar_us = 0.0;
      for (const BitKernelOps* tier : tiers) {
        std::vector<double> runs;
        for (int rep = 0; rep < 5; ++rep) {
          std::fill(lanes.begin(), lanes.end(), std::uint8_t{0});
          // 100 rows, under the 255 a byte lane holds.
          runs.push_back(SecsPerCall(1, &checksum, [&] {
            for (const std::uint64_t* row : ptrs) {
              tier->add_row_to_byte_lanes(row, words, lanes.data());
            }
            return std::uint64_t{lanes[words * 64 - 1]};
          }));
        }
        const double us =
            bench::Median(runs) * 1e6 / static_cast<double>(ptrs.size());
        if (tier == tiers.front()) scalar_us = us;
        table.AddRow({tier->name, "add_row_to_byte_lanes", "1 Mbit row",
                      TablePrinter::Fmt(us, 2) + " us/row",
                      TablePrinter::Fmt(scalar_us / us, 2)});
      }
    }
    {
      // The search's shape: 1000 counts of up to 128 per call, against a
      // floor that keeps about 1 % or about half of them.
      const std::size_t n = 1000;
      const int calls = 20000;
      std::vector<std::uint32_t> values(n);
      for (std::uint32_t& v : values) {
        v = static_cast<std::uint32_t>(rng.UniformInt(128));
      }
      std::vector<std::uint32_t> out(n);
      for (const std::uint32_t floor : {127u, 64u}) {
        double scalar_ns = 0.0;
        for (const BitKernelOps* tier : tiers) {
          std::vector<double> runs;
          for (int rep = 0; rep < 5; ++rep) {
            runs.push_back(SecsPerCall(1, &checksum, [&] {
              std::uint64_t kept = 0;
              for (int call = 0; call < calls; ++call) {
                kept += tier->select_at_least(values.data(), n, floor,
                                              out.data());
              }
              return kept;
            }));
          }
          const double ns = bench::Median(runs) * 1e9 /
                            (static_cast<double>(calls) *
                             static_cast<double>(n));
          if (tier == tiers.front()) scalar_ns = ns;
          table.AddRow({tier->name, "select_at_least",
                        floor == 127u ? "keeps ~1%" : "keeps ~50%",
                        TablePrinter::Fmt(ns, 3) + " ns/value",
                        TablePrinter::Fmt(scalar_ns / ns, 2)});
        }
      }
    }
    std::printf("\naligned per-column passes (1/4-fill rows; median of 5):\n");
    table.Print(std::cout);
  }

  // --- and_count_tile: the unaligned pair scan's 10 x 10 group-pair tiles
  // of 1024-bit rows, every pair of 512 groups, on each runnable tier.
  {
    const std::size_t groups = 512;
    const std::size_t arrays = 10;
    const std::size_t bits = 1024;
    BitMatrix matrix(groups * arrays, bits);
    std::vector<const std::uint64_t*> rows(matrix.rows());
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      std::uint64_t* words = matrix.row(r).mutable_words();
      for (std::size_t w = 0; w < matrix.row(r).num_words(); ++w) {
        words[w] = rng.Next() & rng.Next();  // ~1/4 fill.
      }
      rows[r] = words;
    }
    const double row_pairs = static_cast<double>(groups * (groups - 1) / 2) *
                             static_cast<double>(arrays * arrays);
    const std::vector<const BitKernelOps*> tiers = RunnableTiers();
    TablePrinter table({"tier", "ns/row pair", "vs scalar"});
    std::vector<std::uint32_t> tile(arrays * arrays);
    double scalar_ns = 0.0;
    for (const BitKernelOps* tier : tiers) {
      std::vector<double> runs;
      for (int rep = 0; rep < 5; ++rep) {
        runs.push_back(SecsPerCall(1, &checksum, [&] {
          std::uint64_t sum = 0;
          for (std::size_t g1 = 0; g1 < groups; ++g1) {
            for (std::size_t g2 = g1 + 1; g2 < groups; ++g2) {
              tier->and_count_tile(&rows[g1 * arrays], arrays,
                                   &rows[g2 * arrays], arrays,
                                   matrix.row(0).num_words(), tile.data());
              sum += tile[arrays * arrays - 1];
            }
          }
          return sum;
        }));
      }
      const double ns = bench::Median(runs) / row_pairs * 1e9;
      if (tier == tiers.front()) scalar_ns = ns;
      table.AddRow({tier->name, TablePrinter::Fmt(ns, 2),
                    TablePrinter::Fmt(scalar_ns / ns, 2)});
    }
    std::printf("\nand_count_tile (10 x 10 tiles of 1024-bit rows, all "
                "pairs of 512 groups; median of 5):\n");
    table.Print(std::cout);

    // The whole warm serial scan on the active tier: tile counts, the
    // row-indexed lambda test, and the walk where a pair clears.
    const double n = static_cast<double>(groups);
    const LambdaTable er(bits, LambdaTable::PStarFromEdgeProb(0.665 / n,
                                                              arrays));
    const LambdaTable core(bits, LambdaTable::PStarFromEdgeProb(8.2 / n,
                                                                arrays));
    GraphBuilderOptions builder;
    builder.arrays_per_group = arrays;
    (void)BuildCorrelationGraphs(matrix, er, core, builder);  // Calibrate.
    std::vector<double> runs;
    for (int rep = 0; rep < 5; ++rep) {
      runs.push_back(SecsPerCall(1, &checksum, [&] {
        const auto graphs = BuildCorrelationGraphs(matrix, er, core, builder);
        return static_cast<std::uint64_t>(graphs.first.num_edges() +
                                          graphs.second.num_edges());
      }));
    }
    std::printf("\nwarm serial pair scan (BuildCorrelationGraphs, same "
                "shape, %s tier): %.2f ns/row pair (median of 5)\n",
                ActiveBitKernels().name,
                bench::Median(runs) / row_pairs * 1e9);
  }

  std::printf("(checksum %llu)\n",
              static_cast<unsigned long long>(checksum));
  return 0;
}
