// Sustained-throughput soak of the continuous-operation layer
// (docs/STREAMING.md): >= 1000 synthesized epochs through the EpochRing —
// slot recycling, incremental column weights hot-starting the screen, the
// epoch tracker aging its k-of-w window — measuring steady-state
// epochs/sec, p50/p99 epoch latency, and peak RSS. The bench fails (exit
// 1) if memory does not plateau once the ring is warm, if the planted
// pattern stops being detected, or if an epoch's report is not queued by
// the Offer of that epoch's last digest: a fast leaky ring, a fast blind
// one, or one that sits on complete epochs would be worthless.
//
// Flags:
//   --smoke        short run for CI (200 epochs).
//   --epochs <n>   override the epoch count.
//   --out <path>   machine-readable results as JSON lines via the obs
//                  exporter (default BENCH_soak.json).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "dcs/epoch_ring.h"
#include "obs/exporter.h"
#include "obs/metrics.h"

namespace {

constexpr std::uint32_t kRouters = 16;
constexpr std::size_t kBits = 4096;
constexpr std::size_t kPatternRouters = 15;
constexpr std::size_t kPatternCols = 32;
constexpr std::uint64_t kPatternEvery = 7;

// Bernoulli(1/2) bitmap per (epoch, router) — the paper's aligned noise
// model — with a 15x32 all-1 pattern planted on every seventh epoch. The
// pattern must clear the natural-occurrence gate at this shape: with 4096
// columns the heaviest-96 screen runs dense (~0.8), which weakens the
// union bound enough that a 12-row pattern is no longer significant.
dcs::Digest SynthesizeDigest(std::uint64_t epoch, std::uint32_t router) {
  dcs::Digest digest;
  digest.router_id = router;
  digest.epoch_id = epoch;
  digest.kind = dcs::DigestKind::kAligned;
  digest.packets_covered = 1000;
  digest.raw_bytes_covered = 1000 * 536;
  dcs::BitVector row(kBits);
  dcs::Rng rng(epoch * 1000003 + router * 7919 + 1);
  std::uint64_t* words = row.mutable_words();
  for (std::size_t w = 0; w < row.num_words(); ++w) words[w] = rng.Next();
  if (epoch % kPatternEvery == 0 && router < kPatternRouters) {
    for (std::size_t c = 0; c < kPatternCols; ++c) row.Set(61 + 120 * c);
  }
  digest.rows.push_back(std::move(row));
  return digest;
}

// VmHWM (peak resident set) in MiB from /proc/self/status; 0 when
// unavailable (non-Linux), which disables the plateau gate.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Percentile(std::vector<double> sorted_copy, double p) {
  if (sorted_copy.empty()) return 0.0;
  std::sort(sorted_copy.begin(), sorted_copy.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_copy.size() - 1));
  return sorted_copy[idx];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs;
  bool smoke = false;
  std::uint64_t num_epochs = 0;
  std::string out_path = "BENCH_soak.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      num_epochs = static_cast<std::uint64_t>(
          std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: %s [--smoke] [--epochs <n>] [--out <path>]\n",
                  argv[0]);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }
  if (num_epochs == 0) num_epochs = smoke ? 200 : 1200;

  const BenchScale scale = BenchScaleFromEnv();
  bench::Banner("Section V-B.1", "sustained-operation soak (EpochRing)",
                scale);
  std::printf("epochs: %llu   routers: %u   bits/bitmap: %zu\n",
              static_cast<unsigned long long>(num_epochs), kRouters, kBits);

  MetricsRegistry::Global().set_enabled(true);

  EpochRingOptions options;
  options.capacity = 8;
  options.policy = ShedPolicy::kBlock;
  options.aligned.n_prime = 96;
  options.aligned.detector.first_iteration_hopefuls = 96;
  options.aligned.detector.hopefuls = 48;
  options.aligned.incremental_weights = true;
  options.ingest.expected_routers = kRouters;
  EpochRing ring(options);

  const std::uint64_t warmup = num_epochs / 4;
  std::vector<double> epoch_seconds;
  epoch_seconds.reserve(num_epochs);
  double warm_rss_mb = 0.0;
  double warm_started_at = 0.0;

  std::vector<DcsReport> reports;
  reports.reserve(num_epochs);
  const double bench_start = bench::NowSeconds();
  for (std::uint64_t e = 0; e < num_epochs; ++e) {
    const double t = bench::NowSeconds();
    for (std::uint32_t r = 0; r < kRouters; ++r) {
      const Status status = ring.Offer(SynthesizeDigest(e, r));
      if (!status.ok()) {
        std::fprintf(stderr, "FATAL: epoch %llu router %u refused: %s\n",
                     static_cast<unsigned long long>(e), r,
                     status.ToString().c_str());
        return 1;
      }
    }
    epoch_seconds.push_back(bench::NowSeconds() - t);
    // Gate 1 — every router reported, so the epoch's last Offer closed it.
    std::vector<DcsReport> closed = ring.TakeReports();
    if (closed.size() != 1 || closed.front().epoch_id != e) {
      std::fprintf(stderr,
                   "FATAL: epoch %llu complete but %zu reports queued by "
                   "its last digest\n",
                   static_cast<unsigned long long>(e), closed.size());
      return 1;
    }
    reports.push_back(std::move(closed.front()));
    if (e + 1 == warmup) {
      // Ring is warm: every slot has been through at least one recycle.
      warm_rss_mb = PeakRssMb();
      warm_started_at = bench::NowSeconds();
    }
  }
  const double total_s = bench::NowSeconds() - bench_start;
  const double steady_s = bench::NowSeconds() - warm_started_at;
  const double peak_rss_mb = PeakRssMb();

  std::uint64_t detections = 0;
  std::uint64_t planted = 0;
  for (const DcsReport& report : reports) {
    detections += report.aligned.common_content_detected ? 1 : 0;
    planted += report.epoch_id % kPatternEvery == 0 ? 1 : 0;
  }

  const double steady_epochs = static_cast<double>(num_epochs - warmup);
  const double epochs_per_sec =
      steady_s > 0.0 ? steady_epochs / steady_s : 0.0;
  const std::vector<double> steady_lat(
      epoch_seconds.begin() + static_cast<std::ptrdiff_t>(warmup),
      epoch_seconds.end());
  const double p50_ms = Percentile(steady_lat, 0.50) * 1e3;
  const double p99_ms = Percentile(steady_lat, 0.99) * 1e3;

  TablePrinter table({"quantity", "value"});
  table.AddRow({"epochs", std::to_string(num_epochs)});
  table.AddRow({"steady epochs/sec", TablePrinter::Fmt(epochs_per_sec, 1)});
  table.AddRow({"p50 epoch ms", TablePrinter::Fmt(p50_ms, 3)});
  table.AddRow({"p99 epoch ms", TablePrinter::Fmt(p99_ms, 3)});
  table.AddRow({"peak RSS MiB", TablePrinter::Fmt(peak_rss_mb, 1)});
  table.AddRow({"complete closes",
                std::to_string(ring.stats().complete_closes)});
  table.AddRow({"detections", std::to_string(detections) + "/" +
                                  std::to_string(planted) + " planted"});
  table.Print(std::cout);

  // Gate 2 — the ring must detect what was planted (throughput of a blind
  // pipeline is meaningless). A small shortfall is tolerated: a planted
  // column can tie-lose its screen slot to noise in rare epochs.
  if (detections * 10 < planted * 8) {
    std::fprintf(stderr, "FATAL: only %llu of %llu planted epochs detected\n",
                 static_cast<unsigned long long>(detections),
                 static_cast<unsigned long long>(planted));
    return 1;
  }
  // Gate 3 — memory plateau: once every slot has been recycled, peak RSS
  // must stop growing (10% + 16 MiB slack for allocator noise). A drifting
  // peak means per-epoch state is escaping the ring.
  if (warm_rss_mb > 0.0 && peak_rss_mb > warm_rss_mb * 1.10 + 16.0) {
    std::fprintf(stderr,
                 "FATAL: peak RSS did not plateau: %.1f MiB warm vs %.1f "
                 "MiB final\n",
                 warm_rss_mb, peak_rss_mb);
    return 1;
  }
  std::printf(
      "\nPeak RSS plateaued (%.1f MiB warm vs %.1f MiB final) and every\n"
      "slot recycled %llu+ times — per-epoch state stays inside the ring.\n",
      warm_rss_mb, peak_rss_mb,
      static_cast<unsigned long long>(num_epochs / options.capacity));

  // Scale-independent names so a smoke run diffs against a full-run
  // snapshot (tools/bench_compare): bench.soak.<quantity>. Throughput and
  // latency are machine-dependent — the compare tool treats them with
  // noise-aware thresholds — while detection_ratio is exact.
  ObsGauge("bench.soak.epochs").Set(static_cast<double>(num_epochs));
  ObsGauge("bench.soak.epochs_per_sec").Set(epochs_per_sec);
  ObsGauge("bench.soak.p50_epoch_ms").Set(p50_ms);
  ObsGauge("bench.soak.p99_epoch_ms").Set(p99_ms);
  ObsGauge("bench.soak.peak_rss_mb").Set(peak_rss_mb);
  ObsGauge("bench.soak.detection_ratio")
      .Set(planted > 0
               ? static_cast<double>(detections) / static_cast<double>(planted)
               : 0.0);
  ObsGauge("bench.soak.total_s").Set(total_s);

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
