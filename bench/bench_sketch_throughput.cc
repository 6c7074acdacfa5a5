// Section III-A line-speed claim: the data collection modules must keep up
// with OC-48 (2.4M packets/s) or faster. Measures the per-packet update
// paths (aligned bitmap, offset sampling, flow-split, payload hash) in
// packets/sec, each the median of 5 repetitions, plus the digest codec
// (docs/DISTRIBUTED.md): encode throughput and the sparse-vs-raw size
// reduction across fill fractions, and the analysis center's per-digest
// ingest cost — DcsMonitor::AddDigest and the encoded-size accounting
// inside it — on the 1 Mbit, quarter-full rows of the aligned paper shape.
// Those two are medians over repetitions, exported in µs per digest and ns
// per dense row byte so that the CI bench_compare step catches a size
// computation that starts encoding again.
//
// The bench fails (exit 1) if the sparse codec stops paying >= 4x at 1%
// fill — that reduction is what makes shipping early-epoch digests from
// many routers cheap, and a fast codec that stopped compressing would
// regress the distributed plane silently.
//
// Flags:
//   --smoke        short run for CI (fewer packets per path).
//   --out <path>   machine-readable results as JSON lines via the obs
//                  exporter (default BENCH_sketch_throughput.json).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "dcs/monitor.h"
#include "net/packet.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "sketch/bitmap_sketch.h"
#include "sketch/digest.h"
#include "sketch/digest_codec.h"
#include "sketch/flow_split_sketch.h"
#include "sketch/offset_sampling.h"

namespace {

using namespace dcs;

std::vector<Packet> MakePackets(std::size_t count, std::size_t payload) {
  Rng rng(1);
  std::vector<Packet> packets(count);
  for (Packet& pkt : packets) {
    pkt.flow.src_ip = static_cast<std::uint32_t>(rng.Next());
    pkt.flow.dst_ip = static_cast<std::uint32_t>(rng.Next());
    pkt.flow.src_port = static_cast<std::uint16_t>(rng.UniformInt(65536));
    pkt.flow.dst_port = static_cast<std::uint16_t>(rng.UniformInt(65536));
    pkt.payload.resize(payload);
    for (char& c : pkt.payload) {
      c = static_cast<char>(rng.UniformInt(256));
    }
  }
  return packets;
}

// Repetitions behind each per-packet rate: single runs on a shared host
// moved by 0.6-0.8x between runs minutes apart.
constexpr int kRateReps = 5;

// Runs `iters` packet updates through `update`, cycling the packet pool,
// kRateReps times, and returns the median packets/sec. The sink accumulator
// defeats dead-code elimination without a compiler barrier.
template <typename UpdateFn>
double MeasurePacketsPerSec(const std::vector<Packet>& packets,
                            std::uint64_t iters, UpdateFn update) {
  const std::size_t mask = packets.size() - 1;  // Pool sizes are powers of 2.
  std::uint64_t sink = 0;
  std::vector<double> rates;
  for (int rep = 0; rep < kRateReps; ++rep) {
    const double start = bench::NowSeconds();
    for (std::uint64_t i = 0; i < iters; ++i) {
      sink += update(packets[i & mask]);
    }
    const double elapsed = bench::NowSeconds() - start;
    rates.push_back(elapsed > 0.0 ? static_cast<double>(iters) / elapsed
                                  : 0.0);
  }
  if (sink == 0xDEADBEEF) std::printf("(unreachable sink)\n");
  return bench::Median(std::move(rates));
}

// One aligned digest row at the requested fill fraction; set bits are
// uniformly scattered, the regime the sparse codec is negotiated for.
Digest DigestAtFill(std::size_t row_bits, double fill, Rng* rng) {
  Digest digest;
  digest.router_id = 7;
  digest.epoch_id = 3;
  digest.kind = DigestKind::kAligned;
  digest.packets_covered = 1000;
  digest.raw_bytes_covered = 1000 * 536;
  BitVector row(row_bits);
  const auto target =
      static_cast<std::size_t>(fill * static_cast<double>(row_bits));
  std::size_t set = 0;
  while (set < target) {
    const std::uint64_t bit = rng->UniformInt(row_bits);
    if (row.Test(bit)) continue;
    row.Set(bit);
    ++set;
  }
  digest.rows.push_back(std::move(row));
  return digest;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sketch_throughput.json";
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
  bench::Banner("Section III-A", "per-packet update paths + digest codec",
                scale);

  const std::uint64_t iters = smoke ? (1u << 17) : (1u << 21);
  const auto packets = MakePackets(4096, 536);
  MetricsRegistry::Global().set_enabled(true);

  TablePrinter table({"path", "packets/sec (median of 5)", "vs OC-48 (2.4M)"});
  const auto add_timing = [&table](const char* label, const char* metric,
                                   double per_sec) {
    table.AddRow({label, TablePrinter::Fmt(per_sec / 1e6, 2) + "M",
                  TablePrinter::Fmt(per_sec / 2.4e6, 2) + "x"});
    ObsGauge(metric).Set(per_sec);
  };

  {
    BitmapSketchOptions opts;  // 4 Mbit paper sizing.
    BitmapSketch sketch(opts);
    add_timing("aligned bitmap update",
               "bench.sketch_throughput.aligned_update_per_sec",
               MeasurePacketsPerSec(packets, iters, [&sketch](const Packet& p) {
                 return sketch.Update(p) ? 1u : 0u;
               }));
  }
  {
    OffsetSamplingOptions opts;  // 10 arrays x 1024 bits.
    Rng rng(2);
    OffsetSamplingArrays arrays(opts, &rng);
    add_timing("offset sampling update",
               "bench.sketch_throughput.offset_update_per_sec",
               MeasurePacketsPerSec(packets, iters, [&arrays](const Packet& p) {
                 return arrays.Update(p) ? 1u : 0u;
               }));
  }
  {
    FlowSplitOptions opts;  // 128 groups, paper sizing.
    Rng rng(3);
    FlowSplitSketch sketch(opts, &rng);
    add_timing("flow-split update",
               "bench.sketch_throughput.flow_split_update_per_sec",
               MeasurePacketsPerSec(packets, iters, [&sketch](const Packet& p) {
                 return sketch.Update(p) ? 1u : 0u;
               }));
  }
  add_timing("payload hash (64B prefix)",
             "bench.sketch_throughput.payload_hash_per_sec",
             MeasurePacketsPerSec(packets, iters, [](const Packet& p) {
               return static_cast<unsigned>(
                   Hash64(p.PayloadPrefix(64), 0x5EED) & 1u);
             }));
  table.Print(std::cout);

  // Codec: sparse-vs-raw size reduction at a fixed 1 Mbit aligned row —
  // the shape is scale-independent so a smoke run diffs against the
  // committed full-run snapshot. Fill fractions bracket the early-epoch
  // (near-empty) through steady-state (half-full) regimes.
  constexpr std::size_t kCodecBits = 1 << 20;
  struct FillCase {
    double fill;
    const char* label;
    const char* metric;  // nullptr => informational row only.
  };
  const FillCase fills[] = {
      {0.001, "0.1%", "bench.sketch_throughput.sparse_reduction_0p1pct_ratio"},
      {0.01, "1%", "bench.sketch_throughput.sparse_reduction_1pct_ratio"},
      {0.10, "10%", "bench.sketch_throughput.sparse_reduction_10pct_ratio"},
      {0.50, "50%", nullptr},
  };

  TablePrinter codec_table(
      {"fill", "raw bytes", "sparse bytes", "reduction", "codec chosen"});
  Rng codec_rng(17);
  double reduction_at_1pct = 0.0;
  double sparse_encode_mb_per_sec = 0.0;
  for (const FillCase& fc : fills) {
    const Digest digest = DigestAtFill(kCodecBits, fc.fill, &codec_rng);
    const auto raw_bytes = static_cast<double>(
        EncodedPayloadSizeBytes(digest, DigestCodecId::kRaw));

    // Encode throughput in dense-equivalent MB/s: how fast a router turns
    // bitmap state into wire bytes. Only the 1% case is exported — one
    // representative regime keeps the timing metric set small.
    const int reps = smoke ? 20 : 200;
    const double start = bench::NowSeconds();
    std::vector<std::uint8_t> payload;
    for (int r = 0; r < reps; ++r) {
      payload = EncodeDigestPayload(digest, DigestCodecId::kSparse);
    }
    const double elapsed = bench::NowSeconds() - start;
    const double mb_per_sec =
        elapsed > 0.0 ? raw_bytes * reps / elapsed / 1e6 : 0.0;

    const double reduction = raw_bytes / static_cast<double>(payload.size());
    std::vector<std::uint8_t> negotiated;
    const DigestCodecId chosen = EncodeDigestPayloadAuto(digest, &negotiated);
    codec_table.AddRow(
        {fc.label, TablePrinter::Fmt(raw_bytes / 1024.0, 1) + " KiB",
         TablePrinter::Fmt(static_cast<double>(payload.size()) / 1024.0, 1) +
             " KiB",
         TablePrinter::Fmt(reduction, 2) + "x", DigestCodecName(chosen)});
    if (fc.metric != nullptr) ObsGauge(fc.metric).Set(reduction);
    if (fc.fill == 0.01) {
      reduction_at_1pct = reduction;
      sparse_encode_mb_per_sec = mb_per_sec;
    }
  }
  std::printf("\ndigest codec, %zu-bit aligned row:\n",
              static_cast<std::size_t>(kCodecBits));
  codec_table.Print(std::cout);
  ObsGauge("bench.sketch_throughput.sparse_encode_mb_per_sec")
      .Set(sparse_encode_mb_per_sec);

  // Ingest: what the analysis center pays per accepted digest before any
  // analysis — validation, byte accounting (EncodedSizeBytes) and the
  // incremental column weights — with the digest moved in, as the frame
  // dispatcher does. 1 Mbit at 1/4 fill is the aligned_paper_quarter shape.
  {
    constexpr std::uint32_t kRouters = 32;
    const int reps = smoke ? 5 : 25;
    Rng ingest_rng(29);
    const Digest quarter = DigestAtFill(kCodecBits, 0.25, &ingest_rng);
    const double row_bytes = static_cast<double>(kCodecBits / 8);

    std::vector<double> size_ns_per_byte;
    std::size_t size_sink = 0;
    for (int r = 0; r < reps; ++r) {
      const double start = bench::NowSeconds();
      size_sink += quarter.EncodedSizeBytes();
      size_ns_per_byte.push_back((bench::NowSeconds() - start) * 1e9 /
                                 row_bytes);
    }

    AlignedPipelineOptions aligned;
    aligned.incremental_weights = true;
    DcsMonitor monitor(aligned, UnalignedPipelineOptions{});
    std::vector<double> add_us_per_digest;
    for (int r = 0; r < reps; ++r) {
      std::vector<Digest> epoch(kRouters, quarter);
      for (std::uint32_t router = 0; router < kRouters; ++router) {
        epoch[router].router_id = router;
      }
      monitor.ClearEpoch();
      const double start = bench::NowSeconds();
      for (Digest& digest : epoch) {
        if (!monitor.AddDigest(std::move(digest)).ok()) {
          std::fprintf(stderr, "FATAL: AddDigest refused a bench digest\n");
          return 1;
        }
      }
      add_us_per_digest.push_back((bench::NowSeconds() - start) * 1e6 /
                                  kRouters);
    }
    const double size_ns = bench::Median(size_ns_per_byte);
    const double add_us = bench::Median(add_us_per_digest);
    std::printf(
        "\ningest, %zu-bit aligned row at 1/4 fill (median of %d):\n"
        "  encoded-size accounting  %.3f ns per dense row byte "
        "(%zu-byte digest)\n"
        "  DcsMonitor::AddDigest    %.1f us per digest\n",
        static_cast<std::size_t>(kCodecBits), reps, size_ns,
        size_sink / static_cast<std::size_t>(reps), add_us);
    ObsGauge("bench.sketch_throughput.encoded_size_per_row_byte_ns")
        .Set(size_ns);
    ObsGauge("bench.sketch_throughput.add_digest_per_digest_us").Set(add_us);
  }
  ObsGauge("bench.sketch_throughput.host_cpus")
      .Set(static_cast<double>(std::thread::hardware_concurrency()));

  // Gate — the distributed plane's sizing argument (EXPERIMENTS.md) rests
  // on near-empty digests compressing >= 4x; below that, per-frame
  // negotiation would keep choosing raw and the sparse path is dead code.
  if (reduction_at_1pct < 4.0) {
    std::fprintf(stderr,
                 "FATAL: sparse reduction at 1%% fill is %.2fx (< 4x)\n",
                 reduction_at_1pct);
    return 1;
  }
  std::printf(
      "\nsparse codec pays %.1fx at 1%% fill (gate: >= 4x), encoding\n"
      "%.0f MB/s of dense-equivalent bitmap state.\n",
      reduction_at_1pct, sparse_encode_mb_per_sec);

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
