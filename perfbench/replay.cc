#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "analysis/aligned_detector.h"
#include "analysis/cluster_separation.h"
#include "analysis/er_test.h"
#include "analysis/lambda_table.h"
#include "analysis/unaligned_detector.h"
#include "analysis/unaligned_graph_builder.h"
#include "analysis/weight_screen.h"
#include "common/bit_matrix.h"
#include "dcs/monitor.h"
#include "netio/frame.h"
#include "netio/ingest_server.h"
#include "sketch/digest_codec.h"

namespace perfbench {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans kept in memory; ids are indices.
class Tracer {
 public:
  std::int32_t Begin(const char* name, std::int32_t parent,
                     std::uint64_t epoch) {
    Span span;
    span.name = name;
    span.id = static_cast<std::int32_t>(spans_.size());
    span.parent = parent;
    span.epoch = epoch;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return span.id;
  }

  // Ends span `id` and returns its duration in milliseconds.
  double End(std::int32_t id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = NowNs();
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
  }

  std::vector<Span> Take() { return std::move(spans_); }

 private:
  std::vector<Span> spans_;
};

// Ingest options the ring pins on a recycled slot for `epoch`.
dcs::IngestOptions Pinned(const dcs::EpochRingOptions& ring,
                          std::uint64_t epoch) {
  dcs::IngestOptions pinned = ring.ingest;
  pinned.lock_epoch_to_first = false;
  pinned.expected_epoch = epoch;
  pinned.max_epoch_skew = 0;
  return pinned;
}

// The ingest part of the report EpochRing::CloseHead fills for a slot.
dcs::DcsReport ReportHeader(const dcs::DcsMonitor& monitor,
                            std::uint64_t epoch) {
  dcs::DcsReport report;
  report.epoch_id = epoch;
  report.digests_accepted = monitor.ingest_stats().accepted;
  report.digests_rejected = monitor.ingest_stats().rejected_total();
  report.observed_routers = monitor.ingest_stats().observed_routers;
  return report;
}

// Screen, search and the full DetectInMatrix on the epoch's matrix, after
// the monitor's own AnalyzeAligned. Returns the probe children's sum.
double ProbeAligned(const dcs::DcsMonitor& monitor,
                    const std::vector<dcs::Digest>& digests,
                    const dcs::EpochRingOptions& ring, std::int32_t parent,
                    std::uint64_t epoch, Tracer* tracer,
                    EpochSample* sample) {
  std::int32_t span = tracer->Begin("aligned.calibration", parent, epoch);
  (void)monitor.AlignedCalibration();
  double children = tracer->End(span);

  span = tracer->Begin("aligned.stack", parent, epoch);
  dcs::BitMatrix matrix;
  for (const dcs::Digest& digest : digests) {
    if (digest.kind == dcs::DigestKind::kAligned) {
      matrix.AppendRow(digest.rows.front());
    }
  }
  children += tracer->End(span);

  const std::vector<std::uint32_t>* hot =
      ring.aligned.incremental_weights
          ? &monitor.incremental_column_weights().weights()
          : nullptr;
  const dcs::AlignedDetector detector(ring.aligned.detector);
  const std::int32_t detect =
      tracer->Begin("aligned.detect_in_matrix", parent, epoch);
  (void)detector.DetectInMatrix(matrix, ring.aligned.n_prime, hot);
  sample->aligned_detect_ms = tracer->End(detect);
  children += sample->aligned_detect_ms;

  span = tracer->Begin("aligned.screen", detect, epoch);
  const dcs::ScreenedColumns screened =
      dcs::ScreenHeaviestColumns(matrix, ring.aligned.n_prime, nullptr, hot);
  sample->aligned_screen_ms = tracer->End(span);
  sample->aligned_screen_cols = screened.columns.size();

  span = tracer->Begin("aligned.search", detect, epoch);
  const dcs::AlignedDetection detection = detector.Detect(screened);
  sample->aligned_search_ms = tracer->End(span);
  sample->aligned_iterations = detection.weight_trajectory.size();
  return children;
}

// Lambda calibration, graph builds, ER test, peel and cluster separation,
// in AnalyzeUnaligned's order. Returns the probe children's sum.
double ProbeUnaligned(const dcs::DcsMonitor& monitor,
                      const std::vector<dcs::Digest>& digests,
                      std::int32_t parent,
                      std::uint64_t epoch, Tracer* tracer,
                      EpochSample* sample) {
  const dcs::UnalignedPipelineOptions& options = monitor.unaligned_options();
  std::int32_t span = tracer->Begin("unaligned.calibration", parent, epoch);
  (void)monitor.UnalignedCalibration();
  double children = tracer->End(span);

  span = tracer->Begin("unaligned.stack", parent, epoch);
  dcs::BitMatrix matrix;
  std::size_t groups = 0;
  std::size_t arrays = 1;
  for (const dcs::Digest& digest : digests) {
    if (digest.kind != dcs::DigestKind::kUnaligned) continue;
    groups += digest.num_groups;
    arrays = digest.arrays_per_group;
    for (const dcs::BitVector& row : digest.rows) matrix.AppendRow(row);
  }
  children += tracer->End(span);
  if (groups < 2) return children;

  dcs::GraphBuilderOptions builder = options.builder;
  builder.arrays_per_group = arrays;
  const auto n = static_cast<double>(groups);
  const std::uint64_t pairs_per_graph =
      static_cast<std::uint64_t>(groups) * (groups - 1) / 2 * arrays * arrays;

  // One lambda table + one graph build at edge probability p1_times_n / n.
  auto build = [&](double p1_times_n) {
    std::int32_t s = tracer->Begin("unaligned.lambda", parent, epoch);
    std::vector<std::uint32_t> weights(matrix.rows());
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      weights[r] = static_cast<std::uint32_t>(matrix.row(r).CountOnes());
    }
    dcs::LambdaTable lambda(
        matrix.cols(),
        dcs::LambdaTable::PStarFromEdgeProb(p1_times_n / n, arrays));
    lambda.Calibrate(weights, builder.scan.pool);
    double ms = tracer->End(s);
    sample->unaligned_lambda_ms += ms;
    children += ms;
    s = tracer->Begin("unaligned.graph", parent, epoch);
    dcs::Graph graph = dcs::BuildCorrelationGraph(matrix, lambda, builder);
    ms = tracer->End(s);
    sample->unaligned_graph_ms += ms;
    children += ms;
    sample->unaligned_row_pairs += pairs_per_graph;
    sample->unaligned_edges += graph.num_edges();
    return graph;
  };

  const dcs::Graph er_graph = build(options.er_p1_times_n);
  span = tracer->Begin("unaligned.er_test", parent, epoch);
  const std::size_t threshold = options.er_threshold > 0
                                    ? options.er_threshold
                                    : dcs::DefaultErTestThreshold(groups);
  const dcs::ErTestResult er = dcs::RunErTest(er_graph, threshold);
  sample->unaligned_er_ms = tracer->End(span);
  children += sample->unaligned_er_ms;
  if (!er.pattern_detected) return children;

  const dcs::Graph core_graph = build(options.core_p1_times_n);
  span = tracer->Begin("unaligned.peel", parent, epoch);
  const dcs::UnalignedDetection detection =
      dcs::DetectUnalignedPattern(core_graph, options.detector);
  sample->unaligned_peel_ms = tracer->End(span);
  children += sample->unaligned_peel_ms;

  span = tracer->Begin("unaligned.separation", parent, epoch);
  (void)dcs::SeparateClusters(core_graph, detection.detected,
                              options.separation);
  children += tracer->End(span);
  return children;
}

// One DcsMonitor, recycled by ClearEpoch as a ring slot is, fed an
// epoch's frames through the parser and the payload decoder, one span per
// public call.
class SerialReplayer {
 public:
  explicit SerialReplayer(const dcs::EpochRingOptions& ring)
      : ring_(ring),
        monitor_(ring.aligned, ring.unaligned, dcs::AnalysisContext{},
                 Pinned(ring, 0)),
        parsers_(kConnections) {}

  dcs::DcsReport Epoch(Inputs* inputs, std::uint64_t epoch, bool probes,
                       EpochSample* sample) {
    // Frames reach the parser in the chunks the server reads them in.
    const std::size_t chunk = dcs::IngestServerOptions{}.read_chunk_bytes;
    EncodeEpoch(inputs, epoch, &encoded_);
    sample->wire_bytes = encoded_.bytes;
    monitor_.set_ingest_options(Pinned(ring_, epoch));
    const std::int32_t root = tracer_.Begin("epoch", -1, epoch);

    std::int32_t span = tracer_.Begin("netio.parse", root, epoch);
    events_.clear();
    for (std::size_t c = 0; c < encoded_.streams.size(); ++c) {
      const std::vector<std::uint8_t>& stream = encoded_.streams[c];
      for (std::size_t at = 0; at < stream.size(); at += chunk) {
        parsers_[c].Consume(stream.data() + at,
                            std::min(chunk, stream.size() - at), &events_);
      }
    }
    sample->parse_ms = tracer_.End(span);

    span = tracer_.Begin("netio.decode", root, epoch);
    digests_.clear();
    for (const dcs::FrameEvent& event : events_) {
      if (event.kind != dcs::FrameEvent::Kind::kFrame) continue;
      ++sample->frames;
      dcs::Digest digest;
      if (dcs::DecodeDigestPayload(event.payload, event.header.codec, &digest)
              .ok()) {
        digests_.push_back(std::move(digest));
      }
    }
    sample->decode_ms = tracer_.End(span);

    span = tracer_.Begin("monitor.add_digest", root, epoch);
    for (const dcs::Digest& digest : digests_) (void)monitor_.AddDigest(digest);
    sample->add_digest_ms = tracer_.End(span);
    sample->digests = digests_.size();

    dcs::DcsReport report = ReportHeader(monitor_, epoch);
    const std::int32_t analyze = tracer_.Begin("monitor.analyze", root, epoch);
    report.aligned = monitor_.AnalyzeAligned();
    report.unaligned = monitor_.AnalyzeUnaligned();
    sample->analyze_ms = tracer_.End(analyze);

    if (probes) {
      if (monitor_.num_aligned_digests() >= 2) {
        sample->probe_sum_ms += ProbeAligned(monitor_, digests_, ring_,
                                             analyze, epoch, &tracer_, sample);
      }
      if (monitor_.num_unaligned_digests() >= 1) {
        sample->probe_sum_ms += ProbeUnaligned(monitor_, digests_, analyze,
                                               epoch, &tracer_, sample);
      }
    }

    span = tracer_.Begin("monitor.clear_epoch", root, epoch);
    monitor_.ClearEpoch();
    sample->clear_ms = tracer_.End(span);
    tracer_.End(root);
    return report;
  }

  std::vector<Span> TakeSpans() { return tracer_.Take(); }

 private:
  const dcs::EpochRingOptions& ring_;
  dcs::DcsMonitor monitor_;
  Tracer tracer_;
  std::vector<dcs::FrameParser> parsers_;
  EncodedEpoch encoded_;
  std::vector<dcs::FrameEvent> events_;
  std::vector<dcs::Digest> digests_;
};

}  // namespace

ReplayResult Replay(Inputs* inputs, const ReplayOptions& options) {
  ReplayResult result;
  SerialReplayer replayer(inputs->spec.ring);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t epoch = 0;; ++epoch) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (epoch >= options.min_epochs && elapsed >= options.seconds) break;
    EpochSample sample;
    result.reports.push_back(
        replayer.Epoch(inputs, epoch, options.probes, &sample));
    result.samples.push_back(sample);
  }
  result.spans = replayer.TakeSpans();
  return result;
}

std::vector<dcs::DcsReport> ReferenceReports(Inputs* inputs,
                                             std::size_t threads) {
  const std::size_t variants = inputs->variants.size();
  threads = std::clamp<std::size_t>(threads, 1, variants);
  std::vector<dcs::DcsReport> reports(variants);
  // Thread t replays epochs t, t + threads, ...: distinct variants, so no
  // two threads stamp the same digests.
  auto replay = [&](std::size_t first) {
    SerialReplayer replayer(inputs->spec.ring);
    for (std::size_t v = first; v < variants; v += threads) {
      EpochSample sample;
      reports[v] = replayer.Epoch(inputs, v, /*probes=*/false, &sample);
    }
  };
  std::vector<std::thread> workers;
  for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(replay, t);
  replay(0);
  for (std::thread& worker : workers) worker.join();
  return reports;
}

dcs::DcsReport AnalyzeInOrder(const dcs::EpochRingOptions& ring,
                              const std::vector<dcs::Digest>& digests,
                              std::uint64_t epoch) {
  dcs::DcsMonitor monitor(ring.aligned, ring.unaligned, dcs::AnalysisContext{},
                          Pinned(ring, epoch));
  for (const dcs::Digest& digest : digests) (void)monitor.AddDigest(digest);
  dcs::DcsReport report = ReportHeader(monitor, epoch);
  report.aligned = monitor.AnalyzeAligned();
  report.unaligned = monitor.AnalyzeUnaligned();
  return report;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, "
                 "\"parent\": %d, \"epoch\": %llu}}%s\n",
                 s.name, static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                 s.parent, static_cast<unsigned long long>(s.epoch),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
