// dcs_ingestd — the analysis center's framed digest ingestion daemon
// (docs/DISTRIBUTED.md).
//
// Listens on TCP (loopback) and/or a Unix-domain socket for digest frames
// (src/netio/frame.h), feeds them through the accept → parse → validate →
// dispatch pipeline into a continuous-operation EpochRing, and prints one
// line per closed epoch as reports stream out.
//
//   dcs_ingestd (--uds /tmp/dcs.sock | --tcp-port N [N=0: ephemeral, port
//       printed on stdout]) [--threads 1]
//       [--ring-capacity 8]
//       [--shed-policy block|drop-oldest|degrade] [--analysis-budget 1]
//       [--expected-routers 0] [--bitmap-bits 8192] [--n-prime 128]
//       [--beta 12] [--er-threshold 0] [--max-epochs 0] [--exit-on-idle]
//       [--max-rejects 64] [--metrics-out <path>]
//
// --expected-routers N (the fleet size) recalibrates each report for the
// routers that actually reported, and decides when an epoch closes: as
// soon as N digests of each kind are in, so its report streams out one
// analysis after its last frame. With 0, or for an epoch short of a
// router, the epoch closes only when a digest --ring-capacity epochs newer
// arrives; --shed-policy and --analysis-budget govern only those closes.
//
// --max-epochs N exits after N epoch reports have streamed out;
// --exit-on-idle exits once every accepted connection has hung up (the
// scripted-run mode: senders connect, ship, disconnect, and the daemon
// closes the remaining epochs at full fidelity on the way out). With
// neither, runs until SIGINT/SIGTERM. The feeding side is
// `dcs_workbench send` or any DigestSender client.
//
//   dcs_ingestd --self-test
// Spins the full loopback pipeline in-process (server on an ephemeral UDS,
// a sender shipping synthesized digests, reports drained) and exits 0 on
// success — the ctest smoke that the daemon wiring works end to end.
//
// An unknown flag, or a non-integer value for an integer flag, exits 2
// after printing the usage line.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "analysis/analysis_context.h"
#include "common/thread_pool.h"
#include "dcs/epoch_ring.h"
#include "netio/digest_sender.h"
#include "netio/dispatch.h"
#include "netio/ingest_server.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "sketch/collector.h"
#include "traffic/content_catalog.h"
#include "traffic/trace_synthesizer.h"

namespace dcs {
namespace {

constexpr FlagSpec kIngestdFlags[] = {
    {"uds", FlagKind::kString},           {"tcp-port", FlagKind::kInt},
    {"threads", FlagKind::kInt},          {"ring-capacity", FlagKind::kInt},
    {"shed-policy", FlagKind::kString},   {"analysis-budget", FlagKind::kInt},
    {"expected-routers", FlagKind::kInt}, {"bitmap-bits", FlagKind::kInt},
    {"n-prime", FlagKind::kInt},          {"beta", FlagKind::kInt},
    {"er-threshold", FlagKind::kInt},     {"max-epochs", FlagKind::kInt},
    {"exit-on-idle", FlagKind::kSwitch},  {"max-rejects", FlagKind::kInt},
    {"metrics-out", FlagKind::kString},   {"self-test", FlagKind::kSwitch},
    {"help", FlagKind::kSwitch},
};

std::sig_atomic_t volatile g_signalled = 0;

void OnSignal(int) { g_signalled = 1; }

void PrintReport(const DcsReport& report) {
  const char* disposition = report.shed                ? "shed"
                            : report.degraded_analysis ? "degraded"
                                                       : "analyzed";
  std::printf("epoch %llu: %s, %llu digests (%llu rejected), %u routers, "
              "aligned %s, unaligned %s\n",
              static_cast<unsigned long long>(report.epoch_id), disposition,
              static_cast<unsigned long long>(report.digests_accepted),
              static_cast<unsigned long long>(report.digests_rejected),
              report.observed_routers,
              report.aligned.common_content_detected ? "DETECTED" : "clean",
              report.unaligned.common_content_detected ? "DETECTED" : "clean");
  std::fflush(stdout);
}

Status DumpMetrics(const std::string& path) {
  const std::string text =
      SnapshotToJsonLines(MetricsRegistry::Global().Snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) return Status::IoError("short write " + path);
  return Status::Ok();
}

Status BuildRingOptions(const Flags& flags, EpochRingOptions* out) {
  EpochRingOptions options;
  options.capacity =
      static_cast<std::size_t>(flags.GetInt("ring-capacity", 8));
  const std::string policy = flags.Get("shed-policy", "block");
  if (policy == "block") {
    options.policy = ShedPolicy::kBlock;
  } else if (policy == "drop-oldest") {
    options.policy = ShedPolicy::kDropOldest;
  } else if (policy == "degrade") {
    options.policy = ShedPolicy::kDegrade;
  } else {
    return Status::InvalidArgument(
        "--shed-policy must be block|drop-oldest|degrade");
  }
  options.analysis_budget_per_offer =
      static_cast<std::size_t>(flags.GetInt("analysis-budget", 1));
  options.aligned.sketch.num_bits =
      static_cast<std::size_t>(flags.GetInt("bitmap-bits", 8192));
  options.aligned.n_prime =
      static_cast<std::size_t>(flags.GetInt("n-prime", 128));
  options.aligned.detector.first_iteration_hopefuls = options.aligned.n_prime;
  options.aligned.detector.hopefuls = options.aligned.n_prime / 2;
  options.aligned.incremental_weights = true;
  options.unaligned.er_threshold =
      static_cast<std::size_t>(flags.GetInt("er-threshold", 0));
  options.unaligned.detector.beta =
      static_cast<std::size_t>(flags.GetInt("beta", 12));
  options.ingest.expected_routers =
      static_cast<std::uint32_t>(flags.GetInt("expected-routers", 0));
  *out = options;
  return Status::Ok();
}

Status CmdServe(const Flags& flags) {
  const std::int64_t threads = flags.GetInt("threads", 1);
  if (threads < 1) return Status::InvalidArgument("--threads must be >= 1");
  // One pool for the whole daemon. The poll round fans connection reads
  // and frame parsing out on it, the dispatcher decodes on it, and the
  // ring's unaligned pair scan uses it; the stages never overlap (all run inside the
  // poll round), and the single ordered offer stage keeps the report
  // stream unchanged (the loopback differential suite is the proof).
  std::unique_ptr<ThreadPool> pool;
  AnalysisContext context;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));
    context.pool = pool.get();
  }
  EpochRingOptions ring_options;
  DCS_RETURN_IF_ERROR(BuildRingOptions(flags, &ring_options));
  EpochRing ring(ring_options, context);
  FrameDispatcher dispatcher(&ring, pool.get());

  const std::int64_t max_epochs = flags.GetInt("max-epochs", 0);
  const bool exit_on_idle = flags.Has("exit-on-idle");
  std::uint64_t emitted = 0;
  const IngestServer* server_ptr = nullptr;
  IngestServerOptions server_options;
  server_options.pool = pool.get();
  server_options.max_rejects_per_connection =
      static_cast<std::uint64_t>(flags.GetInt("max-rejects", 64));
  // Streams reports as their epochs close; stops on signal, --max-epochs,
  // or (with --exit-on-idle) once every accepted connection has hung up —
  // undrained epochs are then closed at full fidelity below. Runs on the
  // serve thread, the only thread that touches the ring.
  server_options.after_round = [&ring, &emitted, &server_ptr, max_epochs,
                                exit_on_idle]() {
    for (const DcsReport& report : ring.TakeReports()) {
      PrintReport(report);
      ++emitted;
    }
    if (g_signalled != 0) return false;
    if (max_epochs > 0 && emitted >= static_cast<std::uint64_t>(max_epochs)) {
      return false;
    }
    if (exit_on_idle && server_ptr != nullptr) {
      const IngestServerStats& stats = server_ptr->stats();
      if (stats.connections_accepted > 0 &&
          stats.connections_accepted == stats.connections_closed) {
        return false;
      }
    }
    return true;
  };
  IngestServer server(server_options, &dispatcher);
  server_ptr = &server;

  const std::string uds = flags.Get("uds", "");
  if (!uds.empty()) {
    DCS_RETURN_IF_ERROR(server.ListenUds(uds));
    std::printf("listening on uds %s\n", uds.c_str());
  }
  if (flags.Has("tcp-port")) {
    DCS_RETURN_IF_ERROR(server.ListenTcp(
        static_cast<std::uint16_t>(flags.GetInt("tcp-port", 0))));
    std::printf("listening on tcp 127.0.0.1:%u\n", server.bound_tcp_port());
  }
  if (uds.empty() && !flags.Has("tcp-port")) {
    return Status::InvalidArgument("--uds or --tcp-port required");
  }
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  DCS_RETURN_IF_ERROR(server.Serve());

  // End of service: close out the still-open epochs at full fidelity.
  ring.Drain();
  for (const DcsReport& report : ring.TakeReports()) {
    PrintReport(report);
    ++emitted;
  }
  const DispatchStats& stats = dispatcher.stats();
  std::printf("ingestd: %llu frames (%llu rejects), %llu digests offered, "
              "%llu accepted, %llu rejected, %llu epochs reported\n",
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.frame_rejects),
              static_cast<unsigned long long>(stats.digests_offered),
              static_cast<unsigned long long>(stats.digests_accepted),
              static_cast<unsigned long long>(stats.digests_rejected),
              static_cast<unsigned long long>(emitted));
  const std::string metrics_out = flags.Get("metrics-out", "");
  if (!metrics_out.empty()) DCS_RETURN_IF_ERROR(DumpMetrics(metrics_out));
  return Status::Ok();
}

// In-process loopback smoke: synthesize traffic, collect digests, serve on
// an ephemeral UDS, ship every digest through a real socket, and check the
// report stream arrived intact.
Status CmdSelfTest() {
  // The scenario mirrors tests/test_integration.cc's known-detectable
  // configuration: 25 of 30 routers carry a 20-packet aligned object.
  constexpr std::uint32_t kRouters = 30;
  constexpr std::uint64_t kEpochs = 3;

  ScenarioOptions scenario;
  scenario.num_routers = kRouters;
  scenario.background_packets_per_router = 8000;
  scenario.seed = 11;
  PlantedContent plant;
  plant.content_id = 77;
  plant.content_bytes = 536 * 20;
  for (std::uint32_t r = 0; r < 25; ++r) plant.router_ids.push_back(r);
  plant.aligned = true;
  scenario.planted = {plant};
  ContentCatalog catalog(1234);
  const std::vector<PacketTrace> traces = SynthesizeScenario(scenario, catalog);

  BitmapSketchOptions sketch;
  sketch.num_bits = 1 << 13;
  std::vector<Digest> digests;
  for (std::uint32_t r = 0; r < kRouters; ++r) {
    AlignedCollector collector(r, sketch);
    digests.push_back(
        collector.ProcessEpoch(traces[r].SplitIntoEpochs(traces[r].size())[0]));
  }

  EpochRingOptions ring_options;
  ring_options.capacity = 4;
  ring_options.aligned.sketch = sketch;
  ring_options.aligned.n_prime = 128;
  ring_options.aligned.detector.first_iteration_hopefuls = 128;
  ring_options.aligned.detector.hopefuls = 64;
  ring_options.aligned.incremental_weights = true;
  EpochRing ring(ring_options, AnalysisContext{});
  FrameDispatcher dispatcher(&ring, nullptr);
  // The server stops itself once every digest has been offered. The hook
  // runs on the serve thread, the only thread that touches the dispatcher
  // until serve_thread.join() below.
  const std::uint64_t expected = kRouters * kEpochs;
  IngestServerOptions server_options;
  server_options.after_round = [&dispatcher, expected] {
    return dispatcher.stats().digests_offered < expected;
  };
  IngestServer server(server_options, &dispatcher);

  const std::string uds_path =
      (std::filesystem::temp_directory_path() /
       ("dcs_ingestd_selftest_" + std::to_string(::getpid()) + ".sock"))
          .string();
  DCS_RETURN_IF_ERROR(server.ListenUds(uds_path));

  Status serve_status;
  std::thread serve_thread(
      [&server, &serve_status] { serve_status = server.Serve(); });

  Status send_status;
  {
    DigestSender sender;
    send_status = DigestSender::ConnectUds(uds_path, &sender);
    if (send_status.ok()) {
      for (std::uint64_t epoch = 0; epoch < kEpochs && send_status.ok();
           ++epoch) {
        for (Digest& digest : digests) {
          digest.epoch_id = epoch;
          const CodecMode mode =
              epoch % 2 == 0 ? CodecMode::kSparse : CodecMode::kRaw;
          send_status = sender.Send(digest, mode);
          if (!send_status.ok()) break;
        }
      }
    }
    // Sender closes here: the server sees EOF and flushes the connection.
  }
  // A failed send never delivers everything; stop the server directly.
  if (!send_status.ok()) server.RequestStop();
  serve_thread.join();
  DCS_RETURN_IF_ERROR(serve_status);
  DCS_RETURN_IF_ERROR(send_status);

  ring.Drain();
  const std::vector<DcsReport> reports = ring.TakeReports();
  if (dispatcher.stats().digests_accepted != expected) {
    return Status::Internal("self-test: expected " + std::to_string(expected) +
                            " accepted digests, got " +
                            std::to_string(dispatcher.stats().digests_accepted));
  }
  if (reports.size() != kEpochs) {
    return Status::Internal("self-test: expected " + std::to_string(kEpochs) +
                            " reports, got " + std::to_string(reports.size()));
  }
  for (const DcsReport& report : reports) {
    if (report.digests_accepted != kRouters) {
      return Status::Internal("self-test: epoch report missing digests");
    }
    if (!report.aligned.common_content_detected) {
      return Status::Internal("self-test: planted content not detected");
    }
  }
  std::printf("self-test: %llu digests over loopback uds, %zu epoch reports, "
              "planted content detected in all\n",
              static_cast<unsigned long long>(expected), reports.size());
  return Status::Ok();
}

void PrintUsage() {
  std::printf(
      "usage: dcs_ingestd (--uds <path> | --tcp-port <port>) [--flags]\n"
      "       dcs_ingestd --self-test\n"
      "see the comment block at the top of tools/dcs_ingestd.cc\n");
}

int Main(int argc, char** argv) {
  Flags flags;
  const Status parse_status = flags.Parse(argc, argv, 1, kIngestdFlags);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "%s\n", parse_status.ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }
  if (flags.Has("metrics-out")) MetricsRegistry::Global().set_enabled(true);
  const Status status = flags.Has("self-test") ? CmdSelfTest() : CmdServe(flags);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    if (status.code() == Status::Code::kInvalidArgument) PrintUsage();
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) { return dcs::Main(argc, argv); }
