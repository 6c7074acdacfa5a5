// dcs_workbench — operational CLI for the DCS pipeline.
//
// Drives the three deployment stages through their on-disk formats:
//
//   dcs_workbench synthesize --out-dir /tmp/dcs [--routers 24] [--packets 5000]
//       [--content-packets 15] [--content-routers 18] [--unaligned]
//       [--instances 3] [--seed 42] [--no-content]
//     Writes router_<i>.trace files with synthetic traffic and (optionally)
//     a planted common content.
//
//   dcs_workbench collect --in-dir /tmp/dcs --out-dir /tmp/dcs
//       [--mode aligned|unaligned] [--bitmap-bits 8192] [--groups 16]
//     Runs the per-router streaming sketches over each trace and writes
//     router_<i>.digest (the encoded wire format).
//
//   dcs_workbench analyze --in-dir /tmp/dcs [--mode aligned|unaligned]
//       [--n-prime 128] [--er-threshold 0] [--beta 12] [--threads 1]
//       [--expected-routers 0] [--fault-plan "seed=7,drop=0.1,flip=0.1"]
//       [--ring-epochs 0] [--ring-capacity 4] [--shed-policy block]
//       [--epoch-stride 1]
//     Stacks the digests at the analysis center and prints the report.
//     --threads N > 1 runs the unaligned lambda calibration and pair scan
//     on an N-worker pool; every other stage, the whole aligned pipeline
//     included, runs on the calling thread. The report is bit-identical
//     at any thread count (docs/PARALLELISM.md).
//     --expected-routers N turns on hardened ingestion (docs/ROBUSTNESS.md):
//     rejected digests are reported instead of aborting the run, and the
//     report carries thresholds recalibrated for the routers that actually
//     made it. In the ring replay it also decides when epochs close: an
//     epoch closes as soon as N digests of each kind are in, and only an
//     epoch short of a router waits for the window to move past it (so
//     with N set, --epoch-stride sheds only short epochs). --fault-plan
//     runs every digest through the deterministic fault injector first
//     (src/testing/fault_injector.h) to rehearse a lossy or hostile
//     collection network; see FaultSpec::Parse for the key=value syntax.
//
//     --ring-epochs N replays the on-disk digests as N consecutive epochs
//     through the continuous-operation EpochRing (docs/STREAMING.md)
//     instead of a one-shot analysis: each epoch re-stamps the digests'
//     epoch_id (FaultInjector::RewriteEpoch) so the ring exercises slot
//     recycling and incremental weights exactly as a live deployment
//     would. --ring-capacity (default 4) sizes the window; --shed-policy
//     block|drop-oldest|degrade picks the back-pressure response;
//     --epoch-stride S > 1 offers epochs 0, S, 2S, ... so each arrival
//     forces S-1 head closes against the per-offer analysis budget —
//     the way to watch the shed policies actually fire from the CLI.
//
//   dcs_workbench send --in-dir /tmp/dcs (--uds /tmp/dcs.sock | --tcp-port N)
//       [--host 127.0.0.1] [--codec raw|sparse|auto] [--epochs 1]
//       [--epoch-stride 1] [--coalesce-bytes 0]
//     Ships the on-disk digests to a running dcs_ingestd over the framed
//     digest plane (docs/DISTRIBUTED.md), re-stamped as consecutive epochs
//     exactly like the --ring-epochs replay: epoch-major, router-minor, so
//     the server's report stream matches an in-process ring replay of the
//     same digests. --codec picks the per-frame payload codec (auto = keep
//     sparse only when it saves wire bytes).
//
//   dcs_workbench demo
//     Runs all three stages in a temporary directory.
//
// Any command also accepts:
//   --metrics             Enable the observability registry and print a
//                         metric summary table after the command finishes.
//   --metrics-out <path>  Like --metrics, but dump the snapshot as JSON
//                         lines to <path> instead of a table.
//
// A missing or unknown command, a flag the command does not know, or a
// non-integer value for an integer flag exits 2 after printing the usage
// line.

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "dcs/dcs.h"
#include "netio/digest_sender.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "testing/fault_injector.h"
#include "traffic/content_catalog.h"
#include "traffic/trace_synthesizer.h"

namespace dcs {
namespace {

// The flags each command knows, besides the --metrics pair all accept.
constexpr FlagSpec kSynthesizeFlags[] = {
    {"out-dir", FlagKind::kString},      {"routers", FlagKind::kInt},
    {"packets", FlagKind::kInt},         {"seed", FlagKind::kInt},
    {"no-content", FlagKind::kSwitch},   {"content-id", FlagKind::kInt},
    {"content-packets", FlagKind::kInt}, {"content-routers", FlagKind::kInt},
    {"unaligned", FlagKind::kSwitch},    {"instances", FlagKind::kInt},
    {"catalog-seed", FlagKind::kInt},
};
constexpr FlagSpec kCollectFlags[] = {
    {"in-dir", FlagKind::kString}, {"out-dir", FlagKind::kString},
    {"mode", FlagKind::kString},   {"seed", FlagKind::kInt},
    {"groups", FlagKind::kInt},    {"bitmap-bits", FlagKind::kInt},
};
constexpr FlagSpec kAnalyzeFlags[] = {
    {"in-dir", FlagKind::kString},        {"mode", FlagKind::kString},
    {"bitmap-bits", FlagKind::kInt},      {"n-prime", FlagKind::kInt},
    {"er-threshold", FlagKind::kInt},     {"beta", FlagKind::kInt},
    {"expand-min-edges", FlagKind::kInt}, {"threads", FlagKind::kInt},
    {"expected-routers", FlagKind::kInt}, {"fault-plan", FlagKind::kString},
    {"expected-epoch", FlagKind::kInt},   {"ring-epochs", FlagKind::kInt},
    {"ring-capacity", FlagKind::kInt},    {"shed-policy", FlagKind::kString},
    {"epoch-stride", FlagKind::kInt},
};
constexpr FlagSpec kSendFlags[] = {
    {"in-dir", FlagKind::kString},    {"uds", FlagKind::kString},
    {"tcp-port", FlagKind::kInt},     {"host", FlagKind::kString},
    {"codec", FlagKind::kString},     {"epochs", FlagKind::kInt},
    {"epoch-stride", FlagKind::kInt}, {"coalesce-bytes", FlagKind::kInt},
};
constexpr FlagSpec kMetricsFlags[] = {
    {"metrics", FlagKind::kSwitch},
    {"metrics-out", FlagKind::kString},
};

std::string TracePath(const std::string& dir, std::uint32_t router) {
  return dir + "/router_" + std::to_string(router) + ".trace";
}

std::string DigestPath(const std::string& dir, std::uint32_t router) {
  return dir + "/router_" + std::to_string(router) + ".digest";
}

Status WriteBytes(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) return Status::IoError("short write " + path);
  return Status::Ok();
}

Status ReadBytes(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot read " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out->resize(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  if (read != out->size()) return Status::IoError("short read " + path);
  return Status::Ok();
}

// ----------------------------------------------------------------------
// Stage 1: synthesize traces.
// ----------------------------------------------------------------------

Status CmdSynthesize(const Flags& flags) {
  const std::string out_dir = flags.Get("out-dir", "");
  if (out_dir.empty()) return Status::InvalidArgument("--out-dir required");
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  ScenarioOptions scenario;
  scenario.num_routers =
      static_cast<std::size_t>(flags.GetInt("routers", 24));
  scenario.background_packets_per_router =
      static_cast<std::size_t>(flags.GetInt("packets", 5000));
  scenario.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  if (!flags.Has("no-content")) {
    PlantedContent plant;
    plant.content_id = static_cast<std::uint64_t>(
        flags.GetInt("content-id", 1));
    plant.content_bytes =
        static_cast<std::size_t>(flags.GetInt("content-packets", 15)) * 536;
    const auto content_routers = static_cast<std::uint32_t>(
        flags.GetInt("content-routers",
                     static_cast<std::int64_t>(scenario.num_routers * 3 / 4)));
    for (std::uint32_t r = 0; r < content_routers; ++r) {
      plant.router_ids.push_back(r);
    }
    plant.aligned = !flags.Has("unaligned");
    plant.instances_per_router =
        static_cast<std::size_t>(flags.GetInt("instances", plant.aligned
                                                               ? 1
                                                               : 3));
    scenario.planted = {plant};
  }

  ContentCatalog catalog(static_cast<std::uint64_t>(
      flags.GetInt("catalog-seed", 7)));
  const std::vector<PacketTrace> traces =
      SynthesizeScenario(scenario, catalog);
  for (std::uint32_t r = 0; r < traces.size(); ++r) {
    DCS_RETURN_IF_ERROR(traces[r].WriteToFile(TracePath(out_dir, r)));
  }
  std::printf("synthesize: wrote %zu traces (~%zu packets each) to %s\n",
              traces.size(), traces[0].size(), out_dir.c_str());
  return Status::Ok();
}

// ----------------------------------------------------------------------
// Stage 2: per-router collection.
// ----------------------------------------------------------------------

Status CmdCollect(const Flags& flags) {
  const std::string in_dir = flags.Get("in-dir", "");
  const std::string out_dir = flags.Get("out-dir", in_dir);
  if (in_dir.empty()) return Status::InvalidArgument("--in-dir required");
  const bool unaligned = flags.Get("mode", "aligned") == "unaligned";

  Rng offsets_rng(static_cast<std::uint64_t>(flags.GetInt("seed", 2026)));
  std::uint32_t routers = 0;
  std::uint64_t digest_bytes = 0;
  std::uint64_t raw_bytes = 0;
  for (std::uint32_t r = 0;; ++r) {
    PacketTrace trace;
    const Status status =
        PacketTrace::ReadFromFile(TracePath(in_dir, r), &trace);
    if (status.code() == Status::Code::kNotFound) break;
    DCS_RETURN_IF_ERROR(status);
    const auto epochs = trace.SplitIntoEpochs(trace.size());

    Digest digest;
    if (unaligned) {
      FlowSplitOptions opts;
      opts.num_groups =
          static_cast<std::size_t>(flags.GetInt("groups", 16));
      UnalignedCollector collector(r, opts, &offsets_rng);
      digest = collector.ProcessEpoch(epochs[0]);
    } else {
      BitmapSketchOptions opts;
      opts.num_bits =
          static_cast<std::size_t>(flags.GetInt("bitmap-bits", 8192));
      AlignedCollector collector(r, opts);
      digest = collector.ProcessEpoch(epochs[0]);
    }
    const std::vector<std::uint8_t> encoded = digest.Encode();
    DCS_RETURN_IF_ERROR(WriteBytes(DigestPath(out_dir, r), encoded));
    digest_bytes += encoded.size();
    raw_bytes += digest.raw_bytes_covered;
    ++routers;
  }
  if (routers == 0) return Status::NotFound("no traces in " + in_dir);
  std::printf("collect: %u digests (%s), %.1f MB traffic -> %.1f KB digests "
              "(%.0fx)\n",
              routers, unaligned ? "unaligned" : "aligned",
              static_cast<double>(raw_bytes) / 1e6,
              static_cast<double>(digest_bytes) / 1e3,
              static_cast<double>(raw_bytes) /
                  static_cast<double>(digest_bytes));
  return Status::Ok();
}

// ----------------------------------------------------------------------
// Stage 3: central analysis.
// ----------------------------------------------------------------------

// Continuous-operation replay: the digest files become the payload of
// every epoch in [0, ring_epochs) * stride, re-stamped per epoch, offered
// to an EpochRing. Prints one line per closed epoch plus the ring and
// tracker totals.
Status RunRingReplay(const Flags& flags, const EpochRingOptions& options,
                     const AnalysisContext& context, FaultInjector* injector,
                     std::uint32_t num_digest_files,
                     const std::string& in_dir) {
  const std::int64_t ring_epochs = flags.GetInt("ring-epochs", 0);
  const std::int64_t stride = flags.GetInt("epoch-stride", 1);
  if (stride < 1) return Status::InvalidArgument("--epoch-stride must be >= 1");

  std::vector<std::vector<std::uint8_t>> payloads(num_digest_files);
  for (std::uint32_t r = 0; r < num_digest_files; ++r) {
    DCS_RETURN_IF_ERROR(ReadBytes(DigestPath(in_dir, r), &payloads[r]));
  }

  EpochRing ring(options, context);
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (std::int64_t i = 0; i < ring_epochs; ++i) {
    const std::uint64_t epoch =
        static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(stride);
    for (std::uint32_t r = 0; r < num_digest_files; ++r) {
      std::vector<std::vector<std::uint8_t>> delivered;
      std::vector<std::uint8_t> stamped =
          FaultInjector::RewriteEpoch(payloads[r], epoch);
      if (injector != nullptr) {
        delivered = injector->Apply(r, stamped);
      } else {
        delivered.push_back(std::move(stamped));
      }
      for (const std::vector<std::uint8_t>& message : delivered) {
        Digest digest;
        Status status = Digest::Decode(message, &digest);
        if (status.ok()) status = ring.Offer(std::move(digest));
        if (status.ok()) {
          ++accepted;
        } else {
          ++rejected;
        }
      }
    }
  }
  ring.Drain();

  const std::vector<DcsReport> reports = ring.TakeReports();
  std::printf("ring: %s policy, capacity %zu, %lld offered epochs "
              "(stride %lld), %llu digests accepted, %llu rejected\n",
              ShedPolicyName(options.policy), options.capacity,
              static_cast<long long>(ring_epochs),
              static_cast<long long>(stride),
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(rejected));
  for (const DcsReport& report : reports) {
    const char* disposition = report.shed               ? "shed"
                              : report.degraded_analysis ? "degraded"
                                                         : "analyzed";
    std::printf("  epoch %llu: %s, %llu digests, aligned %s, unaligned %s\n",
                static_cast<unsigned long long>(report.epoch_id), disposition,
                static_cast<unsigned long long>(report.digests_accepted),
                report.aligned.common_content_detected ? "DETECTED" : "clean",
                report.unaligned.common_content_detected ? "DETECTED"
                                                         : "clean");
  }
  const RingStats& stats = ring.stats();
  std::printf("ring stats: %llu analyzed, %llu shed, %llu degraded, "
              "%llu blocked advances, %llu complete closes, %llu advance "
              "closes, max in flight %zu\n",
              static_cast<unsigned long long>(stats.epochs_analyzed),
              static_cast<unsigned long long>(stats.epochs_shed),
              static_cast<unsigned long long>(stats.epochs_degraded),
              static_cast<unsigned long long>(stats.blocked_advances),
              static_cast<unsigned long long>(stats.complete_closes),
              static_cast<unsigned long long>(stats.advance_closes),
              stats.max_in_flight);
  std::printf("tracker: %llu epochs, %llu gaps, %s\n",
              static_cast<unsigned long long>(ring.tracker().epochs_seen()),
              static_cast<unsigned long long>(ring.tracker().gaps_seen()),
              ring.tracker().PersistentDetection() ? "PERSISTENT ALARM"
                                                   : "no persistent alarm");
  return Status::Ok();
}

Status CmdAnalyze(const Flags& flags) {
  const std::string in_dir = flags.Get("in-dir", "");
  if (in_dir.empty()) return Status::InvalidArgument("--in-dir required");
  const bool unaligned = flags.Get("mode", "aligned") == "unaligned";

  AlignedPipelineOptions aligned;
  aligned.sketch.num_bits =
      static_cast<std::size_t>(flags.GetInt("bitmap-bits", 8192));
  aligned.n_prime = static_cast<std::size_t>(flags.GetInt("n-prime", 128));
  aligned.detector.first_iteration_hopefuls = aligned.n_prime;
  aligned.detector.hopefuls = aligned.n_prime / 2;

  UnalignedPipelineOptions unaligned_opts;
  unaligned_opts.er_threshold =
      static_cast<std::size_t>(flags.GetInt("er-threshold", 0));
  unaligned_opts.detector.beta =
      static_cast<std::size_t>(flags.GetInt("beta", 12));
  unaligned_opts.detector.expand_min_edges =
      static_cast<std::size_t>(flags.GetInt("expand-min-edges", 2));

  const std::int64_t threads = flags.GetInt("threads", 1);
  if (threads < 1) return Status::InvalidArgument("--threads must be >= 1");
  std::unique_ptr<ThreadPool> pool;
  AnalysisContext context;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));
    context.pool = pool.get();
  }
  // Hardened ingestion: either flag opts in. Rejections are reported and
  // survived instead of aborting the run.
  IngestOptions ingest;
  ingest.expected_routers =
      static_cast<std::uint32_t>(flags.GetInt("expected-routers", 0));
  const std::string fault_plan_text = flags.Get("fault-plan", "");
  const bool hardened = ingest.expected_routers > 0 || flags.Has("fault-plan");
  if (hardened) {
    // Pin the reference epoch instead of locking to the first arrival: a
    // forged epoch_id in the first message must not get every honest
    // router quarantined as "stale". The collectors in this repo always
    // stamp epoch 0, so 0 is the right default.
    ingest.lock_epoch_to_first = false;
    ingest.expected_epoch =
        static_cast<std::uint64_t>(flags.GetInt("expected-epoch", 0));
  }

  // The plan needs the router count up front: count the digest files.
  std::uint32_t num_digest_files = 0;
  while (std::filesystem::exists(DigestPath(in_dir, num_digest_files))) {
    ++num_digest_files;
  }
  if (num_digest_files == 0) {
    return Status::NotFound("no digests in " + in_dir);
  }

  std::unique_ptr<FaultInjector> injector;
  if (flags.Has("fault-plan")) {
    FaultSpec spec;
    DCS_RETURN_IF_ERROR(FaultSpec::Parse(fault_plan_text, &spec));
    FaultPlan plan = MaterializeFaultPlan(spec, num_digest_files);
    std::printf("fault plan: %s\n", plan.ToString().c_str());
    injector = std::make_unique<FaultInjector>(std::move(plan));
  }

  if (flags.GetInt("ring-epochs", 0) > 0) {
    EpochRingOptions ring_options;
    ring_options.capacity =
        static_cast<std::size_t>(flags.GetInt("ring-capacity", 4));
    const std::string policy = flags.Get("shed-policy", "block");
    if (policy == "block") {
      ring_options.policy = ShedPolicy::kBlock;
    } else if (policy == "drop-oldest") {
      ring_options.policy = ShedPolicy::kDropOldest;
    } else if (policy == "degrade") {
      ring_options.policy = ShedPolicy::kDegrade;
    } else {
      return Status::InvalidArgument(
          "--shed-policy must be block|drop-oldest|degrade");
    }
    ring_options.aligned = aligned;
    ring_options.aligned.incremental_weights = true;
    ring_options.unaligned = unaligned_opts;
    ring_options.ingest = ingest;
    return RunRingReplay(flags, ring_options, context, injector.get(),
                         num_digest_files, in_dir);
  }

  DcsMonitor monitor(aligned, unaligned_opts, context, ingest);
  std::uint32_t accepted = 0;
  for (std::uint32_t r = 0; r < num_digest_files; ++r) {
    std::vector<std::uint8_t> bytes;
    DCS_RETURN_IF_ERROR(ReadBytes(DigestPath(in_dir, r), &bytes));
    std::vector<std::vector<std::uint8_t>> delivered;
    if (injector != nullptr) {
      delivered = injector->Apply(r, bytes);
    } else {
      delivered.push_back(std::move(bytes));
    }
    for (const std::vector<std::uint8_t>& message : delivered) {
      const Status status = monitor.AddEncodedDigest(message);
      if (status.ok()) {
        ++accepted;
      } else if (hardened) {
        std::printf("analyze: router %u message rejected: %s\n", r,
                    status.ToString().c_str());
      } else {
        return status;
      }
    }
  }
  std::printf("analyze: %u digests loaded\n", accepted);
  if (hardened) {
    std::printf("%s\n", monitor.ingest_stats().ToString().c_str());
  }

  if (unaligned) {
    const UnalignedReport report = monitor.AnalyzeUnaligned();
    std::printf("%s\n", report.ToString().c_str());
    if (report.common_content_detected) {
      std::printf("routers:");
      for (std::uint32_t r : report.routers) std::printf(" %u", r);
      std::printf("\nclusters: %zu\n", report.clusters.size());
    }
  } else {
    const AlignedReport report = monitor.AnalyzeAligned();
    std::printf("%s\n", report.ToString().c_str());
    if (report.common_content_detected) {
      std::printf("routers:");
      for (std::uint32_t r : report.routers) std::printf(" %u", r);
      std::printf("\nsignature columns: %zu\n",
                  report.signature_columns.size());
    }
  }
  return Status::Ok();
}

// ----------------------------------------------------------------------
// Stage 2.5: ship digests to a remote analysis center (dcs_ingestd).
// ----------------------------------------------------------------------

Status CmdSend(const Flags& flags) {
  const std::string in_dir = flags.Get("in-dir", "");
  if (in_dir.empty()) return Status::InvalidArgument("--in-dir required");
  const std::string uds = flags.Get("uds", "");
  const std::int64_t port = flags.GetInt("tcp-port", 0);
  if (uds.empty() && port == 0) {
    return Status::InvalidArgument("--uds or --tcp-port required");
  }
  const std::string codec_name = flags.Get("codec", "auto");
  CodecMode mode;
  if (codec_name == "raw") {
    mode = CodecMode::kRaw;
  } else if (codec_name == "sparse") {
    mode = CodecMode::kSparse;
  } else if (codec_name == "auto") {
    mode = CodecMode::kAuto;
  } else {
    return Status::InvalidArgument("--codec must be raw|sparse|auto");
  }
  const std::int64_t epochs = flags.GetInt("epochs", 1);
  const std::int64_t stride = flags.GetInt("epoch-stride", 1);
  if (epochs < 1 || stride < 1) {
    return Status::InvalidArgument("--epochs and --epoch-stride must be >= 1");
  }

  std::vector<Digest> digests;
  for (std::uint32_t r = 0;; ++r) {
    std::vector<std::uint8_t> bytes;
    const Status status = ReadBytes(DigestPath(in_dir, r), &bytes);
    if (status.code() == Status::Code::kNotFound) break;
    DCS_RETURN_IF_ERROR(status);
    Digest digest;
    DCS_RETURN_IF_ERROR(Digest::Decode(bytes, &digest));
    digests.push_back(std::move(digest));
  }
  if (digests.empty()) return Status::NotFound("no digests in " + in_dir);

  // --coalesce-bytes batches frames on the sender before each socket write
  // (0 = ship every frame immediately); the fan-in knob for runs that
  // replay many epochs per connection.
  SenderOptions sender_options;
  sender_options.coalesce_bytes =
      static_cast<std::size_t>(flags.GetInt("coalesce-bytes", 0));
  DigestSender sender;
  if (!uds.empty()) {
    DCS_RETURN_IF_ERROR(DigestSender::ConnectUds(uds, &sender, sender_options));
  } else {
    DCS_RETURN_IF_ERROR(DigestSender::ConnectTcp(
        flags.Get("host", "127.0.0.1"), static_cast<std::uint16_t>(port),
        &sender, sender_options));
  }
  // Epoch-major, router-minor: the canonical replay order, so the server's
  // report stream is comparable with `analyze --ring-epochs`.
  for (std::int64_t e = 0; e < epochs; ++e) {
    for (Digest& digest : digests) {
      digest.epoch_id =
          static_cast<std::uint64_t>(e) * static_cast<std::uint64_t>(stride);
      DCS_RETURN_IF_ERROR(sender.Send(digest, mode));
    }
  }
  DCS_RETURN_IF_ERROR(sender.Flush());
  const SenderStats& stats = sender.stats();
  std::printf("send: %llu frames (%llu raw, %llu sparse), %llu bytes, "
              "codec %s\n",
              static_cast<unsigned long long>(stats.frames_sent),
              static_cast<unsigned long long>(stats.raw_frames),
              static_cast<unsigned long long>(stats.sparse_frames),
              static_cast<unsigned long long>(stats.bytes_sent),
              CodecModeName(mode));
  sender.Close();
  return Status::Ok();
}

Status CmdDemo() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dcs_workbench_demo")
          .string();
  std::filesystem::remove_all(dir);
  std::printf("== demo in %s ==\n", dir.c_str());
  Flags synth;
  char arg_out[] = "--out-dir";
  char* synth_argv[] = {arg_out, const_cast<char*>(dir.c_str())};
  DCS_RETURN_IF_ERROR(synth.Parse(2, synth_argv, 0, kSynthesizeFlags));
  DCS_RETURN_IF_ERROR(CmdSynthesize(synth));
  char arg_in[] = "--in-dir";
  char* dir_argv[] = {arg_in, const_cast<char*>(dir.c_str())};
  Flags collect;
  DCS_RETURN_IF_ERROR(collect.Parse(2, dir_argv, 0, kCollectFlags));
  DCS_RETURN_IF_ERROR(CmdCollect(collect));
  Flags analyze;
  DCS_RETURN_IF_ERROR(analyze.Parse(2, dir_argv, 0, kAnalyzeFlags));
  return CmdAnalyze(analyze);
}

// Writes the final registry snapshot: JSON lines to --metrics-out when
// given, otherwise a summary table on stdout.
Status DumpMetrics(const Flags& flags) {
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const std::string out = flags.Get("metrics-out", "");
  if (out.empty()) {
    std::printf("\n== metrics ==\n");
    PrintSnapshotTable(snapshot, std::cout);
    return Status::Ok();
  }
  const std::string text = SnapshotToJsonLines(snapshot);
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + out);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) return Status::IoError("short write " + out);
  std::printf("metrics: wrote %zu metrics to %s\n", snapshot.entries.size(),
              out.c_str());
  return Status::Ok();
}

void PrintUsage() {
  std::printf(
      "usage: dcs_workbench <synthesize|collect|analyze|send|demo> "
      "[--flags]\n"
      "       [--metrics] [--metrics-out <path>]\n"
      "see the comment block at the top of tools/dcs_workbench.cc\n");
}

struct Command {
  const char* name;
  std::span<const FlagSpec> flags;
  Status (*run)(const Flags& flags);
};

constexpr Command kCommands[] = {
    {"synthesize", kSynthesizeFlags, CmdSynthesize},
    {"collect", kCollectFlags, CmdCollect},
    {"analyze", kAnalyzeFlags, CmdAnalyze},
    {"send", kSendFlags, CmdSend},
    {"demo", {}, [](const Flags&) { return CmdDemo(); }},
};

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "missing command\n");
    PrintUsage();
    return 2;
  }
  const std::string name = argv[1];
  if (name == "--help" || name == "-h" || name == "help") {
    PrintUsage();
    return 0;
  }
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (name == candidate.name) command = &candidate;
  }
  if (command == nullptr) {
    std::fprintf(stderr, "unknown command: %s\n", name.c_str());
    PrintUsage();
    return 2;
  }
  std::vector<FlagSpec> known(command->flags.begin(), command->flags.end());
  known.insert(known.end(), std::begin(kMetricsFlags), std::end(kMetricsFlags));
  Flags flags;
  const Status parse_status = flags.Parse(argc, argv, 2, known);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "%s\n", parse_status.ToString().c_str());
    PrintUsage();
    return 2;
  }
  const bool metrics = flags.Has("metrics") || flags.Has("metrics-out");
  if (metrics) MetricsRegistry::Global().set_enabled(true);
  Status status = command->run(flags);
  if (status.ok() && metrics) status = DumpMetrics(flags);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) { return dcs::Main(argc, argv); }
