// dcs_perfbench — one pass of the end-to-end benchmark of the analysis
// center (perfbench/README.md). perfbench/run.py builds it and runs
// several passes per measurement:
//
//   dcs_perfbench --workload <name> [--seed 1] [--seconds 10] [--trace 0|1]
//       [--smoke] [--socket-dir .bench_build/perfbench]
//       [--trace-out <file>]
//
// A pass runs the wire-fed center (with --trace 0 after several cold
// starts), checks every report it produced against a serial replay of the
// same frames, and prints as its last stdout line one JSON object:
//   {"correct": ..., "pass": {...}, "metrics": {...}}
// "pass" holds the raw samples run.py pools into the end-to-end metrics;
// "metrics" holds, with --trace 1, the per-layer metrics of the traced
// serial replay. The exit code is 0 only when the correctness gate passed.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bit_kernels.h"
#include "replay.h"
#include "wire_run.h"
#include "workloads.h"

#ifndef DCS_PERFBENCH_BUILD_TYPE
#define DCS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Correctness gates on detection quality (every planted variant is a
// distinct pattern; see README.md "Correctness gate").
constexpr double kMinRecall = 0.5;
constexpr double kMaxFalseAlarmRate = 0.1;
// Cold starts per --trace 0 pass (the measured center's included): at
// least kMinColdStarts, then more while their set-up times sum to less
// than kSetupBudgetS, up to kMaxColdStarts.
constexpr std::size_t kMinColdStarts = 3;
constexpr double kSetupBudgetS = 1.5;
constexpr std::size_t kMaxColdStarts = 8;
// Consecutive reports per throughput sample (two ring capacities).
constexpr std::size_t kRateSpan = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string socket_dir = ".bench_build/perfbench";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]);
    } else if (flag == "--socket-dir" && has_value) {
      args->socket_dir = argv[++i];
    } else if (flag == "--trace-out" && has_value) {
      args->trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

// --- Host and process probes -------------------------------------------

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

// A /proc/self/status field ("VmRSS:", "VmHWM:") in MiB; 0 if unavailable.
double StatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + std::strlen(field), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Resets the peak-RSS watermark to the current RSS (Linux clear_refs "5").
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// Host-wide CPU ticks from /proc/stat: all, and stolen by the hypervisor.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
  CpuTicks operator-(const CpuTicks& o) const {
    return {total - o.total, steal - o.steal};
  }
};

CpuTicks HostSteal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  stat >> cpu;
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

// --- Statistics ---------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

template <typename Field>
double MedianOf(const std::vector<EpochSample>& samples, Field field) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const EpochSample& s : samples) values.push_back(field(s));
  return Median(std::move(values));
}

// --- Correctness --------------------------------------------------------

// Reports as compared across the wire and the serial replay: the wire does
// not fix the arrival order of routers on different connections, and the
// unaligned report lists groups in arrival order, so group lists are
// compared as sets.
dcs::DcsReport Canonical(dcs::DcsReport report) {
  auto by_id = [](const dcs::GroupRef& a, const dcs::GroupRef& b) {
    return a.router_id != b.router_id ? a.router_id < b.router_id
                                      : a.group_index < b.group_index;
  };
  std::sort(report.unaligned.groups.begin(), report.unaligned.groups.end(),
            by_id);
  for (auto& cluster : report.unaligned.clusters) {
    std::sort(cluster.begin(), cluster.end(), by_id);
  }
  std::sort(report.unaligned.clusters.begin(), report.unaligned.clusters.end(),
            [&](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return std::lexicographical_compare(a.begin(), a.end(),
                                                  b.begin(), b.end(), by_id);
            });
  return report;
}

bool Flagged(const dcs::DcsReport& report) {
  return report.aligned.common_content_detected ||
         report.unaligned.common_content_detected;
}

bool NamesOnlyPlanted(const dcs::DcsReport& report, const Variant& variant) {
  auto planted = [&](std::uint32_t router) {
    return std::binary_search(variant.planted_routers.begin(),
                              variant.planted_routers.end(), router);
  };
  return std::all_of(report.aligned.routers.begin(),
                     report.aligned.routers.end(), planted) &&
         std::all_of(report.unaligned.routers.begin(),
                     report.unaligned.routers.end(), planted);
}

// Recall and false alarms are counted over the wire run's reports: what
// the center reported, arrival order and all.
struct Verdict {
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  /// Wire reports that differ from the router-order replay but equal the
  /// replay of another arrival order of the same digests.
  std::size_t order_dependent = 0;
  std::size_t foreign_routers = 0;
  std::size_t planted = 0;
  std::size_t planted_flagged = 0;
  std::size_t clean = 0;
  std::size_t clean_flagged = 0;

  double recall() const {
    return planted == 0 ? 0.0
                        : static_cast<double>(planted_flagged) /
                              static_cast<double>(planted);
  }
  double false_alarm_rate() const {
    return clean == 0 ? 0.0
                      : static_cast<double>(clean_flagged) /
                            static_cast<double>(clean);
  }
  bool ok() const {
    return compared > 0 && mismatches == 0 && foreign_routers == 0 &&
           planted > 0 && clean > 0 && recall() >= kMinRecall &&
           false_alarm_rate() <= kMaxFalseAlarmRate;
  }
};

// The reports one content yields for other arrival orders of its routers'
// digests. The wire fixes the order only within a connection, and the
// unaligned pipeline numbers graph vertices in arrival order, so its
// detected groups can depend on that order. Only small router counts are
// enumerated; each (content, order) is analysed on first need, once.
class ArrivalOrders {
 public:
  explicit ArrivalOrders(const Inputs& inputs) : inputs_(inputs) {}

  // True when some arrival order of the epoch's digests yields `wire`.
  // Orders that explained earlier reports are tried first (the server's
  // read pattern tends to repeat within a run), then the rest nearest to
  // router order first (fewest inversions), a batch of one per core at a
  // time.
  bool Explains(const dcs::DcsReport& wire) {
    const std::size_t content = wire.epoch_id % inputs_.variants.size();
    const Variant& variant = inputs_.variants[content];
    if (variant.digests.size() > kMaxPermutedRouters) return false;
    dcs::DcsReport target = Canonical(wire);
    target.epoch_id = 0;
    std::vector<std::size_t> order(variant.digests.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<std::vector<std::size_t>> orders;
    while (std::next_permutation(order.begin(), order.end())) {
      orders.push_back(order);
    }
    auto inversions = [](const std::vector<std::size_t>& o) {
      std::size_t count = 0;
      for (std::size_t i = 0; i < o.size(); ++i) {
        for (std::size_t j = i + 1; j < o.size(); ++j) count += o[i] > o[j];
      }
      return count;
    };
    auto rank = [&](const std::vector<std::size_t>& o) {
      const auto seen = std::find(explained_.rbegin(), explained_.rend(), o);
      return seen != explained_.rend()
                 ? static_cast<std::size_t>(seen - explained_.rbegin())
                 : explained_.size() + inversions(o);
    };
    std::stable_sort(orders.begin(), orders.end(),
                     [&](const auto& a, const auto& b) {
                       return rank(a) < rank(b);
                     });
    std::map<std::vector<std::size_t>, dcs::DcsReport>& reports =
        cache_[content];
    const std::size_t batch =
        std::max(1u, std::thread::hardware_concurrency());
    for (std::size_t first = 0; first < orders.size(); first += batch) {
      const std::size_t last = std::min(orders.size(), first + batch);
      std::vector<std::thread> workers;
      std::vector<dcs::DcsReport> computed(last - first);
      for (std::size_t i = first; i < last; ++i) {
        if (reports.count(orders[i]) != 0) continue;
        workers.emplace_back([&, i] {
          std::vector<dcs::Digest> digests;
          for (std::size_t at : orders[i]) {
            digests.push_back(variant.digests[at]);
            digests.back().epoch_id = 0;
          }
          computed[i - first] =
              Canonical(AnalyzeInOrder(inputs_.spec.ring, digests, 0));
        });
      }
      for (std::thread& worker : workers) worker.join();
      for (std::size_t i = first; i < last; ++i) {
        auto it = reports.emplace(orders[i], computed[i - first]).first;
        if (it->second == target) {
          explained_.push_back(orders[i]);
          return true;
        }
      }
    }
    return false;
  }

 private:
  static constexpr std::size_t kMaxPermutedRouters = 5;
  const Inputs& inputs_;
  std::map<std::size_t, std::map<std::vector<std::size_t>, dcs::DcsReport>>
      cache_;
  // Orders that explained a report, latest last.
  std::vector<std::vector<std::size_t>> explained_;
};

// Every wire report must equal the serial replay's report of the same
// content (or, where arrival order matters, the replay of the order the
// digests may have arrived in), and a flagged epoch may name only routers
// that carried the content. `reference[v]` is the replay's report of
// variant v.
Verdict Check(const Inputs& inputs, const std::vector<dcs::DcsReport>& wire,
              const std::vector<dcs::DcsReport>& reference) {
  Verdict verdict;
  const std::size_t variants = inputs.variants.size();
  if (reference.size() < variants) return verdict;
  std::vector<dcs::DcsReport> expected_by_variant;
  for (std::size_t v = 0; v < variants; ++v) {
    expected_by_variant.push_back(Canonical(reference[v]));
  }
  ArrivalOrders orders(inputs);
  for (const dcs::DcsReport& report : wire) {
    dcs::DcsReport expected = expected_by_variant[report.epoch_id % variants];
    expected.epoch_id = report.epoch_id;
    ++verdict.compared;
    const dcs::DcsReport canonical = Canonical(report);
    if (!(canonical == expected)) {
      // Once a report is wrong the pass fails: skip the costly search of
      // arrival orders for the rest.
      if (verdict.mismatches == 0 && orders.Explains(report)) {
        ++verdict.order_dependent;
      } else if (verdict.mismatches++ == 0) {
        std::fprintf(stderr,
                     "first mismatch, epoch %llu:\n  got      %s %s\n"
                     "  expected %s %s\n",
                     static_cast<unsigned long long>(report.epoch_id),
                     canonical.aligned.ToJson().c_str(),
                     canonical.unaligned.ToJson().c_str(),
                     expected.aligned.ToJson().c_str(),
                     expected.unaligned.ToJson().c_str());
      }
    }
    const Variant& variant = inputs.ForEpoch(report.epoch_id);
    const bool flagged = Flagged(report);
    if (variant.planted) {
      ++verdict.planted;
      verdict.planted_flagged += flagged ? 1 : 0;
    } else {
      ++verdict.clean;
      verdict.clean_flagged += flagged ? 1 : 0;
    }
    if (flagged && !NamesOnlyPlanted(report, variant) &&
        verdict.foreign_routers++ == 0) {
      std::fprintf(stderr,
                   "first report naming unplanted routers, epoch %llu:\n"
                   "  %s %s\n",
                   static_cast<unsigned long long>(report.epoch_id),
                   report.aligned.ToJson().c_str(),
                   report.unaligned.ToJson().c_str());
    }
  }
  return verdict;
}

// --- Output -------------------------------------------------------------

std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

// A flat JSON object, keys in insertion order.
class JsonObject {
 public:
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
  }
  void Add(const std::string& key, double value) { Raw(key, Number(value)); }
  void Add(const std::string& key, const std::vector<double>& values) {
    std::string json = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      json += (i == 0 ? "" : ", ") + Number(values[i]);
    }
    Raw(key, json + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dcs_perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] "
                 "[--socket-dir DIR] [--trace-out FILE]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, args.smoke, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf(
      "stamp: {\"workload\": \"%s\", \"size\": \"%s\", \"seed\": %llu, "
      "\"nproc\": %u, \"cpu_model\": \"%s\", \"bit_kernels\": \"%s\", "
      "\"build_type\": \"%s\", \"pool_threads\": %zu, \"connections\": %zu}\n",
      spec.name.c_str(), args.smoke ? "smoke" : "full",
      static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      dcs::ActiveBitKernels().name, DCS_PERFBENCH_BUILD_TYPE, kPoolThreads,
      kConnections);
  std::fflush(stdout);

  Inputs inputs = GenerateInputs(spec, args.seed);
  // The generator's encode-ahead buffers, sized for the largest epoch and
  // touched now, so the center's memory figure does not include them.
  std::vector<EncodedEpoch> ahead(spec.ring.capacity + 1);
  std::vector<std::size_t> largest(kConnections, 0);
  for (std::uint64_t v = 0; v < spec.variants; ++v) {
    EncodeEpoch(&inputs, v, &ahead.front());
    for (std::size_t c = 0; c < kConnections; ++c) {
      largest[c] = std::max(largest[c], ahead.front().streams[c].size());
    }
  }
  for (EncodedEpoch& buffer : ahead) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      buffer.streams[c].resize(largest[c]);
    }
  }

  WireRunOptions wire;
  wire.seconds = args.seconds;
  auto socket_path = [&](std::size_t center) {
    return args.socket_dir + "/ingest-" + std::to_string(::getpid()) + "-" +
           std::to_string(center) + ".sock";
  };
  // The measured center is the process's first, so its memory figure holds
  // no pages an earlier center left in the allocator.
  const bool peak_reset = ResetPeakRss();
  const double baseline_rss_mb = StatusMb("VmRSS:");
  wire.socket_path = socket_path(0);
  CpuTicks steal = HostSteal();
  const WireRunResult run = RunWire(&inputs, wire, &ahead);
  steal = HostSteal() - steal;
  const double peak_growth_mb =
      (peak_reset ? StatusMb("VmHWM:") : StatusMb("VmRSS:")) - baseline_rss_mb;
  if (!run.error.empty()) {
    std::fprintf(stderr, "wire run failed: %s\n", run.error.c_str());
    return 1;
  }
  // With --trace 0 more cold starts follow, each a fresh center measured
  // until its first report: at least kMinColdStarts in all, more while
  // their set-up times sum to less than kSetupBudgetS.
  std::vector<double> setups = {run.setup_s};
  double setup_sum_s = run.setup_s;
  wire.setup_only = true;
  while (args.trace == 0 && setups.size() < kMaxColdStarts &&
         (setups.size() < kMinColdStarts || setup_sum_s < kSetupBudgetS)) {
    wire.socket_path = socket_path(setups.size());
    const WireRunResult cold = RunWire(&inputs, wire, &ahead);
    if (!cold.error.empty()) {
      std::fprintf(stderr, "cold start failed: %s\n", cold.error.c_str());
      return 1;
    }
    setups.push_back(cold.setup_s);
    setup_sum_s += cold.setup_s;
  }

  // The gate's reference: with --trace 1 the traced replay, otherwise the
  // same serial replay spread over the host's cores.
  ReplayResult replay;
  if (args.trace == 1) {
    ReplayOptions replay_options;
    replay_options.probes = true;
    replay_options.min_epochs = spec.variants;
    replay_options.seconds = args.seconds;
    replay = Replay(&inputs, replay_options);
    if (!args.trace_out.empty() && !WriteSpans(replay.spans, args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  } else {
    replay.reports = ReferenceReports(
        &inputs, std::max(1u, std::thread::hardware_concurrency()));
  }

  const Verdict verdict = Check(inputs, run.reports, replay.reports);
  const std::uint64_t attempted = run.digests_written;
  const std::uint64_t accepted = run.dispatch.digests_accepted;
  const std::uint64_t failed = attempted > accepted ? attempted - accepted : 0;

  // Steady state: the reports that left during the window. Reports leave
  // in bursts (several per server round, and alternating short and long
  // gaps in the closed loop), so the rate is taken over spans of
  // kRateSpan consecutive reports (fewer in a short run), median of all
  // such spans.
  const std::size_t window_reports =
      run.window_end > run.window_begin ? run.window_end - run.window_begin
                                        : 0;
  const std::size_t rate_span = std::min(kRateSpan, window_reports);
  std::vector<double> span_rates;
  std::vector<double> latencies_ms;
  for (std::size_t i = run.window_begin; i < run.window_end; ++i) {
    if (i + 1 >= run.window_begin + rate_span) {
      const double span_s =
          run.report_out_s[i] - run.report_out_s[i - rate_span];
      span_rates.push_back(Ratio(static_cast<double>(rate_span), span_s));
    }
    const std::uint64_t epoch = run.reports[i].epoch_id;
    if (epoch < run.written_s.size()) {
      latencies_ms.push_back((run.report_out_s[i] - run.written_s[epoch]) *
                             1e3);
    }
  }
  const double center_cpu_s = run.process_cpu_s - run.generator_cpu_s;
  const double cpu_ms_per_epoch =
      Ratio(center_cpu_s * 1e3, static_cast<double>(window_reports));
  const double epochs_written = static_cast<double>(run.written_s.size());

  const bool correct = verdict.ok() && run.gate_timeouts == 0 &&
                       window_reports > 0 && failed == 0;
  std::printf(
      "run: %zu reports (%zu in a %.3f s window), %llu digests written, "
      "%llu accepted, %zu gate timeouts; %zu cold starts; host CPU stolen "
      "during the run %.1f %%\n",
      run.reports.size(), window_reports, run.window_s,
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(accepted),
      static_cast<std::size_t>(run.gate_timeouts), setups.size(),
      100.0 * Ratio(steal.steal, steal.total));
  std::printf(
      "gate: %zu reports compared, %zu mismatches (%zu more explained by "
      "arrival order), %zu naming unplanted routers; planted epochs "
      "flagged %zu/%zu, clean epochs flagged %zu/%zu -> %s\n",
      verdict.compared, verdict.mismatches, verdict.order_dependent,
      verdict.foreign_routers,
      verdict.planted_flagged, verdict.planted, verdict.clean_flagged,
      verdict.clean, correct ? "pass" : "FAIL");

  JsonObject pass;
  pass.Add("tail_percentile", spec.tail_percentile);
  pass.Add("latencies_ms", latencies_ms);
  pass.Add("span_rates", span_rates);
  pass.Add("setups_s", setups);
  pass.Add("center_cpu_s", center_cpu_s);
  pass.Add("window_s", run.window_s);
  pass.Add("window_reports", static_cast<double>(window_reports));
  pass.Add("epochs_written", epochs_written);
  pass.Add("wire_bytes", static_cast<double>(run.wire_bytes_written));
  pass.Add("digests_written", static_cast<double>(attempted));
  pass.Add("digests_accepted", static_cast<double>(accepted));
  pass.Add("planted", static_cast<double>(verdict.planted));
  pass.Add("planted_flagged", static_cast<double>(verdict.planted_flagged));
  pass.Add("clean", static_cast<double>(verdict.clean));
  pass.Add("clean_flagged", static_cast<double>(verdict.clean_flagged));
  pass.Add("peak_rss_mb", peak_growth_mb);

  JsonObject layers;
  if (args.trace == 1) {
    const std::vector<EpochSample>& s = replay.samples;
    const double serial_ms = MedianOf(s, [](const EpochSample& e) {
      return e.serial_ms();
    });
    const dcs::DispatchStats& d = run.dispatch;
    const std::vector<Metric> metrics = {
        {"netio.parse_ms_per_epoch",
         MedianOf(s, [](const EpochSample& e) { return e.parse_ms; }), "ms"},
        {"netio.decode_ms_per_epoch",
         MedianOf(s, [](const EpochSample& e) { return e.decode_ms; }), "ms"},
        {"netio.ns_per_wire_byte",
         MedianOf(s,
                  [](const EpochSample& e) {
                    return Ratio((e.parse_ms + e.decode_ms) * 1e6,
                                 static_cast<double>(e.wire_bytes));
                  }),
         "ns"},
        {"netio.us_per_frame",
         MedianOf(s,
                  [](const EpochSample& e) {
                    return Ratio((e.parse_ms + e.decode_ms) * 1e3,
                                 static_cast<double>(e.frames));
                  }),
         "us"},
        {"netio.decode_failures", static_cast<double>(d.decode_failures),
         "count"},
        {"netio.sparse_frame_frac",
         Ratio(static_cast<double>(d.sparse_frames),
               static_cast<double>(d.frames)),
         "frac"},
        {"monitor.add_digest_ms_per_epoch",
         MedianOf(s, [](const EpochSample& e) { return e.add_digest_ms; }),
         "ms"},
        {"monitor.add_digest_us_per_digest",
         MedianOf(s,
                  [](const EpochSample& e) {
                    return Ratio(e.add_digest_ms * 1e3,
                                 static_cast<double>(e.digests));
                  }),
         "us"},
        {"monitor.analyze_ms_per_epoch",
         MedianOf(s, [](const EpochSample& e) { return e.analyze_ms; }), "ms"},
        {"ring.stale_digests", static_cast<double>(run.ring.stale_digests),
         "count"},
        {"ring.max_in_flight", static_cast<double>(run.ring.max_in_flight),
         "count"},
        {"ring.blocked_advances",
         static_cast<double>(run.ring.blocked_advances), "count"},
        {"aligned.screen_ms_per_epoch",
         MedianOf(s, [](const EpochSample& e) { return e.aligned_screen_ms; }),
         "ms"},
        {"aligned.search_ms_per_epoch",
         MedianOf(s, [](const EpochSample& e) { return e.aligned_search_ms; }),
         "ms"},
        {"aligned.core_scan_ms_per_epoch",
         MedianOf(s,
                  [](const EpochSample& e) {
                    return e.aligned_detect_ms - e.aligned_screen_ms -
                           e.aligned_search_ms;
                  }),
         "ms"},
        {"aligned.search_iterations_per_epoch",
         MedianOf(s,
                  [](const EpochSample& e) {
                    return static_cast<double>(e.aligned_iterations);
                  }),
         "count"},
        {"aligned.search_ns_per_col_iter",
         MedianOf(s,
                  [](const EpochSample& e) {
                    return Ratio(e.aligned_search_ms * 1e6,
                                 static_cast<double>(e.aligned_iterations *
                                                     e.aligned_screen_cols));
                  }),
         "ns"},
        {"unaligned.lambda_ms_per_epoch",
         MedianOf(s,
                  [](const EpochSample& e) { return e.unaligned_lambda_ms; }),
         "ms"},
        {"unaligned.graph_ms_per_epoch",
         MedianOf(s, [](const EpochSample& e) { return e.unaligned_graph_ms; }),
         "ms"},
        {"unaligned.ns_per_row_pair",
         MedianOf(s,
                  [](const EpochSample& e) {
                    return Ratio(e.unaligned_graph_ms * 1e6,
                                 static_cast<double>(e.unaligned_row_pairs));
                  }),
         "ns"},
        {"unaligned.er_test_ms_per_epoch",
         MedianOf(s, [](const EpochSample& e) { return e.unaligned_er_ms; }),
         "ms"},
        {"unaligned.peel_ms_per_epoch",
         MedianOf(s, [](const EpochSample& e) { return e.unaligned_peel_ms; }),
         "ms"},
        {"unaligned.edges_per_epoch",
         MedianOf(s,
                  [](const EpochSample& e) {
                    return static_cast<double>(e.unaligned_edges);
                  }),
         "count"},
        {"pool.cpu_per_wall", Ratio(center_cpu_s, run.window_s), "ratio"},
        {"trace.serial_ms_per_epoch", serial_ms, "ms"},
        {"trace.unattributed_ms_per_epoch", cpu_ms_per_epoch - serial_ms,
         "ms"},
        {"trace.probe_coverage",
         MedianOf(s,
                  [](const EpochSample& e) {
                    return Ratio(e.probe_sum_ms, e.analyze_ms);
                  }),
         "ratio"},
        {"trace.epochs", static_cast<double>(s.size()), "count"},
        {"gate.order_dependent_reports",
         static_cast<double>(verdict.order_dependent), "count"},
        {"digest_loss_frac",
         Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "frac"},
        {"false_alarm_rate", verdict.false_alarm_rate(), "frac"},
    };
    for (const Metric& m : metrics) {
      layers.Raw(m.name, "{\"value\": " + Number(m.value) + ", \"unit\": \"" +
                             m.unit + "\"}");
    }
  }
  JsonObject result;
  result.Raw("correct", correct ? "true" : "false");
  result.Raw("pass", pass.str());
  result.Raw("metrics", layers.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
