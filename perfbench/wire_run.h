// The untraced end-to-end run: the analysis center composed as
// `dcs_ingestd --threads 2` composes it (IngestServer -> FrameDispatcher ->
// EpochRing -> DcsMonitor, one ThreadPool(2) shared by the server's drain
// stage and by analysis), fed real frames over Unix-domain sockets by a
// closed-loop generator on the calling thread.
#ifndef DCS_PERFBENCH_WIRE_RUN_H_
#define DCS_PERFBENCH_WIRE_RUN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dcs/epoch_ring.h"
#include "netio/dispatch.h"
#include "workloads.h"

namespace perfbench {

/// Threads of the one pool the center shares between the server's drain
/// stage, the dispatcher's decode and analysis.
inline constexpr std::size_t kPoolThreads = 2;

struct WireRunOptions {
  /// Listener path, relative to the working directory.
  std::string socket_path;
  /// Stop as soon as the first report is out (a set-up measurement).
  bool setup_only = false;
  /// Length of the measurement window, which opens once one ring
  /// capacity of reports is out.
  double seconds = 10.0;
};

struct WireRunResult {
  /// Construction of pool, ring, dispatcher and listener until the first
  /// report left TakeReports().
  double setup_s = 0.0;
  /// Every report, in epoch order, and when it left TakeReports()
  /// (seconds since construction began).
  std::vector<dcs::DcsReport> reports;
  std::vector<double> report_out_s;
  /// Per written epoch: when the generator finished writing its last frame.
  std::vector<double> written_s;
  /// Reports [window_begin, window_end) left during the window.
  std::size_t window_begin = 0;
  std::size_t window_end = 0;
  double window_s = 0.0;
  /// Process CPU and the generator thread's own CPU over the window.
  double process_cpu_s = 0.0;
  double generator_cpu_s = 0.0;
  std::uint64_t digests_written = 0;
  std::uint64_t wire_bytes_written = 0;
  /// Closed-loop waits that gave up (a digest never reached its slot).
  std::uint64_t gate_timeouts = 0;
  dcs::DispatchStats dispatch;
  dcs::RingStats ring;
  std::string error;
};

/// Runs the center until the window closes (or, with setup_only, until the
/// first report), then hangs up and waits until every written frame was
/// offered. The last `capacity` epochs stay open (no Drain()).
///
/// `ahead` holds the generator's encoded epochs, at least capacity + 1
/// buffers; the caller allocates them so their pages are not charged to the
/// center. Epochs 0 .. ahead->size() - 1 are encoded before the clock
/// starts, so the cold start holds no generator work; a later epoch is
/// encoded into the buffer of one already written, while the closed loop
/// holds the next write back.
WireRunResult RunWire(Inputs* inputs, const WireRunOptions& options,
                      std::vector<EncodedEpoch>* ahead);

}  // namespace perfbench

#endif  // DCS_PERFBENCH_WIRE_RUN_H_
