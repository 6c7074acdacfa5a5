// Workload shapes and the seeded input generator of the end-to-end
// benchmark (perfbench/README.md). Inputs are router digests; the analysis
// center only ever sees them as encoded frames on a socket.
#ifndef DCS_PERFBENCH_WORKLOADS_H_
#define DCS_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dcs/epoch_ring.h"
#include "sketch/digest.h"

namespace perfbench {

/// Connections the routers' frames share (router r uses r % kConnections).
inline constexpr std::size_t kConnections = 4;

/// Bit density of the generated (noise) rows.
enum class Fill { kHalf, kQuarter };

/// One benchmark workload: the digest shape every router ships, what is
/// planted in which epochs, and the analysis center's configuration.
struct WorkloadSpec {
  std::string name;
  dcs::DigestKind kind = dcs::DigestKind::kAligned;
  std::uint32_t routers = 0;
  /// Bits per row; unaligned digests carry groups * arrays rows.
  std::size_t row_bits = 0;
  std::uint32_t groups = 1;
  std::uint32_t arrays = 1;
  Fill fill = Fill::kHalf;
  /// Aligned: an all-1 plant_rows x plant_cols pattern over plant_rows
  /// routers. Unaligned: plant_cols shared content bits in plant_rows
  /// groups spread over plant_routers routers.
  std::uint32_t plant_rows = 0;
  std::uint32_t plant_cols = 0;
  std::uint32_t plant_routers = 0;
  /// Epoch e carries the pattern iff e % plant_every == 0.
  std::uint64_t plant_every = 1;
  /// Distinct epoch contents; epoch e replays content e % variants (a
  /// multiple of plant_every, so the plant schedule is preserved).
  std::uint32_t variants = 1;
  /// Percentile of report_latency_tail_ms: fixed per workload, so that a
  /// standard run (BENCHMARK.json run_seconds) leaves at least 20 latency
  /// samples beyond it.
  double tail_percentile = 90.0;
  /// The analysis center: capacity-4 blocking ring with incremental
  /// weights, and the workload's detector settings.
  dcs::EpochRingOptions ring;
};

/// Fills `*spec` for `name` at full or smoke size. False for an unknown
/// name.
bool MakeWorkload(const std::string& name, bool smoke, WorkloadSpec* spec);

/// One distinct epoch content: every router's digest (epoch id is stamped
/// at encode time) and the ground truth.
struct Variant {
  std::vector<dcs::Digest> digests;
  bool planted = false;
  /// Routers carrying the planted content, ascending.
  std::vector<std::uint32_t> planted_routers;
};

struct Inputs {
  WorkloadSpec spec;
  std::vector<Variant> variants;

  const Variant& ForEpoch(std::uint64_t epoch) const {
    return variants[epoch % variants.size()];
  }
};

/// Generates every variant from `seed`: the same seed gives the same
/// digests bit for bit.
Inputs GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed);

/// One epoch as the routers ship it: router r's frame is appended to
/// streams[r % kConnections], so each connection's stream is in router
/// order.
struct EncodedEpoch {
  std::uint64_t epoch = 0;
  std::vector<std::vector<std::uint8_t>> streams =
      std::vector<std::vector<std::uint8_t>>(kConnections);
  /// Frame bytes over all streams.
  std::size_t bytes = 0;
};

/// Encodes `epoch` into `*out`, reusing its streams' capacity.
void EncodeEpoch(Inputs* inputs, std::uint64_t epoch, EncodedEpoch* out);

}  // namespace perfbench

#endif  // DCS_PERFBENCH_WORKLOADS_H_
