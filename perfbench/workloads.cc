#include "workloads.h"

#include <set>
#include <utility>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "dcs/options.h"
#include "netio/frame.h"
#include "sketch/digest_codec.h"

namespace perfbench {
namespace {

// Shared by every workload: the analysis center `dcs_ingestd --threads 2
// --ring-capacity 4 --shed-policy block` composes, with hot-started
// screens and the router count known up front.
dcs::EpochRingOptions CenterOptions(std::uint32_t routers,
                                    std::size_t row_bits) {
  dcs::EpochRingOptions ring;
  ring.capacity = 4;
  ring.policy = dcs::ShedPolicy::kBlock;
  ring.analysis_budget_per_offer = 1;
  ring.aligned.sketch.num_bits = row_bits;
  ring.aligned.incremental_weights = true;
  ring.ingest.expected_routers = routers;
  return ring;
}

// k distinct values from [0, bound), ascending.
std::vector<std::uint32_t> DistinctSample(std::size_t k, std::size_t bound,
                                          dcs::Rng* rng) {
  std::set<std::uint32_t> picked;
  while (picked.size() < k) {
    picked.insert(static_cast<std::uint32_t>(rng->UniformInt(bound)));
  }
  return {picked.begin(), picked.end()};
}

dcs::BitVector NoiseRow(std::size_t bits, Fill fill, dcs::Rng* rng) {
  dcs::BitVector row(bits);
  std::uint64_t* words = row.mutable_words();
  switch (fill) {
    case Fill::kHalf:
      for (std::size_t w = 0; w < row.num_words(); ++w) words[w] = rng->Next();
      break;
    case Fill::kQuarter:
      for (std::size_t w = 0; w < row.num_words(); ++w) {
        words[w] = rng->Next() & rng->Next();
      }
      break;
  }
  return row;
}

dcs::Digest EmptyDigest(const WorkloadSpec& spec, std::uint32_t router) {
  dcs::Digest digest;
  digest.router_id = router;
  digest.kind = spec.kind;
  digest.num_groups = spec.groups;
  digest.arrays_per_group = spec.arrays;
  digest.packets_covered = 1000;
  digest.raw_bytes_covered = 1000 * 536;
  return digest;
}

void PlantAligned(const WorkloadSpec& spec, dcs::Rng* rng, Variant* variant) {
  variant->planted_routers =
      DistinctSample(spec.plant_rows, spec.routers, rng);
  const std::vector<std::uint32_t> columns =
      DistinctSample(spec.plant_cols, spec.row_bits, rng);
  for (std::uint32_t router : variant->planted_routers) {
    dcs::BitVector& row = variant->digests[router].rows.front();
    for (std::uint32_t c : columns) row.Set(c);
  }
}

// The content's plant_cols bits land in one (random) array of each chosen
// group: some array pair of any two content-carrying groups then shares
// them, which is what the pair scan looks for.
void PlantUnaligned(const WorkloadSpec& spec, dcs::Rng* rng,
                    Variant* variant) {
  variant->planted_routers =
      DistinctSample(spec.plant_routers, spec.routers, rng);
  const std::vector<std::uint32_t> content =
      DistinctSample(spec.plant_cols, spec.row_bits, rng);
  const std::size_t per_router = spec.plant_rows / spec.plant_routers;
  for (std::size_t i = 0; i < variant->planted_routers.size(); ++i) {
    const std::size_t groups =
        per_router + (i < spec.plant_rows % spec.plant_routers ? 1 : 0);
    dcs::Digest& digest = variant->digests[variant->planted_routers[i]];
    for (std::uint32_t g : DistinctSample(groups, spec.groups, rng)) {
      const std::size_t array = rng->UniformInt(spec.arrays);
      dcs::BitVector& row = digest.rows[g * spec.arrays + array];
      for (std::uint32_t c : content) row.Set(c);
    }
  }
}

}  // namespace

bool MakeWorkload(const std::string& name, bool smoke, WorkloadSpec* spec) {
  WorkloadSpec w;
  w.name = name;
  if (name == "aligned_paper_quarter") {
    // Section III-A's shape (100 routers, raw frames, a 40 x 60 pattern) at
    // a quarter of its width (1 Mbit) and of its screen (n' = 1000), so
    // that a run holds about 100 reports: 12.5 MiB on the wire per epoch.
    // Bitmaps are 1/4 full: at the paper's 1/2 the detector let a noise
    // router into the pattern in about one seed in 25, failing the gate.
    // Smoke is a quarter of that width again.
    w.routers = 100;
    w.row_bits = smoke ? (1u << 18) : (1u << 20);
    w.fill = Fill::kQuarter;
    w.plant_rows = 40;
    w.plant_cols = 60;
    w.plant_every = 2;
    w.variants = 4;
    // 2-3 reports a second, with the host's phase: 55-100 latency samples
    // in a 30-s run, at least 13 of them beyond p75.
    w.tail_percentile = 75.0;
    w.ring = CenterOptions(w.routers, w.row_bits);
    w.ring.aligned.n_prime = smoke ? 500 : 1000;
    w.ring.aligned.detector.first_iteration_hopefuls = w.ring.aligned.n_prime;
    w.ring.aligned.detector.hopefuls = smoke ? 128 : 256;
  } else if (name == "unaligned_worm") {
    // Section IV: 4 routers in the paper's per-router sketch shape (128
    // groups x 10 offset arrays x 1024 bits), content in 1/12 of all
    // groups, carried by 3 of the 4 routers. Already seconds-sized, so
    // smoke keeps it: fewer groups would sink the cluster below the ER
    // test's c * ln(n) threshold.
    w.kind = dcs::DigestKind::kUnaligned;
    w.routers = 4;
    w.groups = 128;
    w.arrays = 10;
    w.row_bits = 1024;
    w.fill = Fill::kQuarter;
    w.plant_rows = w.routers * w.groups / 12;
    w.plant_cols = 160;
    w.plant_routers = 3;
    w.plant_every = 2;
    // About one planted content in twenty is missed, so ten planted
    // contents keep recall a rate rather than a coin flip.
    w.variants = 20;
    // About 3 reports a second: 90 latency samples in a 30-s run.
    w.tail_percentile = 75.0;
    w.ring = CenterOptions(w.routers, w.row_bits);
    w.ring.unaligned = dcs::SmallUnalignedDefaults(w.groups);
  } else {
    return false;
  }
  *spec = w;
  return true;
}

Inputs GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs inputs;
  inputs.spec = spec;
  const std::size_t rows_per_digest =
      spec.kind == dcs::DigestKind::kAligned
          ? 1
          : static_cast<std::size_t>(spec.groups) * spec.arrays;
  for (std::uint32_t v = 0; v < spec.variants; ++v) {
    Variant variant;
    for (std::uint32_t r = 0; r < spec.routers; ++r) {
      // One stream per (seed, variant, router): any subset regenerates
      // identically.
      dcs::Rng rng(seed * 0x9E3779B97F4A7C15ULL + v * 1000003ULL + r);
      dcs::Digest digest = EmptyDigest(spec, r);
      for (std::size_t i = 0; i < rows_per_digest; ++i) {
        digest.rows.push_back(NoiseRow(spec.row_bits, spec.fill, &rng));
      }
      variant.digests.push_back(std::move(digest));
    }
    variant.planted = v % spec.plant_every == 0;
    if (variant.planted) {
      dcs::Rng rng(seed * 0xC2B2AE3D27D4EB4FULL + v);
      if (spec.kind == dcs::DigestKind::kAligned) {
        PlantAligned(spec, &rng, &variant);
      } else {
        PlantUnaligned(spec, &rng, &variant);
      }
    }
    inputs.variants.push_back(std::move(variant));
  }
  return inputs;
}

void EncodeEpoch(Inputs* inputs, std::uint64_t epoch, EncodedEpoch* out) {
  out->epoch = epoch;
  out->bytes = 0;
  for (std::vector<std::uint8_t>& stream : out->streams) stream.clear();
  Variant& variant = inputs->variants[epoch % inputs->variants.size()];
  const dcs::DigestCodecId codec = dcs::DigestCodecId::kRaw;
  for (dcs::Digest& digest : variant.digests) {
    digest.epoch_id = epoch;
    const std::vector<std::uint8_t> frame =
        dcs::EncodeFrame(codec, digest.router_id, epoch,
                         dcs::EncodeDigestPayload(digest, codec));
    std::vector<std::uint8_t>& stream =
        out->streams[digest.router_id % out->streams.size()];
    stream.insert(stream.end(), frame.begin(), frame.end());
    out->bytes += frame.size();
  }
}

}  // namespace perfbench
