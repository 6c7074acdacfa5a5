// Permutation differential suite: an epoch's DcsReport is a function of its
// digests, not of the order they arrived in. Over the wire, the order across
// router connections is whatever the server reads first, so every order of
// the same digests must give the same report — through a one-shot
// DcsMonitor (AnalyzeAligned, AnalyzeUnaligned) and through the EpochRing,
// whose analyses must also equal the monitor's. All 24 orders of 4 routers are tried, and seeded
// shuffles of 30; each router ships an aligned and an unaligned digest.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "dcs/epoch_ring.h"
#include "dcs/monitor.h"
#include "sketch/digest.h"

namespace dcs {

// Readable failure output: the JSON forms carry the detected groups.
void PrintTo(const DcsReport& report, std::ostream* os) {
  *os << report.aligned.ToJson() << " " << report.unaligned.ToJson();
}

namespace {

constexpr std::size_t kAlignedBits = 2048;
constexpr std::size_t kGroups = 12;
constexpr std::size_t kArrays = 4;
constexpr std::size_t kUnalignedBits = 512;

BitVector RandomRow(std::size_t bits, double fill, Rng* rng) {
  BitVector row(bits);
  for (std::size_t c = 0; c < bits; ++c) {
    if (rng->Bernoulli(fill)) row.Set(c);
  }
  return row;
}

// The epoch's digests in router order: per router, an aligned bitmap at 1/4
// fill and an unaligned digest of kGroups x kArrays rows at 1/5 fill.
// Routers [0, planted) share content: an aligned column block, and a common
// index set in the first array of groups 0, 4 and 8. Every planted group
// pair gets an edge, so the peel meets many equal-degree vertices and its
// tie-breaks decide the core.
std::vector<Digest> EpochDigests(std::uint32_t routers, std::uint32_t planted,
                                 std::size_t aligned_cols,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> unaligned_signal;
  while (unaligned_signal.size() < 130) {
    unaligned_signal.push_back(rng.UniformInt(kUnalignedBits));
  }
  std::vector<Digest> digests;
  for (std::uint32_t r = 0; r < routers; ++r) {
    Digest aligned;
    aligned.router_id = r;
    aligned.kind = DigestKind::kAligned;
    aligned.rows.push_back(RandomRow(kAlignedBits, 0.25, &rng));
    Digest unaligned;
    unaligned.router_id = r;
    unaligned.kind = DigestKind::kUnaligned;
    unaligned.num_groups = kGroups;
    unaligned.arrays_per_group = kArrays;
    for (std::size_t row = 0; row < kGroups * kArrays; ++row) {
      unaligned.rows.push_back(RandomRow(kUnalignedBits, 0.2, &rng));
    }
    if (r < planted) {
      for (std::size_t c = 0; c < aligned_cols; ++c) {
        aligned.rows.front().Set(100 + 7 * c);
      }
      for (std::size_t g : {0u, 4u, 8u}) {
        for (std::size_t c : unaligned_signal) {
          unaligned.rows[g * kArrays].Set(c);
        }
      }
    }
    digests.push_back(std::move(aligned));
    digests.push_back(std::move(unaligned));
  }
  return digests;
}

AlignedPipelineOptions Aligned() {
  AlignedPipelineOptions aligned;
  aligned.n_prime = 128;
  aligned.detector.first_iteration_hopefuls = 96;
  aligned.detector.hopefuls = 48;
  return aligned;
}

UnalignedPipelineOptions Unaligned() {
  UnalignedPipelineOptions unaligned;
  unaligned.er_threshold = 6;
  // A core smaller than the planted cluster: which of the equal-degree
  // planted groups form it is a pure tie-break.
  unaligned.detector.beta = 5;
  unaligned.detector.expand_min_edges = 2;
  return unaligned;
}

// What a one-shot monitor reports for the digests, taken in `order`.
DcsReport ViaMonitor(const std::vector<Digest>& digests,
                     const std::vector<std::size_t>& order) {
  DcsMonitor monitor(Aligned(), Unaligned());
  for (std::size_t at : order) {
    EXPECT_TRUE(monitor.AddDigest(digests[at]).ok());
  }
  DcsReport report;
  report.aligned = monitor.AnalyzeAligned();
  report.unaligned = monitor.AnalyzeUnaligned();
  report.digests_accepted = monitor.ingest_stats().accepted;
  report.observed_routers = monitor.ingest_stats().observed_routers;
  return report;
}

DcsReport ViaRing(const std::vector<Digest>& digests,
                  const std::vector<std::size_t>& order) {
  EpochRingOptions options;
  options.capacity = 2;
  options.aligned = Aligned();
  options.unaligned = Unaligned();
  EpochRing ring(options);
  for (std::size_t at : order) {
    EXPECT_TRUE(ring.Offer(digests[at]).ok());
  }
  ring.Drain();
  std::vector<DcsReport> reports = ring.TakeReports();
  EXPECT_EQ(reports.size(), 1u);
  return reports.empty() ? DcsReport{} : reports.front();
}

// Digest indices that deliver routers in `router_order`, each router's
// aligned digest before its unaligned one.
std::vector<std::size_t> DigestOrder(
    const std::vector<std::uint32_t>& router_order) {
  std::vector<std::size_t> order;
  for (std::uint32_t r : router_order) {
    order.push_back(2 * r);
    order.push_back(2 * r + 1);
  }
  return order;
}

// Reference reports (router order) that actually detect, or the
// differential would be vacuous, and that the ring analyzes like the
// one-shot monitor.
void ExpectDetects(const DcsReport& reference, const DcsReport& ring,
                   bool aligned) {
  EXPECT_EQ(reference.aligned.common_content_detected, aligned);
  EXPECT_TRUE(reference.unaligned.common_content_detected);
  EXPECT_FALSE(reference.unaligned.groups.empty());
  EXPECT_EQ(ring.aligned, reference.aligned);
  EXPECT_EQ(ring.unaligned, reference.unaligned);
}

TEST(ArrivalOrderTest, EveryOrderOfFourRoutersGivesOneReport) {
  const std::vector<Digest> digests = EpochDigests(4, 3, 0, 41);
  std::vector<std::uint32_t> routers = {0, 1, 2, 3};
  const DcsReport reference = ViaMonitor(digests, DigestOrder(routers));
  const DcsReport ring_reference = ViaRing(digests, DigestOrder(routers));
  ExpectDetects(reference, ring_reference, /*aligned=*/false);
  std::size_t orders = 0;
  do {
    const std::vector<std::size_t> order = DigestOrder(routers);
    EXPECT_EQ(ViaMonitor(digests, order), reference)
        << "order #" << orders << " starts with router " << routers[0];
    EXPECT_EQ(ViaRing(digests, order), ring_reference)
        << "order #" << orders << " starts with router " << routers[0];
    ++orders;
  } while (std::next_permutation(routers.begin(), routers.end()));
  EXPECT_EQ(orders, 24u);
}

TEST(ArrivalOrderTest, ShufflesOfThirtyRoutersGiveOneReport) {
  const std::vector<Digest> digests = EpochDigests(30, 20, 60, 43);
  std::vector<std::uint32_t> routers(30);
  std::iota(routers.begin(), routers.end(), 0u);
  const DcsReport reference = ViaMonitor(digests, DigestOrder(routers));
  const DcsReport ring_reference = ViaRing(digests, DigestOrder(routers));
  ExpectDetects(reference, ring_reference, /*aligned=*/true);
  Rng rng(7);
  for (int shuffle = 0; shuffle < 10; ++shuffle) {
    for (std::size_t i = routers.size() - 1; i > 0; --i) {
      std::swap(routers[i], routers[rng.UniformInt(i + 1)]);
    }
    const std::vector<std::size_t> order = DigestOrder(routers);
    EXPECT_EQ(ViaMonitor(digests, order), reference) << "shuffle " << shuffle;
    EXPECT_EQ(ViaRing(digests, order), ring_reference)
        << "shuffle " << shuffle;
  }
}

}  // namespace
}  // namespace dcs
