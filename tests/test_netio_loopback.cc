// Loopback differential proof of the distributed digest plane
// (docs/DISTRIBUTED.md): N simulated routers shipping digests through real
// sockets (UDS and TCP) into dcs_ingestd's server core must produce a
// DcsReport stream *identical* (operator==, i.e. byte-identical fields) to
// offering the same digests to an in-process EpochRing — at thread counts
// 1, 2, and 8, under both payload codecs and auto negotiation, for aligned
// and unaligned digests alike.
//
// The canonical replay order is epoch-major, router-minor over a single
// connection, matching `dcs_workbench send`. A concurrent-connection
// variant (one socket per router) checks that aligned analysis is arrival-
// order invariant when every epoch stays inside the ring window.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "dcs/epoch_ring.h"
#include "netio/digest_sender.h"
#include "netio/dispatch.h"
#include "netio/ingest_server.h"

namespace dcs {
namespace {

constexpr std::uint32_t kRouters = 8;
constexpr std::size_t kBits = 1024;

// Deterministic per-(epoch, router) aligned digest: Bernoulli(1/2) noise
// with a planted pattern on every other epoch (same model as
// tests/test_epoch_ring.cc, smaller).
Digest AlignedDigest(std::uint64_t epoch, std::uint32_t router) {
  Digest digest;
  digest.router_id = router;
  digest.epoch_id = epoch;
  digest.kind = DigestKind::kAligned;
  digest.packets_covered = 100;
  digest.raw_bytes_covered = 100000;
  BitVector row(kBits);
  Rng rng(epoch * 1000003 + router * 7919 + 1);
  for (std::size_t i = 0; i < kBits; ++i) {
    if (rng.Bernoulli(0.5)) row.Set(i);
  }
  if (epoch % 2 == 0 && router < 6) {
    for (std::size_t c = 0; c < 16; ++c) row.Set(31 + 13 * c);
  }
  digest.rows.push_back(std::move(row));
  return digest;
}

// Deterministic unaligned digest: 8 groups x 2 arrays of 256-bit rows with
// per-row densities spanning empty to half full, so every row encoding
// (dense, sparse, RLE) rides the wire.
Digest UnalignedDigest(std::uint64_t epoch, std::uint32_t router) {
  Digest digest;
  digest.router_id = router;
  digest.epoch_id = epoch;
  digest.kind = DigestKind::kUnaligned;
  digest.num_groups = 8;
  digest.arrays_per_group = 2;
  digest.packets_covered = 64;
  digest.raw_bytes_covered = 64 * 536;
  Rng rng(epoch * 900001 + router * 104729 + 5);
  for (std::size_t r = 0; r < 16; ++r) {
    BitVector row(256);
    const double density[] = {0.0, 0.01, 0.1, 0.5};
    const double d = density[r % 4];
    for (std::size_t i = 0; i < 256; ++i) {
      if (rng.Bernoulli(d)) row.Set(i);
    }
    digest.rows.push_back(std::move(row));
  }
  return digest;
}

EpochRingOptions RingOptions() {
  EpochRingOptions options;
  options.capacity = 4;
  options.aligned.n_prime = 96;
  options.aligned.detector.first_iteration_hopefuls = 96;
  options.aligned.detector.hopefuls = 48;
  options.aligned.incremental_weights = true;
  options.unaligned.detector.beta = 8;
  return options;
}

// Epoch-major, router-minor: the canonical replay order.
std::vector<Digest> CanonicalStream(std::uint64_t epochs, bool aligned) {
  std::vector<Digest> digests;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (std::uint32_t r = 0; r < kRouters; ++r) {
      digests.push_back(aligned ? AlignedDigest(e, r) : UnalignedDigest(e, r));
    }
  }
  return digests;
}

std::unique_ptr<ThreadPool> MakePool(std::size_t threads,
                                     AnalysisContext* context) {
  if (threads <= 1) return nullptr;
  auto pool = std::make_unique<ThreadPool>(threads);
  context->pool = pool.get();
  return pool;
}

// The in-process half of the differential: same ring options, same thread
// pool shape, digests offered directly.
std::vector<DcsReport> InProcessReports(const std::vector<Digest>& digests,
                                        std::size_t threads) {
  AnalysisContext context;
  std::unique_ptr<ThreadPool> pool = MakePool(threads, &context);
  EpochRing ring(RingOptions(), context);
  for (const Digest& digest : digests) {
    (void)ring.Offer(digest);  // Verdicts are part of the report stream.
  }
  ring.Drain();
  return ring.TakeReports();
}

struct Endpoint {
  bool tcp = false;
  std::uint16_t port = 0;
  std::string uds;
};

Status Connect(const Endpoint& endpoint, DigestSender* out) {
  return endpoint.tcp ? DigestSender::ConnectTcp("127.0.0.1", endpoint.port, out)
                      : DigestSender::ConnectUds(endpoint.uds, out);
}

struct NetResult {
  std::vector<DcsReport> reports;
  DispatchStats dispatch;
  IngestServerStats server;
};

// The networked half: a real IngestServer on an ephemeral endpoint, the
// client callback shipping digests from this thread, the server winding
// down once all `expected_connections` have come and gone.
NetResult ServeLoopback(std::size_t threads, bool tcp,
                        std::size_t expected_connections,
                        const std::function<void(const Endpoint&)>& client) {
  AnalysisContext context;
  std::unique_ptr<ThreadPool> pool = MakePool(threads, &context);
  EpochRing ring(RingOptions(), context);
  FrameDispatcher dispatcher(&ring, pool.get());

  const IngestServer* server_ptr = nullptr;
  IngestServerOptions options;
  // The same pool drives analysis decode *and* the server's parallel read
  // stage, so the t2/t8 parameterizations exercise the multi-threaded
  // server end to end — the differential below is the proof that worker
  // count never changes the report stream.
  options.pool = pool.get();
  options.poll_timeout_ms = 5;
  options.after_round = [&server_ptr, expected_connections]() {
    if (server_ptr == nullptr) return true;
    const IngestServerStats& stats = server_ptr->stats();
    return stats.connections_closed < expected_connections;
  };
  IngestServer server(options, &dispatcher);
  server_ptr = &server;

  Endpoint endpoint;
  endpoint.tcp = tcp;
  static int counter = 0;
  endpoint.uds = (std::filesystem::temp_directory_path() /
                  ("dcs_loopback_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter++) + ".sock"))
                     .string();
  if (tcp) {
    EXPECT_TRUE(server.ListenTcp(0).ok());
    endpoint.port = server.bound_tcp_port();
  } else {
    EXPECT_TRUE(server.ListenUds(endpoint.uds).ok());
  }

  Status serve_status;
  std::thread serve_thread(
      [&server, &serve_status] { serve_status = server.Serve(); });
  client(endpoint);
  serve_thread.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();

  ring.Drain();
  NetResult result;
  result.reports = ring.TakeReports();
  result.dispatch = dispatcher.stats();
  result.server = server.stats();
  return result;
}

// Ships `digests` in order over one connection.
std::function<void(const Endpoint&)> SingleConnectionClient(
    const std::vector<Digest>& digests, CodecMode mode) {
  return [&digests, mode](const Endpoint& endpoint) {
    DigestSender sender;
    ASSERT_TRUE(Connect(endpoint, &sender).ok());
    for (const Digest& digest : digests) {
      ASSERT_TRUE(sender.Send(digest, mode).ok());
    }
    sender.Close();
  };
}

void ExpectSameReports(const std::vector<DcsReport>& expected,
                       const NetResult& actual) {
  ASSERT_EQ(expected.size(), actual.reports.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(expected[i] == actual.reports[i]) << "report " << i;
  }
}

class LoopbackDifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, CodecMode>> {};

// The core differential: UDS transport, canonical single-connection order,
// aligned digests — networked report stream == in-process report stream.
TEST_P(LoopbackDifferentialTest, AlignedStreamMatchesInProcess) {
  const auto [threads, mode] = GetParam();
  const std::vector<Digest> digests = CanonicalStream(6, /*aligned=*/true);
  const std::vector<DcsReport> expected = InProcessReports(digests, threads);
  ASSERT_EQ(expected.size(), 6u);
  const NetResult actual = ServeLoopback(
      threads, /*tcp=*/false, 1, SingleConnectionClient(digests, mode));
  ExpectSameReports(expected, actual);
  EXPECT_EQ(actual.dispatch.frames, digests.size());
  EXPECT_EQ(actual.dispatch.digests_accepted, digests.size());
  EXPECT_EQ(actual.dispatch.frame_rejects, 0u);
  EXPECT_EQ(actual.dispatch.decode_failures, 0u);
}

// Same differential with unaligned multi-row digests.
TEST_P(LoopbackDifferentialTest, UnalignedStreamMatchesInProcess) {
  const auto [threads, mode] = GetParam();
  const std::vector<Digest> digests = CanonicalStream(5, /*aligned=*/false);
  const std::vector<DcsReport> expected = InProcessReports(digests, threads);
  ASSERT_EQ(expected.size(), 5u);
  const NetResult actual = ServeLoopback(
      threads, /*tcp=*/false, 1, SingleConnectionClient(digests, mode));
  ExpectSameReports(expected, actual);
  EXPECT_EQ(actual.dispatch.digests_accepted, digests.size());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndCodecs, LoopbackDifferentialTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}),
                       ::testing::Values(CodecMode::kRaw, CodecMode::kSparse,
                                         CodecMode::kAuto)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, CodecMode>>&
           param) {
      std::string name = "t";
      name += std::to_string(std::get<0>(param.param));
      name += "_";
      name += CodecModeName(std::get<1>(param.param));
      return name;
    });

// TCP transport carries the identical stream (the differential repeated on
// the other socket family, single thread count — the transports share every
// byte of parse/dispatch code above the fd).
TEST(NetioLoopbackTest, TcpMatchesInProcess) {
  const std::vector<Digest> digests = CanonicalStream(4, /*aligned=*/true);
  const std::vector<DcsReport> expected = InProcessReports(digests, 2);
  const NetResult actual = ServeLoopback(
      2, /*tcp=*/true, 1, SingleConnectionClient(digests, CodecMode::kSparse));
  ExpectSameReports(expected, actual);
  EXPECT_EQ(actual.server.connections_accepted, 1u);
  EXPECT_EQ(actual.server.connections_closed, 1u);
}

// One connection per router, all sending concurrently. Aligned analysis is
// arrival-order invariant, and with every epoch inside the ring window
// (epochs <= capacity) no interleaving can force an early close — so any
// arrival order yields the canonical reports. At `threads` > 1 the server
// drains those connections on its worker pool — the multi-connection proof
// that the parallel read stage preserves the report stream.
void RunConcurrentRouters(std::size_t threads) {
  constexpr std::uint64_t kEpochs = 3;  // < RingOptions().capacity.
  const std::vector<Digest> canonical =
      CanonicalStream(kEpochs, /*aligned=*/true);
  const std::vector<DcsReport> expected = InProcessReports(canonical, threads);
  const NetResult actual = ServeLoopback(
      threads, /*tcp=*/false, kRouters, [](const Endpoint& endpoint) {
        std::vector<std::thread> routers;
        for (std::uint32_t r = 0; r < kRouters; ++r) {
          routers.emplace_back([&endpoint, r] {
            DigestSender sender;
            ASSERT_TRUE(Connect(endpoint, &sender).ok());
            for (std::uint64_t e = 0; e < kEpochs; ++e) {
              ASSERT_TRUE(
                  sender.Send(AlignedDigest(e, r), CodecMode::kAuto).ok());
            }
            sender.Close();
          });
        }
        for (std::thread& t : routers) t.join();
      });
  ExpectSameReports(expected, actual);
  EXPECT_EQ(actual.server.connections_accepted, kRouters);
  EXPECT_EQ(actual.dispatch.digests_accepted, kRouters * kEpochs);
}

TEST(NetioLoopbackTest, ConcurrentRouterConnectionsMatchCanonical) {
  RunConcurrentRouters(1);
}

TEST(NetioLoopbackTest, ConcurrentRouterConnectionsMatchCanonicalThreaded) {
  RunConcurrentRouters(4);
}

// Codec accounting: a raw-mode stream is all raw frames, a sparse-mode
// stream all sparse, and sparse ships strictly fewer payload bytes for the
// near-empty unaligned digests.
TEST(NetioLoopbackTest, CodecAccountingAndSparseSavings) {
  const std::vector<Digest> digests = CanonicalStream(2, /*aligned=*/false);
  const NetResult raw = ServeLoopback(
      1, /*tcp=*/false, 1, SingleConnectionClient(digests, CodecMode::kRaw));
  const NetResult sparse = ServeLoopback(
      1, /*tcp=*/false, 1,
      SingleConnectionClient(digests, CodecMode::kSparse));
  EXPECT_EQ(raw.dispatch.raw_frames, digests.size());
  EXPECT_EQ(raw.dispatch.sparse_frames, 0u);
  EXPECT_EQ(sparse.dispatch.sparse_frames, digests.size());
  EXPECT_EQ(sparse.dispatch.raw_frames, 0u);
  EXPECT_LT(sparse.dispatch.payload_bytes, raw.dispatch.payload_bytes);
  // Both decode to the same digests, so the dense-equivalent accounting
  // (what the payloads *would* cost raw) agrees.
  EXPECT_EQ(sparse.dispatch.dense_bytes, raw.dispatch.dense_bytes);
  EXPECT_EQ(raw.dispatch.payload_bytes, raw.dispatch.dense_bytes);
  ExpectSameReports(raw.reports, sparse);
}

// A stale socket file — the previous daemon died without unlinking — is
// reclaimed: ListenUds probes it, gets connection-refused, and binds.
TEST(NetioLoopbackTest, StaleUdsSocketPathReclaimed) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dcs_stale_uds_" + std::to_string(::getpid()) + ".sock"))
          .string();
  // Manufacture the stale file: bind a raw listener, then close it without
  // unlinking — exactly what a crashed daemon leaves behind (nothing
  // answers the socket file any more, so a probe connect is refused).
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(fd, 1), 0);
    ::close(fd);  // Socket file survives; nothing answers it.
  }
  EpochRing ring(RingOptions(), AnalysisContext{});
  FrameDispatcher dispatcher(&ring, nullptr);
  IngestServer server(IngestServerOptions{}, &dispatcher);
  EXPECT_TRUE(server.ListenUds(path).ok());
}

// A *live* socket path — another daemon is serving it — must be refused,
// not hijacked: unlinking it would silently orphan the running server.
TEST(NetioLoopbackTest, LiveUdsSocketPathRefused) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dcs_live_uds_" + std::to_string(::getpid()) + ".sock"))
          .string();
  EpochRing ring(RingOptions(), AnalysisContext{});
  FrameDispatcher dispatcher(&ring, nullptr);
  IngestServerOptions options;
  options.poll_timeout_ms = 5;
  IngestServer live(options, &dispatcher);
  ASSERT_TRUE(live.ListenUds(path).ok());
  std::thread serve_thread([&live] { (void)live.Serve(); });

  EpochRing ring2(RingOptions(), AnalysisContext{});
  FrameDispatcher dispatcher2(&ring2, nullptr);
  IngestServer usurper(IngestServerOptions{}, &dispatcher2);
  const Status status = usurper.ListenUds(path);
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition);

  // The incumbent is unharmed: a client still connects and ships. (It sees
  // two connections total — the usurper's probe is itself a short-lived
  // accept-then-EOF connection, which is exactly how the probe avoids
  // false "stale" verdicts.)
  DigestSender sender;
  EXPECT_TRUE(DigestSender::ConnectUds(path, &sender).ok());
  EXPECT_TRUE(sender.Send(AlignedDigest(0, 0), CodecMode::kAuto).ok());
  sender.Close();
  // Wait (scheduling yields, no timing assumption) for the server to see
  // the connections come and go before winding it down.
  while (live.stats().connections_closed < 2) std::this_thread::yield();
  live.RequestStop();
  serve_thread.join();
  EXPECT_EQ(live.stats().connections_accepted, 2u);
}

// With the fleet size known, an epoch's report is queued during the poll
// round that dispatches its last frame. The client ships one epoch, then
// waits until the server has dispatched all of its frames before shipping
// the next, so no later epoch can have pushed the window past it: the
// report was out before any later-epoch frame was sent.
TEST(NetioLoopbackTest, ReportLeavesWithTheEpochsLastFrame) {
  constexpr std::uint64_t kEpochs = 5;
  EpochRingOptions ring_options = RingOptions();
  ring_options.ingest.expected_routers = kRouters;
  EpochRing ring(ring_options, AnalysisContext{});
  FrameDispatcher dispatcher(&ring, nullptr);

  Mutex mu("ReportLeavesWithTheEpochsLastFrame.mu");
  CondVar cv;
  std::uint64_t frames_seen = 0;  // Guarded by mu.
  std::vector<DcsReport> reports;
  // Frames dispatched when each report was first seen in TakeReports().
  std::vector<std::uint64_t> frames_at_report;
  const IngestServer* server_ptr = nullptr;
  IngestServerOptions options;
  options.poll_timeout_ms = 5;
  options.after_round = [&]() {
    const std::uint64_t frames = dispatcher.stats().frames;
    for (DcsReport& report : ring.TakeReports()) {
      reports.push_back(std::move(report));
      frames_at_report.push_back(frames);
    }
    {
      MutexLock lock(&mu);
      frames_seen = frames;
    }
    cv.SignalAll();
    return server_ptr == nullptr || server_ptr->stats().connections_closed < 1;
  };
  IngestServer server(options, &dispatcher);
  server_ptr = &server;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dcs_report_latency_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ASSERT_TRUE(server.ListenUds(path).ok());
  Status serve_status;
  std::thread serve_thread(
      [&server, &serve_status] { serve_status = server.Serve(); });
  [&] {
    DigestSender sender;
    ASSERT_TRUE(DigestSender::ConnectUds(path, &sender).ok());
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      for (std::uint32_t r = 0; r < kRouters; ++r) {
        ASSERT_TRUE(sender.Send(AlignedDigest(e, r), CodecMode::kAuto).ok());
      }
      MutexLock lock(&mu);
      while (frames_seen < (e + 1) * kRouters) cv.Wait(&lock);
    }
    sender.Close();
  }();
  serve_thread.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();

  ASSERT_EQ(reports.size(), kEpochs);
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(reports[e].epoch_id, e);
    EXPECT_EQ(reports[e].digests_accepted, kRouters);
    EXPECT_EQ(frames_at_report[e], (e + 1) * kRouters) << "epoch " << e;
  }
  EXPECT_EQ(ring.stats().complete_closes, kEpochs);
  EXPECT_EQ(ring.stats().advance_closes, 0u);
}

// An identity lie — the frame envelope claiming a different router than the
// digest inside — is dropped before the ring, and the rest of the stream
// still lands.
TEST(NetioLoopbackTest, EnvelopeIdentityMismatchDropped) {
  const std::vector<Digest> digests = CanonicalStream(2, /*aligned=*/true);
  const NetResult actual = ServeLoopback(
      1, /*tcp=*/false, 1, [&digests](const Endpoint& endpoint) {
        DigestSender sender;
        ASSERT_TRUE(Connect(endpoint, &sender).ok());
        for (std::size_t i = 0; i < digests.size(); ++i) {
          if (i == 3) {
            // Hand-frame a payload whose envelope lies about the router.
            const std::vector<std::uint8_t> payload =
                EncodeDigestPayload(digests[i], DigestCodecId::kSparse);
            const std::vector<std::uint8_t> frame =
                EncodeFrame(DigestCodecId::kSparse,
                            digests[i].router_id + 1000,
                            digests[i].epoch_id, payload);
            ASSERT_TRUE(sender.SendRaw(frame).ok());
          } else {
            ASSERT_TRUE(sender.Send(digests[i], CodecMode::kSparse).ok());
          }
        }
        sender.Close();
      });
  EXPECT_EQ(actual.dispatch.identity_mismatches, 1u);
  EXPECT_EQ(actual.dispatch.digests_offered, digests.size() - 1);
  EXPECT_EQ(actual.dispatch.frame_rejects, 0u);  // The frame itself is fine.
  // The mismatched digest is simply missing from its epoch.
  ASSERT_EQ(actual.reports.size(), 2u);
  EXPECT_EQ(actual.reports[0].digests_accepted, kRouters - 1);
  EXPECT_EQ(actual.reports[1].digests_accepted, kRouters);
}

}  // namespace
}  // namespace dcs
