#ifndef DCS_NETIO_DISPATCH_H_
#define DCS_NETIO_DISPATCH_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "dcs/epoch_ring.h"
#include "netio/frame.h"

namespace dcs {

/// Dispatcher lifetime counters (mirrored into netio.* metrics).
struct DispatchStats {
  std::uint64_t frames = 0;            ///< Valid frames handled.
  std::uint64_t frame_rejects = 0;     ///< Parser reject events handled.
  std::uint64_t resync_bytes = 0;      ///< Stream bytes discarded to resync.
  std::uint64_t decode_failures = 0;   ///< Payload failed strict decode.
  std::uint64_t identity_mismatches = 0;  ///< Envelope != payload identity.
  std::uint64_t raw_frames = 0;        ///< Valid frames, kRaw codec.
  std::uint64_t sparse_frames = 0;     ///< Valid frames, kSparse codec.
  std::uint64_t payload_bytes = 0;     ///< Wire payload bytes of valid frames.
  std::uint64_t dense_bytes = 0;       ///< Their dense-equivalent (kRaw) size.
  std::uint64_t digests_offered = 0;   ///< Decoded digests offered to the ring.
  std::uint64_t digests_accepted = 0;
  std::uint64_t digests_rejected = 0;  ///< Ring-level (shape, dup, stale...).
};

/// \brief Bridges parsed frame events into EpochRing ingestion.
///
/// The trust boundary of the digest plane (docs/DISTRIBUTED.md): a payload
/// is decoded with the strict per-frame codec, the envelope identity is
/// cross-checked against the decoded digest's own header, and only then is
/// the digest offered to the ring — which applies the full
/// DcsMonitor::AddDigest hardening (shape, duplicate, epoch window,
/// per-router quarantine) exactly as for in-process ingestion. Malformed
/// payloads never construct a Digest that reaches the ring.
///
/// Frame-level failures (parse rejects, decode failures, identity
/// mismatches) never quarantine a router: every identity in a damaged or
/// forged frame is unauthenticated, so acting on it would let an attacker
/// quarantine an honest router by spraying garbage. Quarantine remains a
/// ring-level verdict about *well-formed* digests only.
///
/// Threading: deliberately unlocked. HandleEvents must be
/// called from one thread at a time (the server's ingest loop) — the ring's
/// offer path is thread-confined, and serial offers are what keep the
/// report stream deterministic, so a mutex here would buy nothing and hide
/// a contract violation that TSan should catch instead. `stats_` is part of
/// that confinement (read stats() from the ingest thread, e.g. in the
/// server's after_round hook). HandleEvents decodes payloads on the
/// AnalysisContext pool, then offers the results serially in arrival order,
/// so the report stream is identical to handling one event at a time.
/// The multi-threaded IngestServer preserves this contract: connection
/// reads and frame *parsing* fan out across its worker pool, but every
/// HandleEvents call happens on the leader thread, one connection at a
/// time, in connection order (the "ordered offer" stage).
class FrameDispatcher {
 public:
  /// `ring` must outlive the dispatcher. `pool` may be nullptr (serial
  /// decode); it is only used for batch decoding, never for offering.
  FrameDispatcher(EpochRing* ring, ThreadPool* pool);

  /// Handles a batch: payload decodes fan out on the pool, ring offers stay
  /// serial in arrival order (bit-identical to the serial path).
  void HandleEvents(const std::vector<FrameEvent>& events);

  const DispatchStats& stats() const { return stats_; }

 private:
  struct Decoded;
  // Frame-event bookkeeping + payload decode (no ring access, thread-safe).
  Decoded DecodeOne(const FrameEvent& event) const;
  // Serial half: stats, metrics, and the ring offer (which takes the
  // decoded digest over).
  void Account(const FrameEvent& event, Decoded decoded);

  EpochRing* ring_;
  ThreadPool* pool_;
  DispatchStats stats_;
};

}  // namespace dcs

#endif  // DCS_NETIO_DISPATCH_H_
