#include "netio/dispatch.h"

#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "sketch/digest_codec.h"

namespace dcs {

struct FrameDispatcher::Decoded {
  bool is_frame = false;     ///< Event was a valid frame (not a reject).
  bool decode_ok = false;    ///< Payload passed the strict codec decode.
  bool identity_ok = false;  ///< Envelope matches the payload's own header.
  Digest digest;
  std::size_t dense_bytes = 0;  ///< Dense-equivalent payload size.
};

FrameDispatcher::FrameDispatcher(EpochRing* ring, ThreadPool* pool)
    : ring_(ring), pool_(pool) {
  DCS_CHECK(ring_ != nullptr);
}

FrameDispatcher::Decoded FrameDispatcher::DecodeOne(
    const FrameEvent& event) const {
  Decoded d;
  if (event.kind != FrameEvent::Kind::kFrame) return d;
  d.is_frame = true;
  d.decode_ok =
      DecodeDigestPayload(event.payload, event.header.codec, &d.digest).ok();
  if (!d.decode_ok) return d;
  d.identity_ok = d.digest.router_id == event.header.router_id &&
                  d.digest.epoch_id == event.header.epoch_id;
  d.dense_bytes = RawPayloadSizeBytes(d.digest);
  return d;
}

void FrameDispatcher::Account(const FrameEvent& event, const Decoded& decoded) {
  if (!decoded.is_frame) {
    ++stats_.frame_rejects;
    stats_.resync_bytes += event.skipped_bytes;
    ObsCounter("netio.frames.rejected").Increment();
    ObsCounter("netio.frames.resync_bytes").Add(event.skipped_bytes);
    return;
  }
  ++stats_.frames;
  stats_.payload_bytes += event.payload.size();
  ObsCounter("netio.frames.accepted").Increment();
  ObsCounter("netio.payload.bytes").Add(event.payload.size());
  if (event.header.codec == DigestCodecId::kRaw) {
    ++stats_.raw_frames;
    ObsCounter("netio.payload.raw_frames").Increment();
  } else {
    ++stats_.sparse_frames;
    ObsCounter("netio.payload.sparse_frames").Increment();
  }
  if (!decoded.decode_ok) {
    ++stats_.decode_failures;
    ObsCounter("netio.decode.failures").Increment();
    return;
  }
  stats_.dense_bytes += decoded.dense_bytes;
  ObsCounter("netio.payload.dense_bytes").Add(decoded.dense_bytes);
  if (!decoded.identity_ok) {
    // The envelope lies about who/when relative to its own payload. Either
    // half could be the forged one, so the digest is dropped before the
    // ring sees it (and nobody is quarantined — see the class comment).
    ++stats_.identity_mismatches;
    ObsCounter("netio.decode.identity_mismatch").Increment();
    return;
  }
  ++stats_.digests_offered;
  ObsCounter("netio.digests.offered").Increment();
  if (ring_->Offer(decoded.digest).ok()) {
    ++stats_.digests_accepted;
    ObsCounter("netio.digests.accepted").Increment();
  } else {
    ++stats_.digests_rejected;
    ObsCounter("netio.digests.rejected").Increment();
  }
}

void FrameDispatcher::HandleEvent(const FrameEvent& event) {
  Account(event, DecodeOne(event));
}

void FrameDispatcher::HandleEvents(const std::vector<FrameEvent>& events) {
  if (events.empty()) return;
  std::vector<Decoded> decoded(events.size());
  RunShards(pool_, ShardsFor(pool_, events.size()),
            [&](const ShardRange& shard) {
              for (std::size_t i = shard.begin; i < shard.end; ++i) {
                decoded[i] = DecodeOne(events[i]);
              }
            });
  // Offers stay serial and in arrival order: the ring's window advance and
  // duplicate detection are order-sensitive, and this order is the one the
  // serial path would use.
  for (std::size_t i = 0; i < events.size(); ++i) {
    Account(events[i], decoded[i]);
  }
}

}  // namespace dcs
