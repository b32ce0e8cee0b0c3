// Payload codecs for the replication frame types (HERCNET1 kSubscribe /
// kSnapshot / kJournal / kCheckpoint / kAck — see server/protocol.hpp).
//
// The stream position `(epoch, seq)` is the replication cursor: `epoch` is
// the storage epoch (bumped by every snapshot checkpoint — the fencing
// token), `seq` the 0-based frame index within that epoch's journal.  A
// follower at `(e, s)` has applied exactly the snapshot of epoch `e` plus
// journal frames `0..s-1`.
//
// Wire frames carry no checksum of their own, so each shipped journal
// payload (and snapshot body) embeds a `storage::frame_checksum` — a
// follower can tell a corrupted shipment from a desynchronized stream and
// never applies a torn frame.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace herc::replica {

/// A follower's cursor in the leader's journal stream.
struct StreamPosition {
  std::uint64_t epoch = 0;
  /// Next frame expected (frames `0..seq-1` of `epoch` are applied).
  std::uint64_t seq = 0;

  friend bool operator==(const StreamPosition& a, const StreamPosition& b) {
    return a.epoch == b.epoch && a.seq == b.seq;
  }
};

/// kSubscribe payload: "" to bootstrap from nothing, else
/// "<epoch> <seq>[ <tail-checksum>]".  The optional third field is
/// `storage::frame_checksum` of the follower's LAST applied frame
/// (`seq-1`): seq equality alone cannot prove the follower's history is a
/// prefix of the leader's — after a crash tore the leader's journal tail,
/// a follower that streamed the torn frame complete holds a different
/// frame under the same sequence number.  The leader compares the tail
/// checksum against its own record and answers a mismatch with a snapshot
/// resync instead of silently registering a diverged follower as caught
/// up.
[[nodiscard]] std::string encode_subscribe(
    const std::optional<StreamPosition>& position,
    std::optional<std::uint64_t> tail_checksum = std::nullopt);

/// A fully parsed kSubscribe payload (position + optional tail checksum).
struct SubscribeInfo {
  std::optional<StreamPosition> position;
  std::optional<std::uint64_t> tail_checksum;
};
/// Throws `support::NetError` on a malformed payload.
[[nodiscard]] SubscribeInfo decode_subscribe_info(std::string_view payload);

/// One shipped journal frame (kJournal): the leader's journal payload for
/// sequence `seq` of `epoch`, verbatim.
struct JournalShipment {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  /// The save()-format mutation lines (the journal frame payload).
  std::string lines;
};

/// kJournal payload: "<epoch> <seq> <checksum>\n" + lines, where checksum
/// is `storage::frame_checksum(lines)`.
[[nodiscard]] std::string encode_journal(std::uint64_t epoch,
                                         std::uint64_t seq,
                                         std::string_view lines);
/// Throws `support::NetError` on a malformed header or checksum mismatch.
[[nodiscard]] JournalShipment decode_journal(std::string_view payload);

/// A full store image (kSnapshot): bootstrap or resync.  Installing it
/// puts the follower at position `(epoch, seq)`.
struct SnapshotShipment {
  std::uint64_t epoch = 0;
  /// Journal frames of `epoch` already folded into `image`.
  std::uint64_t seq = 0;
  /// `schema::write_schema` of the leader's schema.
  std::string schema_text;
  /// `HistoryDb::save()` of the leader's database.
  std::string image;
};

/// kSnapshot payload: "<epoch> <seq> <schema-bytes> <checksum>\n" +
/// schema text + image, checksum over schema text + image.
[[nodiscard]] std::string encode_snapshot(const SnapshotShipment& snapshot);
/// Throws `support::NetError` on a malformed header or checksum mismatch.
[[nodiscard]] SnapshotShipment decode_snapshot(std::string_view payload);

/// kCheckpoint payload: "<new-epoch>".
[[nodiscard]] std::string encode_checkpoint(std::uint64_t new_epoch);
/// Throws `support::NetError` on a malformed payload.
[[nodiscard]] std::uint64_t decode_checkpoint(std::string_view payload);

/// kAck payload: "<epoch> <seq>" — the follower's applied position.
[[nodiscard]] std::string encode_ack(const StreamPosition& position);
/// Throws `support::NetError` on a malformed payload.
[[nodiscard]] StreamPosition decode_ack(std::string_view payload);

}  // namespace herc::replica
