#include "replica/replication.hpp"

#include <optional>
#include <vector>

#include "storage/journal.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::replica {

using support::NetError;

namespace {

/// A decimal u64 field of a wire payload.  The payloads come off the wire,
/// so anything else (including overflow) is a protocol error, not UB.
std::uint64_t u64_field(std::string_view token, std::string_view what) {
  const std::optional<std::uint64_t> value =
      support::parse_int<std::uint64_t>(token);
  if (!value.has_value()) {
    throw NetError("replication: malformed " + std::string(what) + " '" +
                   std::string(token) + "'");
  }
  return *value;
}

/// Splits the header line off a "<header>\n<body>" payload.
std::pair<std::string_view, std::string_view> split_header(
    std::string_view payload, std::string_view what) {
  const std::size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) {
    throw NetError("replication: " + std::string(what) +
                   " payload has no header line");
  }
  return {payload.substr(0, nl), payload.substr(nl + 1)};
}

}  // namespace

std::string encode_subscribe(const std::optional<StreamPosition>& position,
                             std::optional<std::uint64_t> tail_checksum) {
  if (!position.has_value()) return {};
  std::string out =
      std::to_string(position->epoch) + " " + std::to_string(position->seq);
  if (tail_checksum.has_value()) {
    out += " " + std::to_string(*tail_checksum);
  }
  return out;
}

SubscribeInfo decode_subscribe_info(std::string_view payload) {
  SubscribeInfo info;
  if (support::trim(payload).empty()) return info;
  const std::vector<std::string> parts =
      support::split_ws(support::trim(payload));
  if (parts.size() != 2 && parts.size() != 3) {
    throw NetError("replication: malformed subscribe position '" +
                   std::string(payload) + "'");
  }
  StreamPosition pos;
  pos.epoch = u64_field(parts[0], "subscribe epoch");
  pos.seq = u64_field(parts[1], "subscribe seq");
  info.position = pos;
  if (parts.size() == 3) {
    info.tail_checksum = u64_field(parts[2], "subscribe tail checksum");
  }
  return info;
}

std::string encode_journal(std::uint64_t epoch, std::uint64_t seq,
                           std::string_view lines) {
  std::string out = std::to_string(epoch) + " " + std::to_string(seq) + " " +
                    std::to_string(storage::frame_checksum(lines)) + "\n";
  out += lines;
  return out;
}

JournalShipment decode_journal(std::string_view payload) {
  const auto [header, body] = split_header(payload, "journal");
  const std::vector<std::string> parts =
      support::split_ws(support::trim(header));
  if (parts.size() != 3) {
    throw NetError("replication: malformed journal header '" +
                   std::string(header) + "'");
  }
  JournalShipment shipment;
  shipment.epoch = u64_field(parts[0], "journal epoch");
  shipment.seq = u64_field(parts[1], "journal seq");
  const std::uint64_t check = u64_field(parts[2], "journal checksum");
  if (check != storage::frame_checksum(body)) {
    throw NetError("replication: journal frame " + parts[0] + ":" +
                   parts[1] + " failed its checksum (corrupted in flight)");
  }
  shipment.lines.assign(body);
  return shipment;
}

std::string encode_snapshot(const SnapshotShipment& snapshot) {
  std::string content = snapshot.schema_text;
  content += snapshot.image;
  std::string out = std::to_string(snapshot.epoch) + " " +
                    std::to_string(snapshot.seq) + " " +
                    std::to_string(snapshot.schema_text.size()) + " " +
                    std::to_string(storage::frame_checksum(content)) + "\n";
  out += content;
  return out;
}

SnapshotShipment decode_snapshot(std::string_view payload) {
  const auto [header, body] = split_header(payload, "snapshot");
  const std::vector<std::string> parts =
      support::split_ws(support::trim(header));
  if (parts.size() != 4) {
    throw NetError("replication: malformed snapshot header '" +
                   std::string(header) + "'");
  }
  SnapshotShipment snapshot;
  snapshot.epoch = u64_field(parts[0], "snapshot epoch");
  snapshot.seq = u64_field(parts[1], "snapshot seq");
  const std::uint64_t schema_bytes = u64_field(parts[2], "snapshot schema size");
  const std::uint64_t check = u64_field(parts[3], "snapshot checksum");
  if (schema_bytes > body.size()) {
    throw NetError("replication: snapshot header announces " +
                   std::to_string(schema_bytes) +
                   " schema bytes but the body holds " +
                   std::to_string(body.size()));
  }
  if (check != storage::frame_checksum(body)) {
    throw NetError(
        "replication: snapshot failed its checksum (corrupted in flight)");
  }
  snapshot.schema_text.assign(body.substr(0, schema_bytes));
  snapshot.image.assign(body.substr(schema_bytes));
  return snapshot;
}

std::string encode_checkpoint(std::uint64_t new_epoch) {
  return std::to_string(new_epoch);
}

std::uint64_t decode_checkpoint(std::string_view payload) {
  return u64_field(support::trim(payload), "checkpoint epoch");
}

std::string encode_ack(const StreamPosition& position) {
  return std::to_string(position.epoch) + " " + std::to_string(position.seq);
}

StreamPosition decode_ack(std::string_view payload) {
  const std::vector<std::string> parts =
      support::split_ws(support::trim(payload));
  if (parts.size() != 2) {
    throw NetError("replication: malformed ack '" + std::string(payload) +
                   "'");
  }
  StreamPosition pos;
  pos.epoch = u64_field(parts[0], "ack epoch");
  pos.seq = u64_field(parts[1], "ack seq");
  return pos;
}

}  // namespace herc::replica
