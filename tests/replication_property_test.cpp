// Replication-shipment property test (the wire-side sibling of the
// storage journal's every-byte sweep):
//
//   1. Truncation at EVERY byte offset of an encoded snapshot and of
//      every encoded journal shipment: decoding a strict prefix always
//      throws NetError — the embedded checksum (or the strict header
//      grammar) catches the cut, so a follower can never install a torn
//      shipment.
//   2. Corruption of every single byte (XOR 0x5A), applied to a live
//      follower: the decode either throws, or the decoded shipment is
//      rejected by the apply path (duplicate/gap/fence), or it is
//      byte-identical to the original and applies cleanly.  In no case
//      does the follower's position or local journal advance on bad
//      bytes, and the replica store stays fsck-clean throughout.
//   3. After both sweeps the follower applies the untouched remainder of
//      the stream and converges to the leader's exact database.
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "property_seed.hpp"
#include "replica/applier.hpp"
#include "replica/replication.hpp"
#include "schema/schema_io.hpp"
#include "schema/standard_schemas.hpp"
#include "server/socket.hpp"
#include "storage/fsck.hpp"
#include "storage/store.hpp"
#include "support/error.hpp"

namespace herc::replica {
namespace {

namespace fs = std::filesystem;

std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

std::string wave_body(std::uint64_t& rng) {
  const std::uint64_t half = 100 + next_rand(rng) % 4000;
  return "stimuli sw\nwave in 0:0 " + std::to_string(half) + ":1 " +
         std::to_string(2 * half) + ":0\n";
}

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("herc_repl_prop_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string sub(const std::string& name) const {
    return (path / name).string();
  }
};

struct CaptureTap final : history::ChangeSubscriber {
  std::vector<JournalShipment> frames;
  void on_change(const history::Change& change) override {
    frames.push_back({change.epoch, change.seq, std::string(change.bytes)});
  }
  void on_rebase(std::uint64_t, bool) override {}
};

/// A leader's worth of shipped bytes: the bootstrap snapshot plus every
/// journal frame after it, pre-encoded to their wire payloads.
struct Shipment {
  SnapshotShipment snapshot;
  std::vector<JournalShipment> frames;
  std::string snapshot_payload;
  std::vector<std::string> frame_payloads;
  std::size_t leader_size = 0;
};

Shipment make_shipment(const std::string& leader_dir, std::uint64_t seed) {
  Shipment ship;
  std::uint64_t rng = seed | 1;
  core::DesignSession session(schema::make_full_schema());
  (void)session.open_storage(leader_dir);
  (void)session.import_data("Stimuli", "base_0", wave_body(rng));
  ship.snapshot = {session.storage()->epoch(),
                   session.storage()->journal_seq(),
                   schema::write_schema(session.schema()),
                   session.db().save()};
  CaptureTap tap;
  session.storage()->subscribe(tap);
  for (int i = 0; i < 5; ++i) {
    (void)session.import_data("Stimuli", "live_" + std::to_string(i),
                              wave_body(rng));
  }
  session.storage()->unsubscribe(tap);
  ship.leader_size = session.db().size();
  session.close_storage();

  ship.frames = tap.frames;
  ship.snapshot_payload = encode_snapshot(ship.snapshot);
  for (const JournalShipment& frame : ship.frames) {
    ship.frame_payloads.push_back(
        encode_journal(frame.epoch, frame.seq, frame.lines));
  }
  return ship;
}

TEST(ReplicationPropertyTest, TruncationAtEveryByteOffsetNeverDecodes) {
  const std::uint64_t seed = testprop::base_seed(0x5ead5ea1);
  SCOPED_TRACE(testprop::seed_note(seed));
  TempDir tmp;
  const Shipment ship = make_shipment(tmp.sub("leader"), seed);

  // Snapshot: any strict prefix is torn and must throw.
  for (std::size_t cut = 0; cut < ship.snapshot_payload.size(); ++cut) {
    EXPECT_THROW((void)decode_snapshot(
                     std::string_view(ship.snapshot_payload).substr(0, cut)),
                 support::NetError)
        << "snapshot prefix of " << cut << " bytes decoded";
  }
  // Every journal shipment, every cut.
  for (std::size_t fi = 0; fi < ship.frame_payloads.size(); ++fi) {
    const std::string& payload = ship.frame_payloads[fi];
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_THROW(
          (void)decode_journal(std::string_view(payload).substr(0, cut)),
          support::NetError)
          << "frame " << fi << " prefix of " << cut << " bytes decoded";
    }
  }
}

TEST(ReplicationPropertyTest, CorruptionOfEveryByteNeverAdvancesAFollower) {
  const std::uint64_t seed = testprop::base_seed(0xc0de5ea1);
  SCOPED_TRACE(testprop::seed_note(seed));
  TempDir tmp;
  const Shipment ship = make_shipment(tmp.sub("leader"), seed);
  const std::string follower_dir = tmp.sub("follower");

  // A live follower mid-stream: snapshot installed, first two frames in.
  ReplicaApplier applier(server::Endpoint::parse("127.0.0.1:1"),
                         follower_dir);
  applier.install_snapshot(decode_snapshot(ship.snapshot_payload));
  ASSERT_GE(ship.frames.size(), 3u);
  ASSERT_EQ(applier.apply_frame(decode_journal(ship.frame_payloads[0])),
            ApplyOutcome::kApplied);
  ASSERT_EQ(applier.apply_frame(decode_journal(ship.frame_payloads[1])),
            ApplyOutcome::kApplied);
  const StreamPosition held = applier.position();
  const std::uint64_t held_bytes = applier.journal_bytes();

  // The next expected shipment arrives with every byte corrupted in
  // turn.  Whatever the corruption does — unparseable header, checksum
  // mismatch, a mutated epoch/seq — the follower must hold its position
  // unless the shipment survived bit-identical.
  const std::string& target = ship.frame_payloads[2];
  std::size_t decoded_identical = 0;
  for (std::size_t at = 0; at < target.size(); ++at) {
    std::string corrupted = target;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    JournalShipment shipment;
    try {
      shipment = decode_journal(corrupted);
    } catch (const support::NetError&) {
      continue;  // torn shipment detected at the codec — the common case
    }
    if (shipment.epoch == ship.frames[2].epoch &&
        shipment.seq == ship.frames[2].seq &&
        shipment.lines == ship.frames[2].lines) {
      ++decoded_identical;  // corruption didn't change meaning: fine
      continue;
    }
    const ApplyOutcome outcome = applier.apply_frame(shipment);
    EXPECT_NE(outcome, ApplyOutcome::kApplied)
        << "byte " << at << ": corrupted shipment applied (epoch "
        << shipment.epoch << " seq " << shipment.seq << ")";
    EXPECT_EQ(applier.position(), held) << "byte " << at;
    EXPECT_EQ(applier.journal_bytes(), held_bytes) << "byte " << at;
  }
  EXPECT_EQ(decoded_identical, 0u)
      << "XOR 0x5A should never round-trip a byte to itself";

  // The sweep over, the untouched stream still lands: the follower
  // converges to the leader's exact database and audits clean.
  for (std::size_t fi = 2; fi < ship.frame_payloads.size(); ++fi) {
    EXPECT_EQ(applier.apply_frame(decode_journal(ship.frame_payloads[fi])),
              ApplyOutcome::kApplied)
        << "frame " << fi;
  }
  EXPECT_EQ(applier.db().size(), ship.leader_size);
  EXPECT_EQ(storage::fsck_store(follower_dir).exit_code(), 0);
}

TEST(ReplicationPropertyTest, SnapshotCorruptionNeverInstalls) {
  const std::uint64_t seed = testprop::base_seed(0x5afe5ea1);
  SCOPED_TRACE(testprop::seed_note(seed));
  TempDir tmp;
  const Shipment ship = make_shipment(tmp.sub("leader"), seed);

  // Sweep a stride of offsets (the payload is large; every byte of the
  // header plus a spread through schema and image bytes).
  const std::string& payload = ship.snapshot_payload;
  const std::size_t header_end = payload.find('\n') + 1;
  std::vector<std::size_t> offsets;
  for (std::size_t at = 0; at < header_end; ++at) offsets.push_back(at);
  for (std::size_t at = header_end; at < payload.size();
       at += 31) {  // prime stride: hits all residues over long payloads
    offsets.push_back(at);
  }
  for (const std::size_t at : offsets) {
    std::string corrupted = payload;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    try {
      const SnapshotShipment snapshot = decode_snapshot(corrupted);
      // Decoded: only acceptable if meaning is unchanged.
      EXPECT_EQ(snapshot.epoch, ship.snapshot.epoch) << "byte " << at;
      EXPECT_EQ(snapshot.seq, ship.snapshot.seq) << "byte " << at;
      EXPECT_EQ(snapshot.schema_text, ship.snapshot.schema_text)
          << "byte " << at;
      EXPECT_EQ(snapshot.image, ship.snapshot.image) << "byte " << at;
    } catch (const support::NetError&) {
      // Detected: the follower would disconnect and resync.
    }
  }
}

TEST(ReplicationPropertyTest, SubscribePayloadRoundTripsWithAndWithoutTail) {
  const std::uint64_t seed = testprop::base_seed(0x5ab5c81b);
  SCOPED_TRACE(testprop::seed_note(seed));
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 200; ++i) {
    const StreamPosition pos{rng(), rng()};
    // Legacy two-field form: the checksum is optional on the wire, so a
    // follower that cannot vouch for a tail still subscribes.
    {
      const SubscribeInfo info = decode_subscribe_info(encode_subscribe(pos));
      ASSERT_TRUE(info.position.has_value());
      EXPECT_EQ(*info.position, pos);
      EXPECT_FALSE(info.tail_checksum.has_value());
    }
    // Three-field form round-trips the checksum exactly.
    {
      const std::uint64_t tail = rng();
      const SubscribeInfo info =
          decode_subscribe_info(encode_subscribe(pos, tail));
      ASSERT_TRUE(info.position.has_value());
      EXPECT_EQ(*info.position, pos);
      ASSERT_TRUE(info.tail_checksum.has_value());
      EXPECT_EQ(*info.tail_checksum, tail);
    }
  }
  // Bootstrap stays empty regardless of a requested checksum: nothing to
  // vouch for when asking for a snapshot.
  EXPECT_TRUE(encode_subscribe({}, 42).empty());
  EXPECT_FALSE(decode_subscribe_info("").position.has_value());
  // Malformed shapes are protocol errors, not guesses.
  EXPECT_THROW((void)decode_subscribe_info("1"), support::NetError);
  EXPECT_THROW((void)decode_subscribe_info("1 2 3 4"), support::NetError);
  EXPECT_THROW((void)decode_subscribe_info("1 2 x"), support::NetError);
}

}  // namespace
}  // namespace herc::replica
