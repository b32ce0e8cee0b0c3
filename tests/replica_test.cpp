// The replication subsystem end to end: leader-side shipping
// (JournalShipper), follower-side apply (ReplicaApplier), and the epoch
// fence between them.
//
//   - Wire bootstrap + live streaming: a follower snapshots off a live
//     leader, then receives every subsequent mutation frame; a read-only
//     server over the replica refuses write commands.
//   - Restart catch-up: a follower that stops and comes back recovers
//     its store locally and receives exactly the missed frames.
//   - The apply-path outcome matrix: duplicate, gap, and — the failover
//     guarantee — kFenced for any frame from a stale epoch, so a demoted
//     ex-leader can never mutate a promoted replica.
//   - Leader-side fencing: a subscriber claiming a future-epoch position
//     is a fenced stale leader and is refused outright.
//   - Promotion: `promote_store` runs leader recovery, bumps the epoch
//     and removes the marker; the failover drill then rebuilds the whole
//     chain (new leader, new follower) on top of the promoted store.
//   - The follower's own store: a torn local journal recovers at every
//     byte, a crash between install steps falls back to a snapshot fetch,
//     and a leader open refuses the directory untouched.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "replica/applier.hpp"
#include "replica/replication.hpp"
#include "replica/shipper.hpp"
#include "schema/schema_io.hpp"
#include "schema/standard_schemas.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "storage/fsck.hpp"
#include "storage/store.hpp"
#include "support/error.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

namespace herc::replica {
namespace {

namespace fs = std::filesystem;

constexpr const char* kWaveBody = "stimuli sw\nwave in 0:0 10:1 20:0\n";

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("herc_replica_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string sub(const std::string& name) const {
    return (path / name).string();
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

/// Captures the leader's raw journal frames — the ground truth the
/// apply-path tests feed to a follower by hand.
struct CaptureTap final : history::ChangeSubscriber {
  std::vector<JournalShipment> frames;
  void on_change(const history::Change& change) override {
    frames.push_back({change.epoch, change.seq, std::string(change.bytes)});
  }
  void on_rebase(std::uint64_t, bool) override {}
};

/// Records everything a store's change feed publishes, in order: each
/// frame with its records re-encoded, and each rebase.
struct FeedRecorder final : history::ChangeSubscriber {
  std::vector<JournalShipment> frames;
  std::vector<std::string> records;
  std::vector<std::pair<std::uint64_t, bool>> rebases;
  /// One letter per event: 'f' a frame, 'r' a rebase.
  std::string events;

  void on_change(const history::Change& change) override {
    frames.push_back({change.epoch, change.seq, std::string(change.bytes)});
    std::string& encoded = records.emplace_back();
    for (const history::Record& record : change.records) {
      history::encode(record, encoded);
    }
    events += 'f';
  }
  void on_rebase(std::uint64_t epoch, bool replaced) override {
    rebases.emplace_back(epoch, replaced);
    events += 'r';
  }
};

/// The feed's frame contract against `store`'s current journal: the
/// recorded frames from `from` on are its frames `first`, `first + 1`, ...
/// each once, with the bytes journaled and the records they decode to.
void expect_feed_is_the_journal(storage::DurableHistory& store,
                                const FeedRecorder& feed, std::size_t from,
                                std::size_t first) {
  const std::vector<std::string> journal = store.read_journal_records();
  ASSERT_EQ(feed.frames.size() - from, journal.size() - first);
  for (std::size_t i = from; i < feed.frames.size(); ++i) {
    const std::size_t seq = first + (i - from);
    SCOPED_TRACE("seq " + std::to_string(seq));
    EXPECT_EQ(feed.frames[i].epoch, store.epoch());
    EXPECT_EQ(feed.frames[i].seq, seq);
    EXPECT_EQ(feed.frames[i].lines, journal[seq]);
    std::string decoded;
    for (const std::string_view line : support::Lines(journal[seq])) {
      if (!line.empty()) history::encode(history::decode(line), decoded);
    }
    EXPECT_EQ(feed.records[i], decoded);
  }
}

/// A leader's snapshot and the `frames` mutation frames it journaled after
/// it: what the hand-fed tests install into a follower store directly.
struct Captured {
  SnapshotShipment snapshot;
  std::vector<JournalShipment> frames;
};

Captured capture_leader(const std::string& leader_dir, int frames) {
  CaptureTap tap;
  core::DesignSession session(schema::make_full_schema());
  (void)session.open_storage(leader_dir);
  (void)session.import_data("Stimuli", "base", kWaveBody);
  Captured out;
  out.snapshot = {session.storage()->epoch(), session.storage()->journal_seq(),
                  schema::write_schema(session.schema()),
                  session.db().save()};
  session.storage()->subscribe(tap);
  for (int i = 0; i < frames; ++i) {
    (void)session.import_data("Stimuli", "frame_" + std::to_string(i),
                              kWaveBody);
  }
  session.storage()->unsubscribe(tap);
  session.close_storage();
  out.frames = std::move(tap.frames);
  return out;
}

/// Installs `captured` into the follower store at `dir` by hand, then
/// closes the applier as a stopped follower would.
void install_by_hand(const std::string& dir, const Captured& captured) {
  ReplicaApplier applier(server::Endpoint::parse("127.0.0.1:1"), dir);
  applier.install_snapshot(captured.snapshot);
  for (const JournalShipment& frame : captured.frames) {
    ASSERT_EQ(applier.apply_frame(frame), ApplyOutcome::kApplied);
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool wait_until(const std::function<bool()>& done, int timeout_ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

TEST(ReplicaTest, EndToEndStreamingAndReadOnlyServe) {
  TempDir tmp;
  const std::string leader_dir = tmp.sub("leader");
  const std::string follower_dir = tmp.sub("follower");

  core::DesignSession session(schema::make_full_schema());
  (void)session.open_storage(leader_dir);
  {
    JournalShipper shipper(session);
    server::Server server(session);
    server.set_replication_hub(&shipper);
    const server::Endpoint ep =
        server.add_listener(server::Endpoint::parse("127.0.0.1:0"));
    server.start();

    server::Client writer = server::Client::connect(ep);
    ASSERT_TRUE(writer.call("import Stimuli before_boot", kWaveBody).ok());

    // Bootstrap off the live leader: the snapshot already carries the
    // pre-bootstrap import.
    ReplicaApplier applier(ep, follower_dir);
    ASSERT_TRUE(applier.bootstrap()) << applier.last_error();
    EXPECT_TRUE(applier.bootstrapped());
    // Leader-side size reads go through the server's session lock: the
    // imports ran on its worker threads.
    std::size_t leader_size = 0;
    server.with_exclusive_session([&] { leader_size = session.db().size(); });
    EXPECT_EQ(applier.db().size(), leader_size);

    // A read-only server over the replica, gated exactly as `herc serve
    // --replicate-from` wires it.
    core::DesignSession replica_session(applier.schema());
    replica_session.attach_replica(&applier.store());
    server::ServeOptions read_only;
    read_only.read_only = true;
    server::Server replica_server(replica_session, read_only);
    applier.set_gate([&replica_server](const std::function<void()>& fn) {
      replica_server.with_exclusive_session(fn);
    });
    const server::Endpoint replica_ep =
        replica_server.add_listener(server::Endpoint::parse("127.0.0.1:0"));
    replica_server.start();
    applier.start();

    ASSERT_TRUE(writer.call("import Stimuli live_one", kWaveBody).ok());
    ASSERT_TRUE(writer.call("import Stimuli live_two", kWaveBody).ok());
    ASSERT_TRUE(wait_until(
        [&applier] { return applier.frames_applied() >= 2; }))
        << "follower never saw the live frames; position "
        << applier.position().epoch << ":" << applier.position().seq;
    // Size comparisons under both servers' session locks: the leader's
    // workers wrote, the applier's stream thread applies through the
    // replica server's exclusive gate.
    EXPECT_TRUE(wait_until([&] {
      std::size_t replica_size = 0;
      server.with_exclusive_session([&] { leader_size = session.db().size(); });
      replica_server.with_exclusive_session(
          [&] { replica_size = applier.db().size(); });
      return replica_size == leader_size;
    }));

    // Reads flow, writes are refused with a pointer at the leader.
    server::Client reader = server::Client::connect(replica_ep);
    const server::CallResult browse = reader.call("browse Stimuli");
    ASSERT_TRUE(browse.ok()) << browse.error;
    EXPECT_NE(browse.output.find("live_two"), std::string::npos);
    const server::CallResult refused =
        reader.call("import Stimuli on_replica", kWaveBody);
    EXPECT_FALSE(refused.ok());
    EXPECT_NE(refused.error.find("read-only replica"), std::string::npos);
    reader.close();
    writer.close();

    applier.stop();
    replica_server.stop();
    server.stop();
  }
  session.close_storage();

  EXPECT_EQ(storage::fsck_store(leader_dir).exit_code(), 0);
  EXPECT_EQ(storage::fsck_store(follower_dir).exit_code(), 0);
  EXPECT_TRUE(storage::is_replica_store(follower_dir));
  EXPECT_FALSE(storage::is_replica_store(leader_dir));
}

TEST(ReplicaTest, RestartCatchUpReceivesExactlyTheMissedFrames) {
  TempDir tmp;
  const std::string leader_dir = tmp.sub("leader");
  const std::string follower_dir = tmp.sub("follower");

  core::DesignSession session(schema::make_full_schema());
  (void)session.open_storage(leader_dir);
  {
    JournalShipper shipper(session);
    server::Server server(session);
    server.set_replication_hub(&shipper);
    const server::Endpoint ep =
        server.add_listener(server::Endpoint::parse("127.0.0.1:0"));
    server.start();
    server::Client writer = server::Client::connect(ep);
    ASSERT_TRUE(writer.call("import Stimuli first", kWaveBody).ok());

    StreamPosition parked;
    {
      ReplicaApplier applier(ep, follower_dir);
      ASSERT_TRUE(applier.bootstrap()) << applier.last_error();
      parked = applier.position();
    }

    // Two frames land while no follower is attached.
    ASSERT_TRUE(writer.call("import Stimuli while_away_a", kWaveBody).ok());
    ASSERT_TRUE(writer.call("import Stimuli while_away_b", kWaveBody).ok());
    writer.close();

    // The restarted follower recovers locally (no leader involved), then
    // its subscribe position triggers the journal-file catch-up path.
    ReplicaApplier applier(ep, follower_dir);
    ASSERT_TRUE(applier.bootstrap()) << applier.last_error();
    EXPECT_EQ(applier.position(), parked);
    applier.start();
    ASSERT_TRUE(wait_until([&applier, &parked] {
      return applier.position().seq >= parked.seq + 2;
    })) << applier.last_error();
    EXPECT_EQ(applier.frames_applied(), 2u);
    std::size_t leader_size = 0;
    server.with_exclusive_session([&] { leader_size = session.db().size(); });
    EXPECT_EQ(applier.db().size(), leader_size);
    applier.stop();
    server.stop();
  }
  session.close_storage();
  EXPECT_EQ(storage::fsck_store(follower_dir).exit_code(), 0);
}

TEST(ReplicaTest, ApplyOutcomesDuplicateGapAndFence) {
  TempDir tmp;
  const std::string leader_dir = tmp.sub("leader");
  const std::string follower_dir = tmp.sub("follower");

  // Capture real journal frames from a tapped leader store.
  CaptureTap tap;
  core::DesignSession session(schema::make_full_schema());
  (void)session.open_storage(leader_dir);
  (void)session.import_data("Stimuli", "cap_0", kWaveBody);
  const SnapshotShipment snap{session.storage()->epoch(),
                              session.storage()->journal_seq(),
                              schema::write_schema(session.schema()),
                              session.db().save()};
  // Tap attaches after the snapshot: every captured frame post-dates it.
  session.storage()->subscribe(tap);
  (void)session.import_data("Stimuli", "cap_1", kWaveBody);
  (void)session.import_data("Stimuli", "cap_2", kWaveBody);
  (void)session.import_data("Stimuli", "cap_3", kWaveBody);
  session.storage()->unsubscribe(tap);
  session.close_storage();
  ASSERT_GE(tap.frames.size(), 3u);
  const std::uint64_t base = snap.seq;

  // The applier never contacts this address: every call below is direct.
  ReplicaApplier applier(server::Endpoint::parse("127.0.0.1:1"),
                         follower_dir);
  applier.install_snapshot(snap);
  EXPECT_EQ(applier.position(), (StreamPosition{snap.epoch, base}));

  EXPECT_EQ(applier.apply_frame(tap.frames[0]), ApplyOutcome::kApplied);
  EXPECT_EQ(applier.position().seq, base + 1);
  const std::uint64_t journal_bytes = applier.journal_bytes();

  // Replay of an applied frame: harmless, nothing written.
  EXPECT_EQ(applier.apply_frame(tap.frames[0]), ApplyOutcome::kDuplicate);
  EXPECT_EQ(applier.journal_bytes(), journal_bytes);

  // A frame from beyond our position: resync, nothing written.
  EXPECT_EQ(applier.apply_frame(tap.frames[2]), ApplyOutcome::kGap);
  EXPECT_EQ(applier.position().seq, base + 1);
  EXPECT_EQ(applier.journal_bytes(), journal_bytes);

  // A frame from a future epoch: also a gap (we missed a checkpoint).
  JournalShipment future = tap.frames[1];
  future.epoch = snap.epoch + 1;
  future.seq = 0;
  EXPECT_EQ(applier.apply_frame(future), ApplyOutcome::kGap);

  // Cross the fence: after the checkpoint to epoch+1, any frame from the
  // old epoch is a demoted ex-leader talking — rejected, counted.
  applier.apply_checkpoint(snap.epoch + 1);
  EXPECT_EQ(applier.position(), (StreamPosition{snap.epoch + 1, 0}));
  EXPECT_EQ(applier.apply_frame(tap.frames[1]), ApplyOutcome::kFenced);
  EXPECT_EQ(applier.fenced_frames(), 1u);
  EXPECT_EQ(applier.position(), (StreamPosition{snap.epoch + 1, 0}));

  EXPECT_EQ(storage::fsck_store(follower_dir).exit_code(), 0);
}

TEST(ReplicaTest, ChangeFeedCarriesLeaderAndFollowerFramesInOrder) {
  TempDir tmp;
  const std::string leader_dir = tmp.sub("leader");
  const std::string follower_dir = tmp.sub("follower");

  // The leader's store publishes every local frame once, in seq order,
  // then a checkpoint as a rebase, after which frames start at seq 0.
  FeedRecorder leader_feed;
  core::DesignSession session(schema::make_full_schema());
  (void)session.open_storage(leader_dir);
  (void)session.import_data("Stimuli", "feed_base", kWaveBody);
  const SnapshotShipment snap{session.storage()->epoch(),
                              session.storage()->journal_seq(),
                              schema::write_schema(session.schema()),
                              session.db().save()};
  session.storage()->subscribe(leader_feed);
  for (int i = 0; i < 3; ++i) {
    (void)session.import_data("Stimuli", "feed_" + std::to_string(i),
                              kWaveBody);
  }
  expect_feed_is_the_journal(*session.storage(), leader_feed, 0, snap.seq);
  session.checkpoint_storage();
  (void)session.import_data("Stimuli", "feed_after", kWaveBody);
  EXPECT_EQ(leader_feed.events, "fffrf");
  ASSERT_EQ(leader_feed.rebases.size(), 1u);
  EXPECT_EQ(leader_feed.rebases[0],
            (std::pair<std::uint64_t, bool>{snap.epoch + 1, false}));
  expect_feed_is_the_journal(*session.storage(), leader_feed, 3, 0);
  session.storage()->unsubscribe(leader_feed);
  (void)session.import_data("Stimuli", "feed_unseen", kWaveBody);
  session.close_storage();
  EXPECT_EQ(leader_feed.events, "fffrf");

  // The follower's store publishes each applied frame, under its own
  // journal's seq; a duplicate applies and publishes nothing.
  ReplicaApplier applier(server::Endpoint::parse("127.0.0.1:1"),
                         follower_dir);
  applier.install_snapshot(snap);
  FeedRecorder follower_feed;
  applier.store().subscribe(follower_feed);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(applier.apply_frame(leader_feed.frames[i]),
              ApplyOutcome::kApplied);
  }
  EXPECT_EQ(applier.apply_frame(leader_feed.frames[0]),
            ApplyOutcome::kDuplicate);
  expect_feed_is_the_journal(applier.store(), follower_feed, 0, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(follower_feed.records[i], leader_feed.records[i]);
  }

  // The mirrored checkpoint keeps the contents; the next frame is seq 0.
  applier.apply_checkpoint(snap.epoch + 1);
  ASSERT_EQ(applier.apply_frame(leader_feed.frames[3]),
            ApplyOutcome::kApplied);
  expect_feed_is_the_journal(applier.store(), follower_feed, 3, 0);

  // A resync's install replaces them.
  applier.install_snapshot(snap);
  EXPECT_EQ(follower_feed.events, "fffrfr");
  ASSERT_EQ(follower_feed.rebases.size(), 2u);
  EXPECT_EQ(follower_feed.rebases[0],
            (std::pair<std::uint64_t, bool>{snap.epoch + 1, false}));
  EXPECT_EQ(follower_feed.rebases[1],
            (std::pair<std::uint64_t, bool>{snap.epoch, true}));

  applier.store().unsubscribe(follower_feed);
  ASSERT_EQ(applier.apply_frame(leader_feed.frames[0]),
            ApplyOutcome::kApplied);
  EXPECT_EQ(follower_feed.events, "fffrfr");
  EXPECT_EQ(storage::fsck_store(follower_dir).exit_code(), 0);
}

TEST(ReplicaTest, LeaderRefusesSubscriberFromAFutureEpoch) {
  TempDir tmp;
  core::DesignSession session(schema::make_full_schema());
  (void)session.open_storage(tmp.sub("leader"));
  {
    JournalShipper shipper(session);
    (void)session.import_data("Stimuli", "s0", kWaveBody);

    // A follower claiming a position *ahead* of this leader's epoch has
    // seen a promotion this leader missed: this leader is the stale one,
    // and serving the subscriber would split-brain the store.
    const std::uint64_t ahead = session.storage()->epoch() + 1;
    std::string error;
    EXPECT_FALSE(shipper.subscribe(
        1, "test-peer", encode_subscribe(StreamPosition{ahead, 0}), &error));
    EXPECT_NE(error.find("fenced"), std::string::npos) << error;
    EXPECT_EQ(shipper.fenced_subscribes(), 1u);
    EXPECT_EQ(shipper.follower_count(), 0u);

    // A same-epoch subscriber is fine.
    error.clear();
    EXPECT_TRUE(shipper.subscribe(
        2, "test-peer",
        encode_subscribe(StreamPosition{session.storage()->epoch(), 0}),
        &error))
        << error;
    EXPECT_EQ(shipper.follower_count(), 1u);
    shipper.close_all();
  }
  session.close_storage();
}

TEST(ReplicaTest, SlowFollowerOverflowsWithoutBlockingTheLeader) {
  TempDir tmp;
  core::DesignSession session(schema::make_full_schema());
  (void)session.open_storage(tmp.sub("leader"));
  {
    ShipperOptions options;
    options.max_queued_frames = 2;
    JournalShipper shipper(session, options);
    std::string error;
    ASSERT_TRUE(shipper.subscribe(7, "slowpoke", encode_subscribe({}),
                                  &error))
        << error;

    // Nobody pumps follower 7; the mutation path must sail through and
    // drop the follower at the bound.
    (void)session.import_data("Stimuli", "q0", kWaveBody);
    (void)session.import_data("Stimuli", "q1", kWaveBody);
    (void)session.import_data("Stimuli", "q2", kWaveBody);
    (void)session.import_data("Stimuli", "q3", kWaveBody);
    EXPECT_EQ(shipper.overflows(), 1u);
    // The frames queued before the overflow still drain — the bootstrap
    // snapshot first, then journal frames — and then the pump learns the
    // follower was dropped (it reconnects and resyncs).
    server::Frame frame;
    bool first = true;
    while (shipper.next_frame(7, frame)) {
      EXPECT_EQ(frame.type, first ? server::FrameType::kSnapshot
                                  : server::FrameType::kJournal);
      first = false;
    }
    EXPECT_FALSE(first) << "the bootstrap snapshot never drained";
    EXPECT_FALSE(shipper.next_frame(7, frame));
    shipper.unsubscribe(7);
    EXPECT_EQ(shipper.follower_count(), 0u);
  }
  session.close_storage();
}

TEST(ReplicaTest, PromoteBumpsTheEpochAndRemovesTheMarker) {
  TempDir tmp;
  const std::string leader_dir = tmp.sub("leader");
  const std::string replica_dir = tmp.sub("replica");

  CaptureTap tap;
  core::DesignSession session(schema::make_full_schema());
  (void)session.open_storage(leader_dir);
  (void)session.import_data("Stimuli", "p0", kWaveBody);
  const SnapshotShipment snap{session.storage()->epoch(),
                              session.storage()->journal_seq(),
                              schema::write_schema(session.schema()),
                              session.db().save()};
  session.storage()->subscribe(tap);
  (void)session.import_data("Stimuli", "p1", kWaveBody);
  session.storage()->unsubscribe(tap);
  const std::size_t leader_size = session.db().size();
  session.close_storage();

  {
    ReplicaApplier applier(server::Endpoint::parse("127.0.0.1:1"),
                           replica_dir);
    applier.install_snapshot(snap);
    for (const JournalShipment& frame : tap.frames) {
      ASSERT_EQ(applier.apply_frame(frame), ApplyOutcome::kApplied);
    }
  }
  ASSERT_TRUE(storage::is_replica_store(replica_dir));

  const PromoteReport report = promote_store(replica_dir);
  EXPECT_EQ(report.epoch, snap.epoch + 1);
  EXPECT_FALSE(storage::is_replica_store(replica_dir));
  EXPECT_EQ(storage::fsck_store(replica_dir).exit_code(), 0);

  // The promoted store is a leader store: it opens and serves the full
  // replicated history.
  core::DesignSession promoted(schema::make_full_schema());
  (void)promoted.open_storage(replica_dir);
  EXPECT_EQ(promoted.db().size(), leader_size);
  EXPECT_EQ(promoted.storage()->epoch(), report.epoch);
  promoted.close_storage();

  // A second promote must refuse: the marker is gone.
  EXPECT_THROW((void)promote_store(replica_dir), support::HistoryError);
}

TEST(ReplicaTest, FailoverDrillPromotedFollowerLeadsAndFencesTheOldEpoch) {
  TempDir tmp;
  const std::string a_dir = tmp.sub("a");  // original leader
  const std::string b_dir = tmp.sub("b");  // follower -> promoted leader
  const std::string c_dir = tmp.sub("c");  // follower of the new leader

  CaptureTap old_epoch_tap;
  std::size_t size_before_failover = 0;

  // Epoch 0: A leads, B follows, frames flow.
  {
    core::DesignSession session_a(schema::make_full_schema());
    (void)session_a.open_storage(a_dir);
    {
      JournalShipper shipper_a(session_a);
      server::Server server_a(session_a);
      server_a.set_replication_hub(&shipper_a);
      const server::Endpoint ep_a =
          server_a.add_listener(server::Endpoint::parse("127.0.0.1:0"));
      server_a.start();

      ReplicaApplier applier_b(ep_a, b_dir);
      ASSERT_TRUE(applier_b.bootstrap()) << applier_b.last_error();
      applier_b.start();

      server::Client writer = server::Client::connect(ep_a);
      ASSERT_TRUE(writer.call("import Stimuli wave_one", kWaveBody).ok());
      ASSERT_TRUE(writer.call("import Stimuli wave_two", kWaveBody).ok());
      writer.close();
      ASSERT_TRUE(wait_until(
          [&applier_b] { return applier_b.frames_applied() >= 2; }));
      size_before_failover = session_a.db().size();
      EXPECT_EQ(applier_b.db().size(), size_before_failover);

      // Capture one old-epoch frame for the fence assertion below; the
      // shipper leaves the feed first, so B never sees it.
      session_a.storage()->unsubscribe(shipper_a);
      session_a.storage()->subscribe(old_epoch_tap);
      (void)session_a.import_data("Stimuli", "straggler", kWaveBody);
      session_a.storage()->unsubscribe(old_epoch_tap);

      // A "dies" (hard stop; its store keeps the straggler frame B never
      // saw — exactly the divergence failover must fence off).
      applier_b.stop();
      server_a.stop();
    }
    session_a.close_storage();
  }
  ASSERT_EQ(old_epoch_tap.frames.size(), 1u);

  // Promote B: epoch 0 -> 1.
  const PromoteReport promotion = promote_store(b_dir);
  EXPECT_EQ(promotion.epoch, 1u);

  // Epoch 1: B leads, C follows and sees everything B replicated.
  core::DesignSession session_b(schema::make_full_schema());
  (void)session_b.open_storage(b_dir);
  ASSERT_EQ(session_b.storage()->epoch(), 1u);
  {
    JournalShipper shipper_b(session_b);
    server::Server server_b(session_b);
    server_b.set_replication_hub(&shipper_b);
    const server::Endpoint ep_b =
        server_b.add_listener(server::Endpoint::parse("127.0.0.1:0"));
    server_b.start();

    server::Client writer = server::Client::connect(ep_b);
    ASSERT_TRUE(writer.call("import Stimuli after_failover", kWaveBody).ok());
    writer.close();

    ReplicaApplier applier_c(ep_b, c_dir);
    ASSERT_TRUE(applier_c.bootstrap()) << applier_c.last_error();
    EXPECT_EQ(applier_c.position().epoch, 1u);
    EXPECT_EQ(applier_c.db().size(), size_before_failover + 1);

    // The fence, both directions: the ex-leader's epoch-0 frame is
    // rejected by the promoted world...
    EXPECT_EQ(applier_c.apply_frame(old_epoch_tap.frames[0]),
              ApplyOutcome::kFenced);
    EXPECT_EQ(applier_c.fenced_frames(), 1u);
    // ...and an epoch-1 subscriber would be refused by the ex-leader
    // (its epoch is 0 — the future-epoch refusal of
    // LeaderRefusesSubscriberFromAFutureEpoch, exercised here against
    // the promoted position).
    std::string error;
    core::DesignSession stale(schema::make_full_schema());
    (void)stale.open_storage(a_dir);
    {
      JournalShipper stale_shipper(stale);
      EXPECT_FALSE(stale_shipper.subscribe(
          9, "c", encode_subscribe(applier_c.position()), &error));
      EXPECT_NE(error.find("fenced"), std::string::npos) << error;
    }
    stale.close_storage();

    server_b.stop();
  }
  session_b.close_storage();
  EXPECT_EQ(storage::fsck_store(b_dir).exit_code(), 0);
  EXPECT_EQ(storage::fsck_store(c_dir).exit_code(), 0);
}

// The torn-tail divergence: the leader crashes mid-journal-write AFTER the
// tap shipped the final frame complete, so the follower holds a frame the
// healed leader's journal never kept.  Once the restarted leader writes a
// replacement frame, both sides sit at the same (epoch, seq) on different
// histories — seq equality alone would register the follower as caught up
// and it would silently diverge forever.  The follower's subscribe tail
// checksum is what disproves prefix equality; the leader must answer with
// a snapshot resync.
TEST(ReplicaTest, TornTailDivergenceForcesASnapshotResync) {
  TempDir tmp;
  const std::string leader_dir = tmp.sub("leader");
  const std::string follower_dir = tmp.sub("follower");

  // Phase 1: a follower streams the frame that is about to be torn.
  {
    core::DesignSession session(schema::make_full_schema());
    (void)session.open_storage(leader_dir);
    JournalShipper shipper(session);
    server::Server server(session);
    server.set_replication_hub(&shipper);
    const server::Endpoint ep =
        server.add_listener(server::Endpoint::parse("127.0.0.1:0"));
    server.start();
    server::Client writer = server::Client::connect(ep);
    ASSERT_TRUE(writer.call("import Stimuli first", kWaveBody).ok());

    ReplicaApplier applier(ep, follower_dir);
    ASSERT_TRUE(applier.bootstrap()) << applier.last_error();
    applier.start();
    ASSERT_TRUE(writer.call("import Stimuli torn_tail", kWaveBody).ok());
    ASSERT_TRUE(wait_until(
        [&applier] { return applier.frames_applied() >= 1; }))
        << applier.last_error();
    applier.stop();
    writer.close();
    server.stop();
    session.close_storage();
  }

  // Phase 2: the crash.  Chop one byte off the leader's journal so its
  // final frame — the one the follower already applied — is torn; the
  // restart heals by truncating it away.
  const std::string journal_path =
      (fs::path(leader_dir) / "journal.wal").string();
  {
    std::ifstream in(journal_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    const storage::ScanResult before = storage::scan_journal(bytes);
    ASSERT_EQ(before.records.size(), 2u);
    fs::resize_file(journal_path, before.valid_bytes - 1);
  }

  // Phase 3: the healed leader replaces the lost frame with different
  // content, landing back on the follower's (epoch, seq).
  core::DesignSession session(schema::make_full_schema());
  const storage::RecoveryReport recovery = session.open_storage(leader_dir);
  EXPECT_TRUE(recovery.torn_tail);
  ASSERT_EQ(session.storage()->journal_seq(), 1u);
  {
    JournalShipper shipper(session);
    server::Server server(session);
    server.set_replication_hub(&shipper);
    const server::Endpoint ep =
        server.add_listener(server::Endpoint::parse("127.0.0.1:0"));
    server.start();
    server::Client writer = server::Client::connect(ep);
    ASSERT_TRUE(writer.call("import Stimuli replacement", kWaveBody).ok());
    ASSERT_EQ(session.storage()->journal_seq(), 2u);

    // Phase 4: the follower returns at the same position on the divergent
    // history.  The tail checksum must out it; the snapshot resync must
    // replace its torn frame with the leader's replacement, after which it
    // streams live again.
    ReplicaApplier applier(ep, follower_dir);
    ASSERT_TRUE(applier.bootstrap()) << applier.last_error();
    EXPECT_EQ(applier.position().seq, 2u);
    applier.start();
    ASSERT_TRUE(wait_until(
        [&shipper] { return shipper.divergent_subscribes() >= 1; }))
        << "the leader accepted the diverged follower as caught up";
    ASSERT_TRUE(writer.call("import Stimuli after_heal", kWaveBody).ok());
    ASSERT_TRUE(wait_until(
        [&applier] { return applier.position().seq >= 3; }))
        << applier.last_error();
    applier.stop();

    const std::string replica_image = applier.db().save();
    EXPECT_NE(replica_image.find("replacement"), std::string::npos);
    EXPECT_NE(replica_image.find("after_heal"), std::string::npos);
    EXPECT_EQ(replica_image.find("torn_tail"), std::string::npos);

    writer.close();
    server.stop();
  }
  session.close_storage();
  EXPECT_EQ(storage::fsck_store(leader_dir).exit_code(), 0);
  EXPECT_EQ(storage::fsck_store(follower_dir).exit_code(), 0);
}

// A follower killed mid-append leaves a torn last frame in its own
// journal.  Wherever the cut lands inside that frame, local recovery keeps
// the three whole frames before it, with no leader involved, and the store
// audits clean.
TEST(ReplicaTest, TornFollowerJournalRecoversLocallyAtEveryByte) {
  TempDir tmp;
  const std::string follower_dir = tmp.sub("follower");
  const Captured captured = capture_leader(tmp.sub("leader"), 4);
  ASSERT_EQ(captured.frames.size(), 4u);
  install_by_hand(follower_dir, captured);
  const std::uint64_t base = captured.snapshot.seq;

  const std::size_t journal_size =
      fs::file_size(fs::path(follower_dir) / "journal.wal");
  const std::size_t last_frame =
      storage::kFrameHeaderBytes + captured.frames.back().lines.size();
  ASSERT_GT(journal_size, last_frame);
  const std::string trial = tmp.sub("trial");
  for (std::size_t cut = journal_size - last_frame; cut < journal_size;
       ++cut) {
    fs::remove_all(trial);
    fs::copy(follower_dir, trial);
    fs::resize_file(fs::path(trial) / "journal.wal", cut);
    {
      ReplicaApplier applier(server::Endpoint::parse("127.0.0.1:1"), trial);
      ASSERT_TRUE(applier.bootstrap(0))
          << "cut at byte " << cut << ": " << applier.last_error();
      EXPECT_EQ(applier.position(),
                (StreamPosition{captured.snapshot.epoch, base + 3}))
          << "cut at byte " << cut;
    }
    EXPECT_EQ(storage::fsck_store(trial).exit_code(), 0)
        << "cut at byte " << cut;
  }
}

// `apply_checkpoint` writes the new snapshot before it rewrites the
// marker.  A crash between the two leaves them at different epochs; local
// recovery must not guess which is right, so it refuses and the follower
// falls back to fetching a snapshot from its leader.
TEST(ReplicaTest, CrashBeforeTheMarkerFallsBackToASnapshotFetch) {
  TempDir tmp;
  const std::string follower_dir = tmp.sub("follower");
  const Captured captured = capture_leader(tmp.sub("leader"), 2);
  install_by_hand(follower_dir, captured);

  const std::string snapshot_path =
      (fs::path(follower_dir) / "snapshot.herc").string();
  const std::string snapshot = slurp(snapshot_path);
  support::RecordReader header(
      std::string_view(snapshot).substr(0, snapshot.find('\n')));
  ASSERT_EQ(header.kind(), "snap");
  (void)header.next_int64();
  const std::uint32_t count = header.next_uint32();
  std::ofstream(snapshot_path, std::ios::binary | std::ios::trunc)
      << support::RecordWriter("snap")
             .field(static_cast<std::int64_t>(captured.snapshot.epoch + 1))
             .field(count)
             .str()
      << snapshot.substr(snapshot.find('\n'));

  ReplicaApplier applier(server::Endpoint::parse("127.0.0.1:1"),
                         follower_dir);
  EXPECT_FALSE(applier.bootstrap(0));
  EXPECT_NE(applier.last_error().find(
                "snapshot epoch differs from the replica marker"),
            std::string::npos)
      << applier.last_error();
}

// Only `herc promote` turns a follower's store into a leader's.  Opening
// one as a leader would run the crash sweep over the leader's live runs
// and accept local writes into the replicated journal, so the open is
// refused before it touches a file.
TEST(ReplicaTest, LeaderOpenRefusesAReplicaStore) {
  TempDir tmp;
  const std::string follower_dir = tmp.sub("follower");
  install_by_hand(follower_dir, capture_leader(tmp.sub("leader"), 2));
  const std::string journal_path =
      (fs::path(follower_dir) / "journal.wal").string();
  const std::string journal = slurp(journal_path);

  {
    core::DesignSession session(schema::make_full_schema());
    try {
      (void)session.open_storage(follower_dir);
      (void)session.import_data("Stimuli", "local_write", kWaveBody);
      ADD_FAILURE() << "a leader opened a replica store";
    } catch (const support::HistoryError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("herc promote"), std::string::npos) << message;
      EXPECT_NE(message.find("--replicate-from"), std::string::npos)
          << message;
    }
  }
  EXPECT_EQ(slurp(journal_path), journal);
  EXPECT_TRUE(storage::is_replica_store(follower_dir));
}

}  // namespace
}  // namespace herc::replica
