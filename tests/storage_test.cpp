// Durable design-history storage: journal framing, snapshot compaction,
// crash recovery, and the session/CLI wiring.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/interpreter.hpp"
#include "core/session.hpp"
#include "history/query_planner.hpp"
#include "index/indexes.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/fsck.hpp"
#include "storage/journal.hpp"
#include "storage/store.hpp"
#include "support/error.hpp"
#include "support/text.hpp"
#include "file_size_cap.hpp"

namespace herc::storage {
namespace {

namespace fs = std::filesystem;
using data::InstanceId;
using history::HistoryDb;
using history::InstanceStatus;
using history::RecordRequest;
using support::HistoryError;
using testfile::failure_of;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spill(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Records everything a store's change feed publishes, in order.
struct Recorder final : history::ChangeSubscriber {
  struct Frame {
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    std::vector<history::Record> records;
    std::string bytes;
  };
  struct Rebase {
    std::uint64_t epoch = 0;
    bool replaced = false;
  };
  std::vector<Frame> frames;
  std::vector<Rebase> rebases;
  /// One letter per event: 'f' a frame, 'r' a rebase.
  std::string events;

  void on_change(const history::Change& change) override {
    frames.push_back({change.epoch, change.seq,
                      {change.records.begin(), change.records.end()},
                      std::string(change.bytes)});
    events += 'f';
  }
  void on_rebase(std::uint64_t epoch, bool replaced) override {
    rebases.push_back({epoch, replaced});
    events += 'r';
  }
};

/// The feed's frame contract against `store`'s own journal: `frames` are
/// the current epoch's journal frames `first`, `first + 1`, ... each once,
/// with the bytes journaled and the records those bytes decode to.
void expect_frames_are_the_journal(DurableHistory& store,
                                   const std::vector<Recorder::Frame>& frames,
                                   std::size_t first = 0) {
  const std::vector<std::string> journal = store.read_journal_records();
  ASSERT_EQ(first + frames.size(), journal.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Recorder::Frame& frame = frames[i];
    SCOPED_TRACE("frame " + std::to_string(first + i));
    EXPECT_EQ(frame.epoch, store.epoch());
    EXPECT_EQ(frame.seq, first + i);
    EXPECT_EQ(frame.bytes, journal[first + i]);
    std::string decoded;
    std::size_t lines = 0;
    for (const std::string_view line : support::Lines(frame.bytes)) {
      if (line.empty()) continue;
      history::encode(history::decode(line), decoded);
      ++lines;
    }
    std::string published;
    for (const history::Record& record : frame.records) {
      history::encode(record, published);
    }
    EXPECT_EQ(frame.records.size(), lines);
    EXPECT_EQ(published, decoded);
  }
}

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : schema_(schema::make_fig1_schema()), clock_(100, 10) {
    dir_ = (fs::temp_directory_path() /
            ("herc_storage_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
  }

  ~StorageTest() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string journal_path() const {
    return (fs::path(dir_) / "journal.wal").string();
  }
  [[nodiscard]] std::string snapshot_path() const {
    return (fs::path(dir_) / "snapshot.herc").string();
  }

  /// Records a few representative mutations: imports (one empty payload,
  /// one shared payload), a derived edit, a failure record, an annotation.
  std::vector<InstanceId> populate(HistoryDb& db) {
    std::vector<InstanceId> ids;
    ids.push_back(db.import_instance(schema_.require("CircuitEditor"), "ed",
                                     "", "u"));
    ids.push_back(db.import_instance(schema_.require("EditedNetlist"), "n1",
                                     "netlist-v1", "u", "first cut"));
    RecordRequest edit;
    edit.type = schema_.require("EditedNetlist");
    edit.name = "n2";
    edit.user = "u";
    edit.payload = "netlist-v2";
    edit.derivation.tool = ids[0];
    edit.derivation.inputs = {ids[1]};
    edit.derivation.input_roles = {""};
    edit.derivation.task = "edit";
    ids.push_back(db.record(edit));
    RecordRequest failed;
    failed.type = schema_.require("Stimuli");
    failed.name = "bad";
    failed.user = "u";
    failed.comment = "tool exploded";
    failed.status = InstanceStatus::kFailed;
    failed.derivation.tool = ids[0];
    failed.derivation.inputs = {ids[2]};
    failed.derivation.input_roles = {""};
    failed.derivation.task = "simulate";
    ids.push_back(db.record(failed));
    db.annotate(ids[1], "n1-renamed", "kept for posterity");
    return ids;
  }

  /// A death-test child's checks of a kCommit append that cannot reach
  /// the disk: the import throws an error naming the journal, and every
  /// later mutation and `sync` throws that same error.  With
  /// `then_checkpoint`, the cap is lifted and a checkpoint must still
  /// throw it and leave the snapshot as it was.  Returns 0 when every
  /// check held, else the number of the first that failed.
  int failed_append_verdict(bool then_checkpoint) {
    StoreOptions options;
    options.journal.sync = SyncPolicy::kCommit;
    DurableHistory store(schema_, clock_, dir_, options);
    populate(store.db());
    store.checkpoint();
    const std::string snapshot = slurp(snapshot_path());
    // Room for a frame header only: the next frame is torn.
    testfile::cap_file_size(fs::file_size(journal_path()) +
                            kFrameHeaderBytes);
    const auto import = [&](const char* name) {
      return failure_of([&] {
        store.db().import_instance(schema_.require("Stimuli"), name, "wave",
                                   "u");
      });
    };
    const std::string first = import("lost");
    if (first.find("journal.wal") == std::string::npos ||
        first.find(std::strerror(EFBIG)) == std::string::npos) {
      return 1;
    }
    for (const char* name : {"late1", "late2", "late3"}) {
      if (import(name) != first) return 2;
    }
    if (failure_of([&] { store.sync(); }) != first) return 3;
    if (!then_checkpoint) return 0;
    testfile::lift_file_size_cap();
    if (failure_of([&] { store.checkpoint(); }) != first) return 4;
    if (slurp(snapshot_path()) != snapshot) return 5;
    return 0;
  }

  schema::TaskSchema schema_;
  support::ManualClock clock_;
  std::string dir_;
};

// ---- journal framing ---------------------------------------------------------

TEST_F(StorageTest, JournalRoundTrip) {
  fs::create_directories(dir_);
  const std::string path = journal_path();
  {
    Journal journal = Journal::create(path, 7, {});
    journal.append("first record");
    journal.append("");
    journal.append(std::string(3000, 'x') + "\nwith|separators");
    EXPECT_EQ(journal.records_appended(), 3u);
  }
  const ScanResult scan = scan_journal(slurp(path));
  EXPECT_TRUE(scan.header_valid);
  EXPECT_EQ(scan.epoch, 7u);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0], "first record");
  EXPECT_EQ(scan.records[1], "");
  EXPECT_EQ(scan.records[2], std::string(3000, 'x') + "\nwith|separators");
  EXPECT_EQ(scan.valid_bytes, fs::file_size(path));
  EXPECT_FALSE(scan.torn);
}

TEST_F(StorageTest, ScanStopsAtTornTail) {
  fs::create_directories(dir_);
  {
    Journal journal = Journal::create(journal_path(), 0, {});
    journal.append("aaaa");
    journal.append("bbbb");
  }
  const std::string bytes = slurp(journal_path());
  // Truncating anywhere inside the final frame keeps only the first.
  for (std::size_t cut = 1; cut < kFrameHeaderBytes + 4; ++cut) {
    const ScanResult scan =
        scan_journal(std::string_view(bytes).substr(0, bytes.size() - cut));
    EXPECT_EQ(scan.records.size(), 1u) << "cut " << cut;
    EXPECT_TRUE(scan.torn);
    EXPECT_EQ(scan.valid_bytes,
              kJournalHeaderBytes + kFrameHeaderBytes + 4);
  }
  // Truncating inside the header invalidates the journal without throwing.
  const ScanResult headerless =
      scan_journal(std::string_view(bytes).substr(0, 5));
  EXPECT_FALSE(headerless.header_valid);
  EXPECT_TRUE(headerless.records.empty());
}

TEST_F(StorageTest, ScanStopsAtCorruptFrame) {
  fs::create_directories(dir_);
  {
    Journal journal = Journal::create(journal_path(), 0, {});
    journal.append("aaaa");
    journal.append("bbbb");
    journal.append("cccc");
  }
  std::string bytes = slurp(journal_path());
  // Flip one payload byte in the middle frame.
  bytes[kJournalHeaderBytes + (kFrameHeaderBytes + 4) + kFrameHeaderBytes] ^=
      0x40;
  const ScanResult scan = scan_journal(bytes);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "aaaa");
  EXPECT_TRUE(scan.torn);
}

// ---- store recovery ----------------------------------------------------------

TEST_F(StorageTest, JournalOnlyRecoveryRoundTrips) {
  std::string image;
  std::vector<InstanceId> ids;
  {
    DurableHistory store(schema_, clock_, dir_);
    EXPECT_TRUE(store.recovery().created);
    ids = populate(store.db());
    EXPECT_EQ(store.records_journaled(), 5u);  // 4 records + 1 annotate
    image = store.db().save();
  }
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  const RecoveryReport& report = store.recovery();
  EXPECT_FALSE(report.created);
  EXPECT_EQ(report.snapshot_instances, 0u);
  EXPECT_EQ(report.journal_records_applied, 5u);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(store.db().save(), image);
  EXPECT_EQ(store.db().payload(ids[2]), "netlist-v2");
  EXPECT_EQ(store.db().instance(ids[1]).name, "n1-renamed");
  ASSERT_EQ(store.db().failures().size(), 1u);
  EXPECT_EQ(store.db().instance(store.db().failures()[0]).comment,
            "tool exploded");
}

TEST_F(StorageTest, CheckpointCompactsJournal) {
  std::string image;
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    store.checkpoint();
    image = store.db().save();
    EXPECT_EQ(store.epoch(), 1u);
  }
  EXPECT_EQ(fs::file_size(journal_path()), kJournalHeaderBytes);
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  EXPECT_EQ(store.recovery().snapshot_instances, 4u);
  EXPECT_EQ(store.recovery().journal_records_applied, 0u);
  EXPECT_EQ(store.recovery().epoch, 1u);
  EXPECT_EQ(store.db().save(), image);
}

TEST_F(StorageTest, MutationsAfterCheckpointLandInNewJournal) {
  std::string image;
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    store.checkpoint();
    store.db().import_instance(schema_.require("Stimuli"), "late", "wave",
                               "u");
    image = store.db().save();
  }
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  EXPECT_EQ(store.recovery().snapshot_instances, 4u);
  EXPECT_EQ(store.recovery().journal_records_applied, 1u);
  EXPECT_EQ(store.db().size(), 5u);
  EXPECT_EQ(store.db().save(), image);
}

TEST_F(StorageTest, InPlaceInstallKeepsJournalingLocalMutations) {
  // The image a follower receives from its leader.
  support::ManualClock leader_clock(0, 1);
  HistoryDb leader(schema_, leader_clock);
  populate(leader);
  const std::string image = leader.save();

  std::string after;
  {
    DurableHistory store(schema_, clock_, dir_);
    store.db().import_instance(schema_.require("Stimuli"), "replaced", "w",
                               "u");
    const HistoryDb* const db = &store.db();
    store.install(7, image);
    EXPECT_EQ(&store.db(), db);
    EXPECT_EQ(store.db().listener(),
              static_cast<history::MutationListener*>(&store));
    EXPECT_EQ(store.epoch(), 7u);
    EXPECT_EQ(store.journal_seq(), 0u);
    EXPECT_EQ(store.db().save(), image);
    // A local mutation after the install still reaches the journal.
    store.db().import_instance(schema_.require("Stimuli"), "local", "w", "u");
    EXPECT_EQ(store.journal_seq(), 1u);
    after = store.db().save();
  }
  EXPECT_EQ(slurp(snapshot_path()).find("replaced"), std::string::npos);
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  EXPECT_EQ(store.recovery().epoch, 7u);
  EXPECT_EQ(store.recovery().snapshot_instances, 4u);
  EXPECT_EQ(store.recovery().journal_records_applied, 1u);
  EXPECT_EQ(store.db().save(), after);
}

TEST_F(StorageTest, TornTailTruncatedOnReopen) {
  std::string image;
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    image = store.db().save();
  }
  // A crash mid-append: garbage trailing bytes that parse as no frame.
  {
    std::ofstream out(journal_path(),
                      std::ios::binary | std::ios::app);
    out << "\x13\x00\x00\x00torn";
  }
  {
    support::ManualClock clock2(0, 1);
    DurableHistory store(schema_, clock2, dir_);
    EXPECT_TRUE(store.recovery().torn_tail);
    EXPECT_EQ(store.recovery().journal_records_applied, 5u);
    EXPECT_EQ(store.db().save(), image);
    // The tail was physically truncated; appending continues cleanly.
    store.db().import_instance(schema_.require("Stimuli"), "post", "w", "u");
  }
  support::ManualClock clock3(0, 1);
  DurableHistory store(schema_, clock3, dir_);
  EXPECT_FALSE(store.recovery().torn_tail);
  EXPECT_EQ(store.recovery().journal_records_applied, 6u);
  EXPECT_EQ(store.db().size(), 5u);
}

TEST_F(StorageTest, StaleEpochJournalDiscardedAfterCheckpointCrash) {
  std::string pre_checkpoint_journal;
  std::string image;
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    store.sync();
    pre_checkpoint_journal = slurp(journal_path());
    store.checkpoint();
    image = store.db().save();
  }
  // Simulate a crash between the snapshot rename and the journal reset:
  // the old journal (epoch 0) is still on disk next to the epoch-1
  // snapshot.  Its records are inside the snapshot already and must not
  // be replayed a second time.
  spill(journal_path(), pre_checkpoint_journal);
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  EXPECT_EQ(store.recovery().journal_records_discarded, 5u);
  EXPECT_EQ(store.recovery().journal_records_applied, 0u);
  EXPECT_EQ(store.recovery().snapshot_instances, 4u);
  EXPECT_EQ(store.db().save(), image);
}

TEST_F(StorageTest, SchemaMismatchRejected) {
  { DurableHistory store(schema_, clock_, dir_); }
  schema::TaskSchema other = schema::make_fig2_schema();
  support::ManualClock clock2(0, 1);
  EXPECT_THROW(DurableHistory(other, clock2, dir_), HistoryError);
}

TEST_F(StorageTest, CorruptSnapshotBlobRejected) {
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    store.checkpoint();
  }
  std::string snapshot = slurp(snapshot_path());
  const std::size_t at = snapshot.find("netlist-v1");
  ASSERT_NE(at, std::string::npos);
  snapshot.replace(at, 10, "netlist-vX");
  spill(snapshot_path(), snapshot);
  support::ManualClock clock2(0, 1);
  EXPECT_THROW(DurableHistory(schema_, clock2, dir_), HistoryError);
}

TEST_F(StorageTest, SnapshotShortOfItsDeclaredCountRefused) {
  {
    DurableHistory store(schema_, clock_, dir_);
    for (int i = 0; i < 10; ++i) {
      store.db().import_instance(schema_.require("Stimuli"),
                                 "s" + std::to_string(i),
                                 "wave" + std::to_string(i), "u");
    }
    store.checkpoint();
  }
  // Drop the last instance line: the "snap" header still declares 10.
  std::string snapshot = slurp(snapshot_path());
  const std::size_t last = snapshot.rfind("\ninst|");
  ASSERT_NE(last, std::string::npos);
  snapshot.erase(last + 1, snapshot.find('\n', last + 1) - last);
  spill(snapshot_path(), snapshot);

  support::ManualClock clock2(0, 1);
  try {
    DurableHistory store(schema_, clock2, dir_);
    ADD_FAILURE() << "opened a snapshot holding " << store.db().size()
                  << " of its 10 instances";
  } catch (const HistoryError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "snapshot declares 10 instances but holds 9"),
              std::string::npos)
        << e.what();
  }
  const FsckReport report = fsck_store(dir_);
  EXPECT_TRUE(report.has("snapshot-count-mismatch")) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
}

TEST_F(StorageTest, EmptySnapshotRefused) {
  // A checkpoint never writes a snapshot without its "snap" header, so an
  // empty file is damage: opening it as an empty epoch-0 history would
  // drop everything the image held (and let a follower's recovery accept
  // it when its marker is at epoch 0).
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    store.checkpoint();
  }
  spill(snapshot_path(), "");
  support::ManualClock clock2(0, 1);
  try {
    DurableHistory store(schema_, clock2, dir_);
    ADD_FAILURE() << "opened an empty snapshot at epoch " << store.epoch();
  } catch (const HistoryError& e) {
    EXPECT_NE(std::string(e.what()).find("snapshot holds no snap record"),
              std::string::npos)
        << e.what();
  }
  const FsckReport report = fsck_store(dir_);
  EXPECT_TRUE(report.has("bad-snapshot-header")) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
}

TEST_F(StorageTest, JournalRecordsHandedOverIncludeTheCrashSweep) {
  {
    DurableHistory store(schema_, clock_, dir_);
    HistoryDb& db = store.db();
    const InstanceId tool =
        db.import_instance(schema_.require("CircuitEditor"), "ed", "", "u");
    history::RunRecord run;
    run.flow_name = "edit-flow";
    run.user = "u";
    const std::uint64_t id = db.begin_run(run);
    db.run_task_started(id, "edit");
    RecordRequest edit;
    edit.type = schema_.require("EditedNetlist");
    edit.name = "half done";
    edit.user = "u";
    edit.payload = "netlist";
    edit.derivation.tool = tool;
    edit.derivation.task = "edit";
    db.record(edit);
  }  // closed with the run open, as a crash leaves it

  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  EXPECT_EQ(store.recovery().interrupted_runs, 1u);
  EXPECT_EQ(store.recovery().quarantined, 1u);
  // The sweep journaled its quarantine and seal frames while opening; the
  // hand-off carries them along with the replayed ones.
  const std::vector<std::string> records = store.take_journal_records();
  EXPECT_EQ(records.size(), store.journal_seq());
  store.sync();
  EXPECT_EQ(records, scan_journal(slurp(journal_path())).records);
  EXPECT_TRUE(store.take_journal_records().empty());
}

TEST_F(StorageTest, AutoCheckpointCompacts) {
  StoreOptions options;
  options.checkpoint_every = 3;
  {
    DurableHistory store(schema_, clock_, dir_, options);
    for (int i = 0; i < 7; ++i) {
      store.db().import_instance(schema_.require("Stimuli"),
                                 "s" + std::to_string(i), "w", "u");
    }
    EXPECT_EQ(store.epoch(), 2u);
  }
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_, options);
  EXPECT_EQ(store.recovery().snapshot_instances, 6u);
  EXPECT_EQ(store.recovery().journal_records_applied, 1u);
  EXPECT_EQ(store.db().size(), 7u);
}

TEST_F(StorageTest, SyncPoliciesRoundTrip) {
  for (const SyncPolicy sync :
       {SyncPolicy::kNone, SyncPolicy::kInterval, SyncPolicy::kCommit}) {
    fs::remove_all(dir_);
    StoreOptions options;
    options.journal.sync = sync;
    options.journal.sync_interval = 2;
    {
      support::ManualClock clock(100, 10);
      DurableHistory store(schema_, clock, dir_, options);
      populate(store.db());
    }
    support::ManualClock clock2(0, 1);
    DurableHistory store(schema_, clock2, dir_, options);
    EXPECT_EQ(store.db().size(), 4u)
        << "sync policy " << static_cast<int>(sync);
  }
}

// ---- write failures ----------------------------------------------------------

TEST_F(StorageTest, FailedCommitAppendSticksToEveryLaterMutation) {
  testfile::expect_verdict_zero([&] { return failed_append_verdict(false); },
                                dir_);
}

TEST_F(StorageTest, CheckpointAfterAFailedAppendThrowsTheFirstError) {
  // The failed mutation is applied in memory: a checkpoint would make it
  // durable although its client was told it failed.
  testfile::expect_verdict_zero([&] { return failed_append_verdict(true); },
                                dir_);
}

TEST_F(StorageTest, CheckpointWhoseFsyncFailsThrowsAndKeepsTheSnapshot) {
  {
    DurableHistory store(schema_, clock_, dir_);
    store.db().import_instance(schema_.require("Stimuli"), "kept", "w", "u");
    store.checkpoint();
    store.db().import_instance(schema_.require("Stimuli"), "tail", "w", "u");
    const std::string snapshot = slurp(snapshot_path());
    // /dev/null takes the image but refuses fsync (EINVAL); only a symlink
    // in the store points at it.
    fs::create_symlink("/dev/null", snapshot_path() + ".tmp");
    const std::string error = failure_of([&] { store.checkpoint(); });
    EXPECT_NE(error.find(std::strerror(EINVAL)), std::string::npos) << error;
    EXPECT_FALSE(fs::is_symlink(snapshot_path()));
    EXPECT_EQ(slurp(snapshot_path()), snapshot);
  }
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  EXPECT_EQ(store.recovery().epoch, 1u);
  EXPECT_EQ(store.db().size(), 2u);
}

// ---- the change feed ---------------------------------------------------------

TEST_F(StorageTest, FeedPublishesEveryLeaderFrameOnceInSeqOrder) {
  DurableHistory store(schema_, clock_, dir_);
  Recorder recorder;
  store.subscribe(recorder);
  EXPECT_THROW(store.subscribe(recorder), HistoryError);
  populate(store.db());
  history::RunRecord run;
  run.flow_name = "f";
  run.user = "u";
  const std::uint64_t id = store.db().begin_run(run);
  store.db().run_task_started(id, "0:Stimuli");
  store.db().end_run(id, "failed");
  EXPECT_EQ(recorder.events, std::string(8, 'f'));
  expect_frames_are_the_journal(store, recorder.frames);

  // A checkpoint is one rebase to the new epoch; the next frame is seq 0.
  const std::uint64_t epoch = store.epoch();
  store.checkpoint();
  ASSERT_EQ(recorder.rebases.size(), 1u);
  EXPECT_EQ(recorder.rebases[0].epoch, epoch + 1);
  EXPECT_FALSE(recorder.rebases[0].replaced);
  recorder.frames.clear();
  store.db().import_instance(schema_.require("Stimuli"), "after", "w", "u");
  EXPECT_EQ(recorder.events, std::string(8, 'f') + "rf");
  expect_frames_are_the_journal(store, recorder.frames);

  // Nothing reaches a subscriber once it has left the feed.
  store.unsubscribe(recorder);
  store.unsubscribe(recorder);  // a no-op the second time
  store.db().import_instance(schema_.require("Stimuli"), "unseen", "w", "u");
  store.checkpoint();
  EXPECT_EQ(recorder.events, std::string(8, 'f') + "rf");
}

TEST_F(StorageTest, FeedPublishesEveryFollowerFrameAndAReplacingInstall) {
  // A leader's frames and image, as a follower store receives them.
  const std::string leader_dir = dir_ + "_leader";
  fs::remove_all(leader_dir);
  Recorder leader_frames;
  std::string image;
  std::string image_after;
  {
    support::ManualClock leader_clock(0, 1);
    DurableHistory leader(schema_, leader_clock, leader_dir);
    leader.db().import_instance(schema_.require("Stimuli"), "base", "w", "u");
    image = leader.db().save();
    leader.subscribe(leader_frames);
    populate(leader.db());
    image_after = leader.db().save();
  }
  fs::remove_all(leader_dir);

  support::ManualClock clock2(0, 1);
  DurableHistory follower(schema_, clock2, dir_, {}, 3, image);
  Recorder recorder;
  follower.subscribe(recorder);
  for (const Recorder::Frame& frame : leader_frames.frames) {
    follower.apply_frame(frame.bytes);
  }
  EXPECT_EQ(recorder.events, std::string(leader_frames.frames.size(), 'f'));
  expect_frames_are_the_journal(follower, recorder.frames);
  EXPECT_EQ(follower.db().save(), image_after);

  // An install replaces the contents: one replacing rebase, then seq 0.
  follower.install(7, image);
  ASSERT_EQ(recorder.rebases.size(), 1u);
  EXPECT_EQ(recorder.rebases[0].epoch, 7u);
  EXPECT_TRUE(recorder.rebases[0].replaced);
  recorder.frames.clear();
  follower.apply_frame(leader_frames.frames.front().bytes);
  expect_frames_are_the_journal(follower, recorder.frames);

  // A mirrored checkpoint keeps the contents.
  follower.checkpoint(8);
  ASSERT_EQ(recorder.rebases.size(), 2u);
  EXPECT_EQ(recorder.rebases[1].epoch, 8u);
  EXPECT_FALSE(recorder.rebases[1].replaced);

  const std::string seen = recorder.events;
  follower.unsubscribe(recorder);
  follower.apply_frame(leader_frames.frames[1].bytes);
  follower.install(9, image);
  EXPECT_EQ(recorder.events, seen);
}

TEST_F(StorageTest, AdoptingAHistoryIsAReplacingRebase) {
  support::ManualClock seed_clock(0, 1);
  HistoryDb seed(schema_, seed_clock);
  populate(seed);
  DurableHistory store(schema_, clock_, dir_);
  Recorder recorder;
  store.subscribe(recorder);
  store.adopt(std::move(seed));
  ASSERT_EQ(recorder.rebases.size(), 1u);
  EXPECT_EQ(recorder.rebases[0].epoch, store.epoch());
  EXPECT_TRUE(recorder.rebases[0].replaced);
  EXPECT_EQ(recorder.events, "r");
}

// ---- session and CLI wiring --------------------------------------------------

TEST_F(StorageTest, SessionAdoptsExistingHistoryAndRecovers) {
  {
    core::DesignSession session(schema::make_fig1_schema(), "ada");
    session.import_data("EditedNetlist", "n1", "payload");
    session.import_data("Stimuli", "s1", "wave");
    const auto report = session.open_storage(dir_);
    EXPECT_TRUE(report.created);
    // Pre-existing instances were checkpointed into the fresh store.
    EXPECT_EQ(session.storage()->epoch(), 1u);
    session.import_data("Stimuli", "s2", "wave2");
  }
  core::DesignSession session(schema::make_fig1_schema(), "ada");
  const auto report = session.open_storage(dir_);
  EXPECT_FALSE(report.created);
  EXPECT_EQ(report.snapshot_instances, 2u);
  EXPECT_EQ(report.journal_records_applied, 1u);
  EXPECT_EQ(session.db().size(), 3u);
  // Both sides non-empty is ambiguous and refused.
  core::DesignSession other(schema::make_fig1_schema(), "ada");
  other.import_data("Stimuli", "clash", "w");
  EXPECT_THROW(other.open_storage(dir_), HistoryError);
}

TEST_F(StorageTest, SessionCloseStorageKeepsHistoryInMemory) {
  core::DesignSession session(schema::make_fig1_schema(), "ada");
  session.open_storage(dir_);
  session.import_data("Stimuli", "s1", "wave");
  session.close_storage();
  EXPECT_EQ(session.storage(), nullptr);
  EXPECT_EQ(session.db().size(), 1u);
  // Mutations after closing are not journaled.
  session.import_data("Stimuli", "s2", "wave2");
  core::DesignSession fresh(schema::make_fig1_schema(), "ada");
  fresh.open_storage(dir_);
  EXPECT_EQ(fresh.db().size(), 1u);
}

TEST_F(StorageTest, ExecutorFailureRecordsPersist) {
  // The executor writes failure records through HistoryDb::record (PR 1);
  // the same write path must reach the journal.
  {
    core::DesignSession session(schema::make_fig1_schema(), "ada");
    session.open_storage(dir_);
    RecordRequest failed;
    failed.type = session.schema().require("Performance");
    failed.name = "";
    failed.user = "ada";
    failed.comment = "simulator timed out";
    failed.status = InstanceStatus::kFailed;
    failed.derivation.task = "Simulator";
    session.db().record(failed);
  }
  core::DesignSession session(schema::make_fig1_schema(), "ada");
  session.open_storage(dir_);
  ASSERT_EQ(session.db().failures().size(), 1u);
  const history::Instance& failure =
      session.db().instance(session.db().failures()[0]);
  EXPECT_EQ(failure.status, InstanceStatus::kFailed);
  EXPECT_EQ(failure.comment, "simulator timed out");
  // Failure records stay invisible to normal listings after recovery.
  EXPECT_TRUE(session.db()
                  .instances_of(session.schema().require("Performance"))
                  .empty());
}

// ---- opening the indexes alongside the store ---------------------------------

class IndexedStorageTest : public StorageTest {
 protected:
  /// A store whose snapshot holds `kCheckpointed` imports and whose journal
  /// holds `kTail` more; `image_at_checkpoint_` keeps the index image as
  /// the checkpoint wrote it (epoch 1, seq 0).
  void build() {
    core::DesignSession session(schema::make_fig1_schema(), "ada");
    session.open_storage(dir_);
    for (int i = 0; i < kCheckpointed; ++i) {
      session.set_user(i % 3 == 0 ? "bob" : "ada");
      session.import_data("Stimuli", "wave " + std::to_string(i),
                          "w" + std::to_string(i));
    }
    session.checkpoint_storage();
    image_at_checkpoint_ = slurp(index_path());
    for (int i = 0; i < kTail; ++i) {
      session.import_data("EditedNetlist", "late net " + std::to_string(i),
                          "n" + std::to_string(i));
    }
  }

  [[nodiscard]] std::string index_path() const {
    return index::HistoryIndexes::file_path(dir_);
  }

  /// Indexed first pages equal bare scans, for filters of each class.
  static void expect_pages_match_scan(const core::DesignSession& session) {
    ASSERT_NE(session.indexes(), nullptr);
    std::vector<history::QueryFilter> filters(4);
    filters[0].keyword = "wave";
    filters[1].user = "bob";
    filters[2].type = session.schema().require("Stimuli");
    filters[3].keyword = "late";
    for (const history::QueryFilter& filter : filters) {
      const history::QueryPage indexed =
          history::run_page(session.db(), filter, session.indexes(), 50);
      const history::QueryPage scanned =
          history::run_page(session.db(), filter, nullptr, 50);
      EXPECT_FALSE(indexed.ids.empty()) << indexed.plan.describe();
      EXPECT_EQ(indexed.ids, scanned.ids) << indexed.plan.describe();
    }
  }

  static constexpr int kCheckpointed = 40;
  static constexpr int kTail = 6;
  std::string image_at_checkpoint_;
};

TEST_F(IndexedStorageTest, CloseStorageLeavesTheFeedAndScansTheSamePages) {
  build();
  core::DesignSession session(schema::make_fig1_schema());
  session.open_storage(dir_);
  Recorder recorder;
  session.storage()->subscribe(recorder);
  session.import_data("Stimuli", "wave closing", "w");
  EXPECT_EQ(recorder.events, "f");

  std::vector<history::QueryFilter> filters(4);
  filters[0].keyword = "wave";
  filters[1].user = "bob";
  filters[2].type = session.schema().require("Stimuli");
  filters[3].keyword = "late";
  std::vector<history::QueryPage> indexed;
  for (const history::QueryFilter& filter : filters) {
    indexed.push_back(
        history::run_page(session.db(), filter, session.indexes(), 50));
  }

  // Closing drops the indexes with the store: the in-memory session
  // browses by scan, page for page the same, and publishes nothing more.
  session.close_storage();
  EXPECT_EQ(session.indexes(), nullptr);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    const history::QueryPage scanned =
        history::run_page(session.db(), filters[i], session.indexes(), 50);
    EXPECT_EQ(scanned.plan.path, history::AccessPath::kScan);
    EXPECT_FALSE(scanned.ids.empty());
    EXPECT_EQ(scanned.ids, indexed[i].ids) << indexed[i].plan.describe();
  }
  session.import_data("Stimuli", "wave in memory", "w");
  EXPECT_EQ(recorder.events, "f");
}

TEST_F(IndexedStorageTest, LoadsTheImageAndCatchesUpFromTheJournal) {
  build();
  spill(index_path(), image_at_checkpoint_);
  core::DesignSession session(schema::make_fig1_schema());
  session.open_storage(dir_);
  const auto& report = session.index_open_report();
  EXPECT_TRUE(report.loaded) << report.reason;
  EXPECT_FALSE(report.rebuilt);
  EXPECT_EQ(report.caught_up, static_cast<std::size_t>(kTail));
  expect_pages_match_scan(session);
}

TEST_F(IndexedStorageTest, MissingImageRebuilds) {
  build();
  fs::remove(index_path());
  core::DesignSession session(schema::make_fig1_schema());
  session.open_storage(dir_);
  const auto& report = session.index_open_report();
  EXPECT_FALSE(report.loaded);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_EQ(report.reason, "no index file");
  expect_pages_match_scan(session);
}

TEST_F(IndexedStorageTest, CorruptImageRebuilds) {
  build();
  std::string image = slurp(index_path());
  image[image.size() / 2] ^= 0x20;
  spill(index_path(), image);
  core::DesignSession session(schema::make_fig1_schema());
  session.open_storage(dir_);
  const auto& report = session.index_open_report();
  EXPECT_FALSE(report.loaded);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_EQ(report.reason, "body checksum mismatch");
  expect_pages_match_scan(session);
}

TEST_F(IndexedStorageTest, StaleEpochImageRebuilds) {
  build();
  {
    core::DesignSession session(schema::make_fig1_schema());
    session.open_storage(dir_);
    session.checkpoint_storage();  // epoch 2
  }
  spill(index_path(), image_at_checkpoint_);  // stamped epoch 1
  core::DesignSession session(schema::make_fig1_schema());
  session.open_storage(dir_);
  const auto& report = session.index_open_report();
  EXPECT_FALSE(report.loaded);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_EQ(report.reason, "epoch skew (index 1, store 2)");
  expect_pages_match_scan(session);
}

TEST_F(IndexedStorageTest, ImageAheadOfTheJournalRebuilds) {
  build();
  index::IndexImage image;
  std::string error;
  ASSERT_TRUE(index::IndexImage::parse(slurp(index_path()), image, error))
      << error;
  image.seq = kTail + 5;
  spill(index_path(), image.serialize());
  core::DesignSession session(schema::make_fig1_schema());
  session.open_storage(dir_);
  const auto& report = session.index_open_report();
  EXPECT_FALSE(report.loaded);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_EQ(report.reason, "index at seq " + std::to_string(kTail + 5) +
                               " but the journal holds " +
                               std::to_string(kTail) + " records");
  expect_pages_match_scan(session);
}

TEST_F(IndexedStorageTest, SchemaMismatchThrowsWhileTheImageLoads) {
  // A large image keeps the loader busy after the schema check fails.
  {
    DurableHistory store(schema_, clock_, dir_);
    for (int i = 0; i < 5000; ++i) {
      store.db().import_instance(schema_.require("Stimuli"),
                                 "token" + std::to_string(i), "w", "u");
    }
    store.checkpoint();
    index::HistoryIndexes idx(store.db());
    idx.rebuild();
    idx.save(dir_, store.epoch(), store.journal_seq());
  }
  core::DesignSession session(schema::make_fig2_schema());
  try {
    session.open_storage(dir_);
    ADD_FAILURE() << "opened a store recorded against another schema";
  } catch (const HistoryError& e) {
    EXPECT_EQ(std::string(e.what()),
              "store '" + dir_ +
                  "': recorded schema differs from the session's; open it "
                  "from a session over the same schema");
  }
  EXPECT_EQ(session.storage(), nullptr);
  EXPECT_EQ(session.indexes(), nullptr);
}

TEST_F(StorageTest, InterpreterOpenCheckpointStore) {
  {
    std::ostringstream out;
    cli::Interpreter interp(out);
    EXPECT_EQ(interp.execute("session new fig1 ada"), cli::CommandStatus::kOk);
    EXPECT_EQ(interp.execute("open " + dir_), cli::CommandStatus::kOk)
        << interp.last_error();
    EXPECT_EQ(interp.execute("import Stimuli wave \"\""),
              cli::CommandStatus::kOk);
    EXPECT_EQ(interp.execute("checkpoint"), cli::CommandStatus::kOk)
        << interp.last_error();
    EXPECT_EQ(interp.execute("store"), cli::CommandStatus::kOk);
    EXPECT_NE(out.str().find("store created at"), std::string::npos);
    EXPECT_NE(out.str().find("epoch 1"), std::string::npos);
  }
  std::ostringstream out;
  cli::Interpreter interp(out);
  EXPECT_EQ(interp.execute("session new fig1 ada"), cli::CommandStatus::kOk);
  EXPECT_EQ(interp.execute("open " + dir_ + " sync=commit"),
            cli::CommandStatus::kOk)
      << interp.last_error();
  EXPECT_EQ(interp.session().db().size(), 1u);
  EXPECT_NE(out.str().find("store opened at"), std::string::npos);
  // `checkpoint` without a store is a reported error, not a crash.
  EXPECT_EQ(interp.execute("store close"), cli::CommandStatus::kOk);
  EXPECT_EQ(interp.execute("checkpoint"), cli::CommandStatus::kError);
}

TEST_F(StorageTest, InterpreterReportsEveryWriteAfterAFailedAppend) {
  // The call `herc serve` makes for each command.
  testfile::expect_verdict_zero(
      [&] {
        std::ostringstream out;
        cli::Interpreter interp(out);
        if (interp.execute("session new fig1 ada") != cli::CommandStatus::kOk ||
            interp.execute("open " + dir_ + " sync=commit") !=
                cli::CommandStatus::kOk ||
            interp.execute("import Stimuli before \"\"") !=
                cli::CommandStatus::kOk) {
          return 1;
        }
        testfile::cap_file_size(fs::file_size(journal_path()));
        if (interp.execute("import Stimuli lost \"\"") !=
            cli::CommandStatus::kError) {
          return 2;
        }
        const std::string first = interp.last_error();
        if (first.find(std::strerror(EFBIG)) == std::string::npos) return 3;
        if (interp.execute("import Stimuli late \"\"") !=
                cli::CommandStatus::kError ||
            interp.last_error() != first) {
          return 4;
        }
        return 0;
      },
      dir_);
}

}  // namespace
}  // namespace herc::storage
