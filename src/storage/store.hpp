// Durable design-history storage: snapshot + write-ahead journal.
//
// `DurableHistory` puts a crash-recoverable store underneath `HistoryDb`
// (and, through it, `BlobStore`).  A store directory holds:
//
//   schema.herc    the task schema the history was recorded against
//   snapshot.herc  full image written by the last checkpoint (epoch-tagged)
//   journal.wal    mutations appended since that checkpoint
//   replica.herc   present only in a follower's store (src/replica)
//
// Every mutation (import, task product, failure record, annotation — and
// any blob it introduces) reaches the store through the database's one
// listener slot and is appended as one journal frame, so a commit is
// O(delta) while `save()` is O(database).  `checkpoint()` compacts: it
// atomically replaces the snapshot (write temp + rename) and then resets
// the journal under a new epoch.  Recovery replays snapshot + journal
// tail.  What the files mean is decided by one reader, `StoreReader`,
// which open and fsck share: a torn final frame is truncated away, and a
// journal older than the snapshot (a crash between the checkpoint's two
// steps) is discarded, as its records are already inside the snapshot;
// a journal ahead of the snapshot, or one with a wrong magic, is refused.
//
// Files are written through `support/file`, which checks every result.  A
// failed journal write or checkpoint sticks: later mutations, `sync` and
// `checkpoint` throw it until the store is reopened, since the failed
// mutation is applied in memory but unseen by subscribers, and a checkpoint
// would make it durable.  `install` clears it; closing does not throw.
//
// A follower's replica is the same store, fed by `apply_frame` and
// `install`.  Its marker makes the one difference on open: no crash sweep,
// as its open runs are its leader's live runs.  src/storage reads and
// writes the schema, snapshot and journal; src/index keeps `indexes.herc`
// in the same directory, and src/replica writes and removes the marker.
//
// The store publishes the history's one change feed: each frame it
// journals goes to every `history::ChangeSubscriber` (the indexes, the
// shipper), and each checkpoint, install and adoption as a rebase.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "history/history_db.hpp"
#include "schema/task_schema.hpp"
#include "storage/fsck.hpp"
#include "storage/journal.hpp"
#include "support/error.hpp"
#include "support/file.hpp"

namespace herc::storage {

struct StoreOptions {
  JournalOptions journal;
  /// Auto-compaction: run `checkpoint()` once this many records have been
  /// journaled since the last checkpoint (0 = only on explicit request).
  std::uint64_t checkpoint_every = 0;
};

/// What `DurableHistory`'s constructor found and did.
struct RecoveryReport {
  /// True when the directory held no prior store.
  bool created = false;
  std::uint64_t epoch = 0;
  /// Instances restored from the snapshot image.
  std::size_t snapshot_instances = 0;
  /// Journal records replayed on top of the snapshot.
  std::size_t journal_records_applied = 0;
  /// Journal records discarded because their epoch predated the snapshot
  /// (crash between snapshot rename and journal reset).
  std::size_t journal_records_discarded = 0;
  /// True when the journal ended in a torn frame that was truncated away.
  bool torn_tail = false;
  /// Runs a crash left open (resumable via `Executor::resume`).
  std::size_t interrupted_runs = 0;
  /// OK instances quarantined because the task that produced them started
  /// but never finished before the crash.
  std::size_t quarantined = 0;
};

/// The files of store directory `dir`: the one place their names are
/// spelled.
struct StorePaths {
  explicit StorePaths(const std::string& dir);
  std::string schema;
  std::string snapshot;
  std::string journal;
  /// The replica marker: present only in a follower's store.
  std::string marker;
};

/// True when `dir` carries the replica marker: a follower's store, which
/// a leader may not open until `herc promote` removes the marker.
[[nodiscard]] bool is_replica_store(const std::string& dir);

/// The schema recorded in store `dir`, or nullopt when `dir` holds no
/// store.  Throws `HistoryError` when the schema cannot be read and
/// `ParseError` when it does not parse.
[[nodiscard]] std::optional<schema::TaskSchema> recorded_schema(
    const std::string& dir);

/// The one reader of a store's snapshot and journal: open (`DurableHistory`,
/// `read_journal_records`) and `fsck_store` judge the files by it alone.
/// It reports each problem once, as the finding fsck prints.  Open refuses
/// a corruption and leaves the journal as it was: a first snapshot record
/// that is not `snap|epoch|count` (bad-snapshot-header), a replay that
/// holds another count (snapshot-count-mismatch), a journal magic
/// (bad-record) or epoch (future-journal-epoch) it cannot extend.  It acts
/// on a warning: it discards an older journal (stale-journal-epoch),
/// replaces one shorter than its header and cuts a torn last frame
/// (torn-journal-tail).
class StoreReader {
 public:
  /// Opens the snapshot in `paths`, when there is one, and checks its
  /// header; a store without one is an empty image at epoch 0.
  explicit StoreReader(const StorePaths& paths);
  /// Reads the journal in `paths` alone, against a snapshot at `epoch`.
  StoreReader(const StorePaths& paths, std::uint64_t epoch);

  /// The snapshot's next line after its header that is not blank, to
  /// replay, without its '\n': a view valid until the next call, read
  /// through one bounded window (`support::FileReader`), so the snapshot
  /// is never resident whole.  Nullopt once it ends or `read_journal`
  /// has closed it.
  [[nodiscard]] std::optional<std::string_view> next_line();
  /// Checks that replaying the snapshot's lines left `held` instances,
  /// closes the snapshot and reads the journal.
  void read_journal(std::size_t held);
  /// Throws `HistoryError` naming store `dir` for the first corruption.
  void refuse_corruption(const std::string& dir) const;

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const std::vector<FsckFinding>& findings() const {
    return findings_;
  }
  /// True when the journal is at the snapshot's epoch: `journal().records`
  /// replay, and appends go after its `valid_bytes`.  Otherwise it holds no
  /// records, and a fresh journal replaces the file.
  [[nodiscard]] bool extends() const { return extends_; }
  [[nodiscard]] ScanResult& journal() { return journal_; }
  /// Frames of a stale journal: the ones a fresh journal discards.
  [[nodiscard]] std::size_t discarded() const { return discarded_; }
  /// True when the journal may hold frames this reader could not read: the
  /// snapshot's header is bad, or the journal's magic, or its epoch is
  /// ahead of the snapshot's.  Replacing such a journal would lose them,
  /// so fsck's repair refuses it as open does.
  [[nodiscard]] bool frames_unread() const { return frames_unread_; }

 private:
  std::string journal_path_;
  std::optional<support::FileReader> snapshot_;
  std::uint64_t epoch_ = 0;
  std::optional<std::uint32_t> declared_;
  ScanResult journal_;
  bool extends_ = false;
  bool frames_unread_ = false;
  std::size_t discarded_ = 0;
  std::vector<FsckFinding> findings_;
};

/// The one checkpoint writer (store checkpoint and install, fsck repair):
/// a "snap" header (`epoch`, `instances`) and `image` replace the
/// snapshot, then the journal restarts under `epoch`; returns the fresh
/// journal.  A crash between the two leaves a stale-epoch journal, which
/// recovery discards.
Journal write_checkpoint(const StorePaths& paths, std::uint64_t epoch,
                         std::size_t instances, std::string_view image,
                         JournalOptions options);

/// A `HistoryDb` bound to a store directory.  Owns the database; attach it
/// to a session (or use `db()` directly) and every mutation is journaled.
/// Not internally synchronized — callers serialize mutations exactly as
/// they already do for `HistoryDb` (the executor's state mutex).
class DurableHistory final : public history::MutationListener {
 public:
  /// Opens (creating if needed) the store in `dir` and recovers its
  /// contents into a fresh database over `schema`.  Throws `HistoryError`
  /// when the directory's recorded schema differs from `schema`, or when
  /// snapshot/journal contents fail integrity checks.
  DurableHistory(const schema::TaskSchema& schema, support::Clock& clock,
                 std::string dir, StoreOptions options = {});
  /// Creates the store in `dir` from `image` at `epoch`, as `install`
  /// does, without reading anything the directory held: how a follower
  /// bootstraps from its leader's snapshot.
  DurableHistory(const schema::TaskSchema& schema, support::Clock& clock,
                 std::string dir, StoreOptions options, std::uint64_t epoch,
                 std::string_view image);
  ~DurableHistory() override;

  DurableHistory(const DurableHistory&) = delete;
  DurableHistory& operator=(const DurableHistory&) = delete;

  [[nodiscard]] history::HistoryDb& db() { return *db_; }
  [[nodiscard]] const history::HistoryDb& db() const { return *db_; }

  /// Replaces this (empty, freshly created) store's database with `seed`
  /// and checkpoints, so a history built before the store was opened
  /// becomes durable.  Throws when either side would lose data.
  void adopt(history::HistoryDb&& seed);

  /// Snapshot compaction: writes the full image (temp + rename), then
  /// resets the journal under the next epoch.
  void checkpoint() { checkpoint(epoch_ + 1); }
  /// The same under `epoch`: a follower mirrors its leader's checkpoint.
  void checkpoint(std::uint64_t epoch);

  /// Replaces the contents with `image`, a `HistoryDb::save` image at
  /// `epoch`: checks that it loads, writes the schema, `image` itself as
  /// the snapshot and a fresh journal, then swaps the database's contents
  /// in place (whoever holds `db()` keeps it, and this store stays its
  /// listener) and publishes a replacing rebase.  Nothing the directory
  /// held before is read, and an earlier failure is cleared.
  void install(std::uint64_t epoch, std::string_view image);

  /// Applies a frame its leader journaled: decodes `lines`, appends them to
  /// the journal as one frame, applies them to `db()`, then publishes the
  /// frame.  Write-ahead, so a crash mid-apply recovers to a consistent
  /// prefix.
  void apply_frame(std::string_view lines);

  /// Forces journaled records to stable storage now (regardless of policy).
  void sync();

  /// The crash sweep: quarantines every open run's partial products, seals
  /// each open run's sweep window (`HistoryDb::seal_open_runs`) and counts
  /// both in `recovery()`.  Opening runs it unless the store is a
  /// follower's; `promote_store` runs it once the follower leads.
  void sweep_interrupted_runs();

  /// Detaches and returns the database (the store stops journaling; any
  /// buffered frames are synced, unless the store has failed).  The
  /// `DurableHistory` is dead after.
  std::unique_ptr<history::HistoryDb> release();

  /// The current journal's frames as opening found them, plus any the
  /// crash sweep appended: what a consumer that catches up from the
  /// journal (the secondary indexes) needs right after opening, without
  /// reading the file again.  Moves them out, so a second call returns
  /// none; empty after a checkpoint.
  [[nodiscard]] std::vector<std::string> take_journal_records() {
    return std::exchange(journal_records_, {});
  }

  /// The current epoch's journal frames, read back from the file once
  /// everything appended is on it: the backlog a shipper sends a follower
  /// that subscribes from inside the epoch.  Throws `HistoryError` when the
  /// file cannot be read or `StoreReader` finds it corrupt; none when it
  /// no longer extends this epoch.
  [[nodiscard]] std::vector<std::string> read_journal_records();

  /// Adds `subscriber` to the change feed, after those already on it; it
  /// must leave (or the store go) before it is destroyed.  Throws
  /// `HistoryError` when it is already subscribed.
  void subscribe(history::ChangeSubscriber& subscriber);
  /// Removes `subscriber` from the feed; a no-op when it is not on it.
  void unsubscribe(history::ChangeSubscriber& subscriber) {
    std::erase(subscribers_, &subscriber);
  }

  [[nodiscard]] const RecoveryReport& recovery() const { return report_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Records / payload bytes appended to the journal since opening.
  [[nodiscard]] std::uint64_t records_journaled() const { return records_; }
  [[nodiscard]] std::uint64_t bytes_journaled() const { return bytes_; }
  /// Frames in the current epoch's journal (the next frame's sequence
  /// number) — counts records replayed on recovery, so it is stable
  /// across reopen.
  [[nodiscard]] std::uint64_t journal_seq() const { return journal_seq_; }
  /// Size of the journal file itself (header + frames), in bytes.
  [[nodiscard]] std::uint64_t journal_file_bytes() const {
    return journal_.has_value() ? journal_->bytes() : 0;
  }
  /// The first failed write (see the top comment); null while healthy.
  [[nodiscard]] const support::HistoryError* failure() const {
    return failure_ ? &*failure_ : nullptr;
  }

  void on_mutation(std::span<const history::Record> records) override;

 private:
  /// Appends `bytes`, the encoded `records`, to the journal as one frame,
  /// applies the records to the database when `apply` (a replicated
  /// frame; a local one is applied already), then publishes the frame.
  void journal(std::string_view bytes,
               std::span<const history::Record> records, bool apply);
  /// Writes `image` as the snapshot at `epoch`, restarts the journal,
  /// moves in `replacement` (whose save `image` is) when given, and
  /// publishes the rebase.
  void rebase(std::uint64_t epoch, std::string_view image,
              history::HistoryDb* replacement = nullptr);

  const schema::TaskSchema* schema_;
  support::Clock* clock_;
  std::string dir_;
  StorePaths paths_;
  StoreOptions options_;
  std::unique_ptr<history::HistoryDb> db_;
  std::optional<Journal> journal_;
  std::optional<support::HistoryError> failure_;  // see the top comment
  RecoveryReport report_;
  std::vector<history::ChangeSubscriber*> subscribers_;
  std::uint64_t epoch_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t since_checkpoint_ = 0;
  std::uint64_t journal_seq_ = 0;
  /// See `take_journal_records`; filled only while the constructor runs.
  std::vector<std::string> journal_records_;
  bool opening_ = true;
};

}  // namespace herc::storage
