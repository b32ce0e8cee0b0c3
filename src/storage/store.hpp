// Durable design-history storage: snapshot + write-ahead journal.
//
// `DurableHistory` puts a crash-recoverable store underneath `HistoryDb`
// (and, through it, `BlobStore`).  A store directory holds:
//
//   schema.herc    the task schema the history was recorded against
//   snapshot.herc  full image written by the last checkpoint (epoch-tagged)
//   journal.wal    mutations appended since that checkpoint
//
// Every mutation (import, task product, failure record, annotation — and
// any blob it introduces) is serialized by the history database itself and
// appended as one journal frame, so a commit is O(delta) while `save()` is
// O(database).  `checkpoint()` compacts: it atomically replaces the
// snapshot (write temp + rename) and then resets the journal under a new
// epoch.  Recovery replays snapshot + journal tail; a torn final frame is
// truncated away, and a journal whose epoch does not match the snapshot's
// (a crash between the checkpoint's two steps) is discarded — its records
// are already inside the snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "history/history_db.hpp"
#include "storage/journal.hpp"

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

/// Durable file replacement: write `path`.tmp, flush + fsync, rename over
/// `path`, fsync the directory so the rename itself is durable.  Shared by
/// checkpointing and fsck repair.
void write_file_atomic(const std::string& path, std::string_view content);

/// Replays snapshot text — a "snap" header (epoch, instance count) then a
/// full `HistoryDb::save` image — into the empty `db`: the one snapshot
/// reader behind store open and replica recovery.  Returns the header's
/// epoch, or nullopt when the text holds no records.  Throws `HistoryError`,
/// its message prefixed with `where`, when the first record is not a snap
/// header or when the image holds a different number of instances than the
/// header declares; a malformed record throws from `apply_saved_line`.
[[nodiscard]] std::optional<std::uint64_t> replay_snapshot(
    std::string_view text, history::HistoryDb& db, const std::string& where);

/// Observer of the journal frame stream — the replication shipping hook.
/// Called synchronously from the mutation path, under whatever lock the
/// caller already uses to serialize mutations; implementations must be
/// fast (hand off, don't block) and must not re-enter the store.
class JournalTap {
 public:
  virtual ~JournalTap() = default;
  /// One frame was appended: `seq` is its 0-based position within the
  /// current epoch's journal (replayed records count, so seq is stable
  /// across reopen), `payload` the save-format mutation lines.
  virtual void on_frame(std::uint64_t epoch, std::uint64_t seq,
                        std::string_view payload) = 0;
  /// The store checkpointed: the snapshot now carries `new_epoch` and the
  /// journal restarted empty (the next frame is seq 0 of `new_epoch`).
  virtual void on_checkpoint(std::uint64_t new_epoch) = 0;
};

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
  void checkpoint();

  /// Forces journaled records to stable storage now (regardless of policy).
  void sync();

  /// Detaches and returns the database (the store stops journaling; any
  /// buffered frames are flushed).  The `DurableHistory` is dead after.
  std::unique_ptr<history::HistoryDb> release();

  /// The current journal's frames as opening found them, plus any the
  /// crash sweep appended: what a consumer that catches up from the
  /// journal (the secondary indexes) needs right after opening, without
  /// reading the file again.  Moves them out, so a second call returns
  /// none; empty after a checkpoint.
  [[nodiscard]] std::vector<std::string> take_journal_records() {
    return std::exchange(journal_records_, {});
  }

  /// Streams every journaled frame (and checkpoint) to `tap`; pass
  /// `nullptr` to detach.  One tap at a time.
  void attach_tap(JournalTap* tap) { tap_ = tap; }

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

  /// True when `dir` already holds a store (a schema file).
  [[nodiscard]] static bool exists(const std::string& dir);

  void on_mutation(std::string_view lines) override;

 private:
  [[nodiscard]] std::string schema_path() const;
  [[nodiscard]] std::string snapshot_path() const;
  [[nodiscard]] std::string journal_path() const;

  const schema::TaskSchema* schema_;
  std::string dir_;
  StoreOptions options_;
  std::unique_ptr<history::HistoryDb> db_;
  std::optional<Journal> journal_;
  RecoveryReport report_;
  JournalTap* tap_ = nullptr;
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
