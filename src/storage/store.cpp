#include "storage/store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "schema/schema_io.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define HERC_HAVE_FSYNC 1
#endif

namespace herc::storage {

namespace fs = std::filesystem;
using support::HistoryError;

namespace {

std::string read_file(const std::string& path) {
  std::optional<std::string> bytes = support::read_file(path);
  if (!bytes) throw HistoryError("store: cannot read '" + path + "'");
  return std::move(*bytes);
}

void fsync_path(const std::string& path) {
#ifdef HERC_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

std::optional<std::uint64_t> replay_snapshot(std::string_view text,
                                             history::HistoryDb& db,
                                             const std::string& where) {
  std::optional<std::uint64_t> epoch;
  std::uint32_t declared = 0;
  for (const std::string_view line : support::Lines(text)) {
    if (support::trim(line).empty()) continue;
    if (epoch) {
      db.apply_saved_line(line);
      continue;
    }
    support::RecordReader rec(line);
    if (rec.kind() != "snap") {
      throw HistoryError(where +
                         ": snapshot does not start with a snap record");
    }
    epoch = static_cast<std::uint64_t>(rec.next_int64());
    declared = rec.next_uint32();
  }
  if (epoch && db.size() != declared) {
    throw HistoryError(where + ": snapshot declares " +
                       std::to_string(declared) + " instances but holds " +
                       std::to_string(db.size()));
  }
  return epoch;
}

void write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw HistoryError("store: cannot write '" + tmp + "'");
    }
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      throw HistoryError("store: short write to '" + tmp + "'");
    }
  }
  fsync_path(tmp);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw HistoryError("store: cannot rename '" + tmp + "' over '" + path +
                       "': " + ec.message());
  }
  fsync_path(fs::path(path).parent_path().string());
}

std::string DurableHistory::schema_path() const {
  return (fs::path(dir_) / "schema.herc").string();
}

std::string DurableHistory::snapshot_path() const {
  return (fs::path(dir_) / "snapshot.herc").string();
}

std::string DurableHistory::journal_path() const {
  return (fs::path(dir_) / "journal.wal").string();
}

bool DurableHistory::exists(const std::string& dir) {
  return fs::exists(fs::path(dir) / "schema.herc");
}

DurableHistory::DurableHistory(const schema::TaskSchema& schema,
                               support::Clock& clock, std::string dir,
                               StoreOptions options)
    : schema_(&schema), dir_(std::move(dir)), options_(options) {
  fs::create_directories(dir_);
  const std::string schema_text = schema::write_schema(schema);
  if (fs::exists(schema_path())) {
    if (read_file(schema_path()) != schema_text) {
      throw HistoryError("store '" + dir_ +
                         "': recorded schema differs from the session's; "
                         "open it from a session over the same schema");
    }
  } else {
    write_file_atomic(schema_path(), schema_text);
    report_.created = true;
  }

  db_ = std::make_unique<history::HistoryDb>(schema, clock);

  if (fs::exists(snapshot_path())) {
    epoch_ = replay_snapshot(read_file(snapshot_path()), *db_,
                             "store '" + dir_ + "'")
                 .value_or(0);
    report_.snapshot_instances = db_->size();
  }

  // Journal: replay the tail on top of the snapshot.
  bool need_fresh_journal = true;
  if (fs::exists(journal_path())) {
    ScanResult scan = scan_journal(read_file(journal_path()));
    if (scan.header_valid && scan.epoch == epoch_) {
      for (const std::string& record : scan.records) {
        for (const std::string_view line : support::Lines(record)) {
          db_->apply_saved_line(line);
        }
      }
      report_.journal_records_applied = scan.records.size();
      report_.torn_tail = scan.torn;
      if (scan.torn) {
        std::error_code ec;
        fs::resize_file(journal_path(), scan.valid_bytes, ec);
        if (ec) {
          throw HistoryError("store '" + dir_ +
                             "': cannot truncate torn journal tail: " +
                             ec.message());
        }
      }
      journal_ = Journal::open(journal_path(), epoch_, scan.valid_bytes,
                               options_.journal);
      journal_seq_ = scan.records.size();
      journal_records_ = std::move(scan.records);
      need_fresh_journal = false;
    } else if (scan.header_valid && scan.epoch > epoch_) {
      // A journal *ahead* of its snapshot cannot happen from a crash (the
      // checkpoint orders snapshot-then-journal); the snapshot was replaced
      // or rolled back out from under it.  Discarding would silently lose
      // committed records, so refuse — naming both epochs.
      throw HistoryError("store '" + dir_ + "': journal is at future epoch " +
                         std::to_string(scan.epoch) +
                         " but the snapshot is at epoch " +
                         std::to_string(epoch_) +
                         "; refusing to discard committed records");
    } else {
      // Wrong magic, or an epoch the snapshot has already absorbed.
      report_.journal_records_discarded = scan.records.size();
    }
  }
  if (need_fresh_journal) {
    journal_ = Journal::create(journal_path(), epoch_, options_.journal);
  }
  report_.epoch = epoch_;
  db_->attach_listener(this);

  // Crash-resumable runs: a run-begin frame without a matching run-end
  // means the process died mid-flow.  Products of tasks that started but
  // never completed a combination are quarantined (journaled through the
  // listener, so the sweep itself is durable); the run stays open for
  // `Executor::resume`.
  // The sweep seals each interrupted run's window at the recovered table
  // size: work recorded from here on (new runs, imports, decompose) is not
  // the crashed run's doing, so a later reopen must not sweep it.
  const history::HistoryDb::SealSweep sweep = db_->seal_open_runs(
      "crash recovery: the producing task never finished");
  report_.interrupted_runs = sweep.open;
  report_.quarantined = sweep.quarantined;
  opening_ = false;
}

DurableHistory::~DurableHistory() {
  if (db_ != nullptr) db_->attach_listener(nullptr);
  // `journal_`'s destructor flushes (and fsyncs unless kNone).
}

void DurableHistory::on_mutation(std::string_view lines) {
  journal_->append(lines);
  if (opening_) journal_records_.emplace_back(lines);
  const std::uint64_t seq = journal_seq_++;
  ++records_;
  bytes_ += lines.size();
  ++since_checkpoint_;
  if (tap_ != nullptr) tap_->on_frame(epoch_, seq, lines);
  if (options_.checkpoint_every > 0 &&
      since_checkpoint_ >= options_.checkpoint_every) {
    checkpoint();
  }
}

void DurableHistory::checkpoint() {
  const std::uint64_t next = epoch_ + 1;
  support::RecordWriter meta("snap");
  meta.field(static_cast<std::int64_t>(next));
  meta.field(static_cast<std::uint32_t>(db_->size()));
  write_file_atomic(snapshot_path(), meta.str() + "\n" + db_->save());
  // A crash here leaves a journal whose epoch predates the new snapshot;
  // recovery discards it, and every record it held is inside the snapshot.
  // Close the old handle first: a buffered flush after the truncation
  // below would resurrect stale frames.
  journal_.reset();
  journal_ = Journal::create(journal_path(), next, options_.journal);
  epoch_ = next;
  since_checkpoint_ = 0;
  journal_seq_ = 0;
  journal_records_.clear();
  if (tap_ != nullptr) tap_->on_checkpoint(next);
}

void DurableHistory::sync() { journal_->sync(); }

void DurableHistory::adopt(history::HistoryDb&& seed) {
  if (db_->size() != 0) {
    throw HistoryError("store '" + dir_ +
                       "': refusing to adopt over a non-empty store");
  }
  seed.attach_listener(nullptr);
  db_ = std::make_unique<history::HistoryDb>(std::move(seed));
  db_->attach_listener(this);
  checkpoint();
}

std::unique_ptr<history::HistoryDb> DurableHistory::release() {
  journal_->sync();
  db_->attach_listener(nullptr);
  return std::move(db_);
}

}  // namespace herc::storage
