#include "storage/store.hpp"

#include <algorithm>
#include <filesystem>

#include "schema/schema_io.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

namespace herc::storage {

namespace fs = std::filesystem;
using support::HistoryError;

namespace {

std::string read_file(const std::string& path) {
  std::optional<std::string> bytes = support::read_file(path);
  if (!bytes) throw HistoryError("store: cannot read '" + path + "'");
  return std::move(*bytes);
}

/// Replays a "snap" header and image into the empty `db`; returns the
/// header's epoch.  Throws `HistoryError` naming `where` when the header is
/// missing (an empty file included) or miscounts the image.
std::uint64_t replay_snapshot(std::string_view text, history::HistoryDb& db,
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
  if (!epoch) throw HistoryError(where + ": snapshot holds no snap record");
  if (db.size() != declared) {
    throw HistoryError(where + ": snapshot declares " +
                       std::to_string(declared) + " instances but holds " +
                       std::to_string(db.size()));
  }
  return *epoch;
}

/// Runs `write`, a write to the store's files, unless `failure` holds an
/// earlier one, which it throws instead; a failure of `write` becomes
/// `failure`.
template <typename Write>
void write_unless_failed(std::optional<HistoryError>& failure,
                         Write&& write) {
  if (failure) throw *failure;
  try {
    write();
  } catch (const HistoryError& e) {
    failure = e;
    throw;
  }
}

}  // namespace

StorePaths::StorePaths(const std::string& dir)
    : schema((fs::path(dir) / "schema.herc").string()),
      snapshot((fs::path(dir) / "snapshot.herc").string()),
      journal((fs::path(dir) / "journal.wal").string()),
      marker((fs::path(dir) / "replica.herc").string()) {}

bool is_replica_store(const std::string& dir) {
  return fs::exists(StorePaths(dir).marker);
}

std::optional<schema::TaskSchema> recorded_schema(const std::string& dir) {
  const std::string path = StorePaths(dir).schema;
  if (!fs::exists(path)) return std::nullopt;
  return schema::parse_schema(read_file(path));
}

Journal write_checkpoint(const StorePaths& paths, std::uint64_t epoch,
                         std::size_t instances, std::string_view image,
                         JournalOptions options) {
  support::RecordWriter meta("snap");
  meta.field(static_cast<std::int64_t>(epoch));
  meta.field(static_cast<std::uint32_t>(instances));
  support::write_file_atomic(paths.snapshot, {meta.str(), "\n", image});
  return Journal::create(paths.journal, epoch, options);
}

DurableHistory::DurableHistory(const schema::TaskSchema& schema,
                               support::Clock& clock, std::string dir,
                               StoreOptions options)
    : schema_(&schema),
      clock_(&clock),
      dir_(std::move(dir)),
      paths_(dir_),
      options_(options) {
  fs::create_directories(dir_);
  const std::string schema_text = schema::write_schema(schema);
  if (fs::exists(paths_.schema)) {
    if (read_file(paths_.schema) != schema_text) {
      throw HistoryError("store '" + dir_ +
                         "': recorded schema differs from the session's; "
                         "open it from a session over the same schema");
    }
  } else {
    support::write_file_atomic(paths_.schema, {schema_text});
    report_.created = true;
  }

  db_ = std::make_unique<history::HistoryDb>(schema, clock);

  if (fs::exists(paths_.snapshot)) {
    epoch_ = replay_snapshot(read_file(paths_.snapshot), *db_,
                             "store '" + dir_ + "'");
    report_.snapshot_instances = db_->size();
  }

  // Journal: replay the tail on top of the snapshot.
  bool need_fresh_journal = true;
  if (fs::exists(paths_.journal)) {
    ScanResult scan = scan_journal(read_file(paths_.journal));
    if (scan.header_valid && scan.epoch == epoch_) {
      for (const std::string& record : scan.records) {
        for (const std::string_view line : support::Lines(record)) {
          db_->apply_saved_line(line);
        }
      }
      report_.journal_records_applied = scan.records.size();
      report_.torn_tail = scan.torn;
      journal_ = Journal::open(paths_.journal, epoch_, scan.valid_bytes,
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
    journal_ = Journal::create(paths_.journal, epoch_, options_.journal);
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
  // A follower's store skips it: its open runs are its leader's live runs,
  // and `herc promote` sweeps them once the follower leads.
  if (!fs::exists(paths_.marker)) {
    const history::HistoryDb::SealSweep sweep =
        db_->seal_open_runs(kCrashSweepReason);
    report_.interrupted_runs = sweep.open;
    report_.quarantined = sweep.quarantined;
  }
  opening_ = false;
}

DurableHistory::DurableHistory(const schema::TaskSchema& schema,
                               support::Clock& clock, std::string dir,
                               StoreOptions options, std::uint64_t epoch,
                               std::string_view image)
    : schema_(&schema),
      clock_(&clock),
      dir_(std::move(dir)),
      paths_(dir_),
      options_(options),
      db_(std::make_unique<history::HistoryDb>(schema, clock)),
      opening_(false) {
  db_->attach_listener(this);
  install(epoch, image);
}

DurableHistory::~DurableHistory() {
  if (db_ == nullptr) return;  // released, and synced then
  db_->attach_listener(nullptr);
  // Best effort, as closing never throws: `release` and `sync` are the
  // calls that report a failed sync to a caller.
  if (options_.journal.sync != SyncPolicy::kNone && !failure_) {
    try {
      journal_->sync();
    } catch (const HistoryError&) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

void DurableHistory::subscribe(history::ChangeSubscriber& subscriber) {
  if (std::ranges::find(subscribers_, &subscriber) != subscribers_.end()) {
    throw HistoryError("store '" + dir_ + "': subscriber already subscribed");
  }
  subscribers_.push_back(&subscriber);
}

void DurableHistory::journal(std::string_view bytes,
                             std::span<const history::Record> records,
                             bool apply) {
  write_unless_failed(failure_, [&] { journal_->append(bytes); });
  ++records_;
  bytes_ += bytes.size();
  ++since_checkpoint_;
  const history::Change change{epoch_, journal_seq_++, records, bytes};
  if (apply) {
    for (const history::Record& record : records) db_->apply_record(record);
  }
  for (history::ChangeSubscriber* subscriber : subscribers_) {
    subscriber->on_change(change);
  }
}

void DurableHistory::on_mutation(std::span<const history::Record> records) {
  std::string bytes;
  for (const history::Record& record : records) history::encode(record, bytes);
  journal(bytes, records, false);
  if (opening_) journal_records_.push_back(std::move(bytes));
  if (options_.checkpoint_every > 0 &&
      since_checkpoint_ >= options_.checkpoint_every) {
    checkpoint();
  }
}

void DurableHistory::apply_frame(std::string_view lines) {
  std::vector<history::Record> records;
  for (const std::string_view line : support::Lines(lines)) {
    if (!support::trim(line).empty()) records.push_back(history::decode(line));
  }
  journal(lines, records, true);
}

void DurableHistory::checkpoint(std::uint64_t epoch) {
  rebase(epoch, db_->save());
}

void DurableHistory::install(std::uint64_t epoch, std::string_view image) {
  history::HistoryDb loaded =
      history::HistoryDb::load(*schema_, *clock_, image);
  fs::create_directories(dir_);
  support::write_file_atomic(paths_.schema, {schema::write_schema(*schema_)});
  rebase(epoch, image, &loaded);
}

void DurableHistory::rebase(std::uint64_t epoch, std::string_view image,
                            history::HistoryDb* replacement) {
  const bool replaced = replacement != nullptr;
  // New contents supersede whatever failed to reach the old ones.
  if (replaced) failure_.reset();
  write_unless_failed(failure_, [&] {
    journal_ = write_checkpoint(paths_, epoch,
                                (replaced ? *replacement : *db_).size(),
                                image, options_.journal);
  });
  // The move keeps this store as the listener.
  if (replaced) *db_ = std::move(*replacement);
  epoch_ = epoch;
  since_checkpoint_ = 0;
  journal_seq_ = 0;
  journal_records_.clear();
  for (history::ChangeSubscriber* subscriber : subscribers_) {
    subscriber->on_rebase(epoch, replaced);
  }
}

std::vector<std::string> DurableHistory::read_journal_records() {
  sync();
  ScanResult scan = scan_journal(read_file(paths_.journal));
  if (!scan.header_valid || scan.epoch != epoch_) {
    throw HistoryError("store '" + dir_ +
                       "': the journal file no longer holds epoch " +
                       std::to_string(epoch_));
  }
  return std::move(scan.records);
}

void DurableHistory::sync() {
  write_unless_failed(failure_, [&] { journal_->sync(); });
}

void DurableHistory::adopt(history::HistoryDb&& seed) {
  if (db_->size() != 0) {
    throw HistoryError("store '" + dir_ +
                       "': refusing to adopt over a non-empty store");
  }
  rebase(epoch_ + 1, seed.save(), &seed);
}

std::unique_ptr<history::HistoryDb> DurableHistory::release() {
  // A failed store can make nothing more durable, and closes quietly.
  if (!failure_) sync();
  db_->attach_listener(nullptr);
  return std::move(db_);
}

}  // namespace herc::storage
