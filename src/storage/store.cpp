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

/// The quarantine comment the crash sweep gives a partial product.
constexpr std::string_view kCrashSweepReason =
    "crash recovery: the producing task never finished";

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

StoreReader::StoreReader(const StorePaths& paths)
    : journal_path_(paths.journal) {
  if (!fs::exists(paths.snapshot)) return;
  snapshot_.emplace(paths.snapshot);
  if (const std::optional<std::string_view> line = next_line()) {
    try {
      support::RecordReader rec(*line);
      if (rec.kind() != "snap") {
        throw HistoryError("first record is '" + std::string(rec.kind()) +
                           "'");
      }
      epoch_ = static_cast<std::uint64_t>(rec.next_int64());
      declared_ = rec.next_uint32();
    } catch (const std::exception& e) {
      findings_.push_back(
          {FsckSeverity::kCorruption, "bad-snapshot-header",
           std::string("snapshot does not start with a valid snap record: ") +
               e.what()});
    }
  } else {
    // A checkpoint never writes a snapshot without its header: opening an
    // empty file as an empty epoch-0 history would drop the whole image.
    findings_.push_back({FsckSeverity::kCorruption, "bad-snapshot-header",
                         "snapshot holds no snap record"});
  }
  // Without its header, no journal can be judged against the snapshot.
  frames_unread_ = !declared_;
}

std::optional<std::string_view> StoreReader::next_line() {
  if (!snapshot_) return std::nullopt;
  while (std::optional<std::string_view> line = snapshot_->line()) {
    if (line->back() == '\n') line->remove_suffix(1);
    if (!support::trim(*line).empty()) return line;
  }
  return std::nullopt;
}

StoreReader::StoreReader(const StorePaths& paths, std::uint64_t epoch)
    : journal_path_(paths.journal), epoch_(epoch) {
  read_journal(0);
}

void StoreReader::read_journal(std::size_t held) {
  // Without the count check, a snapshot that lost its last lines would
  // open short, and the next checkpoint would make the loss legitimate.
  if (declared_ && *declared_ != held) {
    findings_.push_back({FsckSeverity::kCorruption, "snapshot-count-mismatch",
                         "snapshot declares " + std::to_string(*declared_) +
                             " instances but holds " + std::to_string(held)});
  }
  snapshot_.reset();
  if (!fs::exists(journal_path_)) return;
  const std::string bytes = read_file(journal_path_);
  if (bytes.size() < journal_header_bytes(bytes)) {
    // The header is written whole (temp file and rename), so a short file
    // never held a frame.
    if (!bytes.empty()) {
      findings_.push_back({FsckSeverity::kWarning, "torn-journal-tail",
                           "journal holds " + std::to_string(bytes.size()) +
                               " bytes, short of its header (recovery "
                               "starts a fresh journal)"});
    }
    return;
  }
  journal_ = scan_journal(bytes);
  if (!journal_.header_valid) {
    // Discarding would lose every frame after a header this binary cannot
    // read, so the file is left for an operator.
    frames_unread_ = true;
    findings_.push_back(
        {FsckSeverity::kCorruption, "bad-record",
         bytes.starts_with(kJournalMagic)
             ? "journal header epoch fails its checksum"
             : "journal header does not start with the magic '" +
                   std::string(kJournalMagic) + "' or '" +
                   std::string(kJournalMagicV1) + "'"});
  } else if (journal_.epoch < epoch_) {
    findings_.push_back({FsckSeverity::kWarning, "stale-journal-epoch",
                         "journal epoch " + std::to_string(journal_.epoch) +
                             " predates snapshot epoch " +
                             std::to_string(epoch_) + "; " +
                             std::to_string(journal_.records.size()) +
                             " records already absorbed by the snapshot"});
    discarded_ = journal_.records.size();
  } else if (journal_.epoch > epoch_) {
    // A checkpoint orders snapshot-then-journal, so no crash leaves this:
    // the snapshot was replaced or rolled back out from under it.
    frames_unread_ = true;
    findings_.push_back({FsckSeverity::kCorruption, "future-journal-epoch",
                         "journal epoch " + std::to_string(journal_.epoch) +
                             " is ahead of snapshot epoch " +
                             std::to_string(epoch_) +
                             "; the snapshot those records extend is gone"});
  } else {
    extends_ = true;
    if (journal_.torn) {
      findings_.push_back(
          {FsckSeverity::kWarning, "torn-journal-tail",
           "journal ends in a torn frame (recovery truncates it)"});
    }
  }
  if (!extends_) journal_.records.clear();
}

void StoreReader::refuse_corruption(const std::string& dir) const {
  for (const FsckFinding& finding : findings_) {
    if (finding.severity == FsckSeverity::kCorruption) {
      throw HistoryError("store '" + dir + "': " + finding.detail);
    }
  }
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

  // Snapshot, then the journal's tail on top of it, as the reader judges
  // them: refused on a corruption before the journal is touched.
  db_ = std::make_unique<history::HistoryDb>(schema, clock);
  StoreReader reader(paths_);
  reader.refuse_corruption(dir_);
  while (const std::optional<std::string_view> line = reader.next_line()) {
    db_->apply_saved_line(*line);
  }
  report_.snapshot_instances = db_->size();
  reader.read_journal(db_->size());
  reader.refuse_corruption(dir_);
  epoch_ = reader.epoch();
  ScanResult& scan = reader.journal();
  if (reader.extends()) {
    for (const std::string& record : scan.records) {
      for (const std::string_view line : support::Lines(record)) {
        db_->apply_saved_line(line);
      }
    }
    report_.journal_records_applied = scan.records.size();
    report_.torn_tail = scan.torn;
    journal_ = Journal::open(paths_.journal, scan.valid_bytes,
                             options_.journal);
    journal_seq_ = scan.records.size();
    journal_records_ = std::move(scan.records);
  } else {
    report_.journal_records_discarded = reader.discarded();
    journal_ = Journal::create(paths_.journal, epoch_, options_.journal);
  }
  report_.epoch = epoch_;
  db_->attach_listener(this);

  // A follower's store skips the sweep: its open runs are its leader's
  // live runs, and `herc promote` sweeps them once the follower leads.
  if (!fs::exists(paths_.marker)) sweep_interrupted_runs();
  opening_ = false;
}

void DurableHistory::sweep_interrupted_runs() {
  // A run-begin frame without a matching run-end means the process died
  // mid-flow.  Products of tasks that started but never completed a
  // combination are quarantined (journaled through the listener, so the
  // sweep itself is durable); the run stays open for `Executor::resume`.
  // Each interrupted run's window is sealed at the recovered table size:
  // work recorded from here on (new runs, imports, decompose) is not the
  // crashed run's doing, so a later reopen must not sweep it.
  const history::HistoryDb::SealSweep sweep =
      db_->seal_open_runs(kCrashSweepReason);
  report_.interrupted_runs = sweep.open;
  report_.quarantined = sweep.quarantined;
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
  StoreReader reader(paths_, epoch_);
  reader.refuse_corruption(dir_);
  return std::move(reader.journal().records);
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
