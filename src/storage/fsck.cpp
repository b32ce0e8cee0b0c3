#include "storage/fsck.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "data/blob_store.hpp"
#include "index/indexes.hpp"
#include "schema/schema_io.hpp"
#include "schema/task_schema.hpp"
#include "storage/store.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/text.hpp"

namespace herc::storage {

namespace fs = std::filesystem;
using support::HistoryError;

namespace {

const char* severity_label(FsckSeverity s) {
  return s == FsckSeverity::kCorruption ? "corruption"
         : s == FsckSeverity::kWarning  ? "warning"
                                        : "note";
}

}  // namespace

FsckSeverity FsckReport::severity() const {
  FsckSeverity worst = FsckSeverity::kClean;
  for (const FsckFinding& f : findings) {
    if (static_cast<int>(f.severity) > static_cast<int>(worst)) {
      worst = f.severity;
    }
  }
  return worst;
}

bool FsckReport::has(std::string_view code) const {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const FsckFinding& f) { return f.code == code; });
}

std::string FsckReport::render() const {
  std::ostringstream out;
  out << "fsck " << dir << ": epoch " << stats.epoch << ", "
      << stats.instances << " instances, " << stats.blobs << " blobs, "
      << stats.runs << " runs (" << stats.open_runs << " open), "
      << stats.snapshot_records << " snapshot + " << stats.journal_records
      << " journal records\n";
  for (const FsckFinding& f : findings) {
    out << "  ["
        << (f.severity == FsckSeverity::kCorruption ? "corruption"
            : f.severity == FsckSeverity::kWarning  ? "warning"
                                                    : "note")
        << "] " << f.code << ": " << f.detail << "\n";
  }
  for (const std::string& action : repairs) {
    out << "  repair: " << action << "\n";
  }
  const FsckSeverity worst = severity();
  out << "verdict: "
      << (worst == FsckSeverity::kClean        ? "clean"
          : worst == FsckSeverity::kWarning    ? "warnings"
                                               : "CORRUPTION")
      << " (exit " << exit_code() << ")\n";
  return out.str();
}

std::string FsckReport::render_json() const {
  std::ostringstream out;
  out << "{\"dir\":\"" << support::json_escape(dir) << "\",\"stats\":{\"epoch\":"
      << stats.epoch << ",\"snapshot_records\":" << stats.snapshot_records
      << ",\"journal_records\":" << stats.journal_records
      << ",\"instances\":" << stats.instances << ",\"blobs\":" << stats.blobs
      << ",\"runs\":" << stats.runs << ",\"open_runs\":" << stats.open_runs
      << "},\"findings\":[";
  bool first = true;
  for (const FsckFinding& f : findings) {
    if (!first) out << ",";
    first = false;
    out << "{\"severity\":\"" << severity_label(f.severity)
        << "\",\"code\":\"" << support::json_escape(f.code) << "\",\"detail\":\""
        << support::json_escape(f.detail) << "\"}";
  }
  out << "],\"repairs\":[";
  first = true;
  for (const std::string& action : repairs) {
    if (!first) out << ",";
    first = false;
    out << "\"" << support::json_escape(action) << "\"";
  }
  const FsckSeverity worst = severity();
  out << "],\"verdict\":\""
      << (worst == FsckSeverity::kClean     ? "clean"
          : worst == FsckSeverity::kWarning ? "warnings"
                                            : "corruption")
      << "\",\"exit_code\":" << exit_code() << "}\n";
  return out.str();
}

namespace {

std::string read_file(const std::string& path) {
  std::optional<std::string> bytes = support::read_file(path);
  if (!bytes) throw HistoryError("fsck: cannot read '" + path + "'");
  return std::move(*bytes);
}

/// The store as ingested: every decoded record folded the way recovery
/// folds it, but leniently, so one defect never hides the rest.
struct Audit {
  /// Blobs in first-seen order (the order `HistoryDb::save` writes them).
  std::vector<history::BlobRecord> blobs;
  std::unordered_map<std::string, std::size_t> blob_index;
  std::vector<history::InstanceRecord> instances;
  std::vector<history::RunRecord> runs;
  /// Records that failed to decode or were refused outright, dropped from
  /// any repair image.
  std::size_t dropped_records = 0;
};

/// Repair verdicts for one instance, filled by the audit passes.
struct Verdict {
  bool tombstone = false;
  std::string tombstone_reason;
  bool quarantine = false;
};

void warn(FsckReport& report, std::string code, std::string detail) {
  report.findings.push_back(FsckFinding{FsckSeverity::kWarning,
                                        std::move(code), std::move(detail)});
}

void corrupt(FsckReport& report, std::string code, std::string detail) {
  report.findings.push_back(FsckFinding{
      FsckSeverity::kCorruption, std::move(code), std::move(detail)});
}

/// A clean-severity finding: reported for visibility, never raises the
/// exit code.
void note(FsckReport& report, std::string code, std::string detail) {
  report.findings.push_back(FsckFinding{FsckSeverity::kClean,
                                        std::move(code), std::move(detail)});
}

/// Folds one decoded record into the audit.  An annotation or quarantine
/// of an unknown instance becomes a finding, a run-log record replay
/// refuses throws `HistoryError`; reference checks are deferred to the
/// audit passes so one defect never hides the rest.
class Ingest {
 public:
  Ingest(Audit& audit, FsckReport& report, const std::string& origin)
      : audit_(audit), report_(report), origin_(origin) {}

  void operator()(history::BlobRecord&& blob) {
    if (audit_.blob_index.contains(blob.key)) return;
    audit_.blob_index.emplace(blob.key, audit_.blobs.size());
    audit_.blobs.push_back(std::move(blob));
  }
  void operator()(history::InstanceRecord&& inst) {
    audit_.instances.push_back(std::move(inst));
  }
  void operator()(history::AnnotateRecord&& annot) {
    history::InstanceRecord* inst = instance(annot.id, "annotation");
    if (inst == nullptr) return;
    inst->name = std::move(annot.name);
    inst->comment = std::move(annot.comment);
  }
  void operator()(history::QuarantineRecord&& quar) {
    history::InstanceRecord* inst = instance(quar.id, "quarantine");
    if (inst == nullptr) return;
    if (inst->status != history::InstanceStatus::kOk) {
      corrupt(report_, "bad-record",
              origin_ + ": quarantine of non-OK instance i" +
                  std::to_string(quar.id.value()));
      return;
    }
    inst->status = history::InstanceStatus::kQuarantined;
    if (!inst->comment.empty()) inst->comment += ' ';
    inst->comment += "[quarantined: " + quar.reason + "]";
  }
  /// The run log folds by the rules replay applies, so a run-log record
  /// replay refuses throws here too.
  template <class R>
  void operator()(R&& r) {
    history::fold(audit_.runs, std::forward<R>(r));
  }

 private:
  history::InstanceRecord* instance(data::InstanceId id, const char* what) {
    if (id.index() < audit_.instances.size()) {
      return &audit_.instances[id.index()];
    }
    corrupt(report_, "dangling-reference",
            origin_ + ": " + what + " targets unknown instance i" +
                std::to_string(id.value()));
    return nullptr;
  }
  Audit& audit_;
  FsckReport& report_;
  const std::string& origin_;
};

/// The reference/coverage audit passes over the ingested state; returns
/// each instance's repair verdict.
std::vector<Verdict> audit_store(const Audit& audit, FsckReport& report,
                                 const schema::TaskSchema* schema,
                                 bool replica) {
  std::vector<Verdict> verdicts(audit.instances.size());
  // Blob content hashes: a mismatched payload would be rejected by
  // `BlobStore::restore` on the next recovery, making the store unopenable.
  std::unordered_set<std::string> bad_blobs;
  for (const history::BlobRecord& blob : audit.blobs) {
    const data::BlobKey actual = data::BlobStore::key_for(blob.payload);
    if (actual != blob.key) {
      corrupt(report, "blob-hash-mismatch",
              "blob '" + blob.key + "' payload hashes to '" + actual + "'");
      bad_blobs.insert(blob.key);
    }
  }

  // Instance table: dense ids, known entities, valid blob and derivation
  // references (a reference must point at an *earlier* instance).
  for (std::size_t i = 0; i < audit.instances.size(); ++i) {
    const history::InstanceRecord& inst = audit.instances[i];
    Verdict& verdict = verdicts[i];
    const std::string label = "instance i" + std::to_string(inst.id.value());
    if (inst.id.index() != i) {
      corrupt(report, "out-of-order-instance",
              label + " sits at table position " + std::to_string(i));
    }
    if (schema != nullptr && !schema->find(inst.type).valid()) {
      corrupt(report, "unknown-entity",
              label + " is typed by unknown entity '" + inst.type + "'");
    }
    if (!audit.blob_index.contains(inst.blob)) {
      corrupt(report, "missing-blob",
              label + " references missing blob '" + inst.blob + "'");
      verdict.tombstone = true;
      verdict.tombstone_reason = "missing blob";
    } else if (bad_blobs.contains(inst.blob)) {
      verdict.tombstone = true;
      verdict.tombstone_reason = "blob hash mismatch";
    }
    const auto check_ref = [&](data::InstanceId ref, const char* what) {
      if (ref.index() < i && ref.value() <= inst.id.value()) return;
      corrupt(report, "dangling-reference",
              label + " " + what + " references " +
                  (ref.index() >= audit.instances.size() ? "unknown"
                                                         : "a later") +
                  " instance i" + std::to_string(ref.value()));
      verdict.tombstone = true;
      if (verdict.tombstone_reason.empty()) {
        verdict.tombstone_reason = "dangling derivation reference";
      }
    };
    if (inst.derivation.tool.valid()) {
      check_ref(inst.derivation.tool, "derivation tool");
    }
    for (const data::InstanceId in : inst.derivation.inputs) {
      check_ref(in, "derivation input");
    }
  }

  // Orphan blobs: referenced by no instance.  Survivable (recovery loads
  // them fine) but dead weight a checkpoint never sheds on its own.
  std::unordered_set<std::string> referenced;
  for (const history::InstanceRecord& inst : audit.instances) {
    referenced.insert(inst.blob);
  }
  for (const history::BlobRecord& blob : audit.blobs) {
    if (!referenced.contains(blob.key)) {
      warn(report, "orphan-blob",
           "blob '" + blob.key + "' (" + std::to_string(blob.payload.size()) +
               " bytes) is referenced by no instance");
    }
  }

  // Run log: interrupted runs and their uncovered (partial) products.
  for (const history::RunRecord& run : audit.runs) {
    for (const data::InstanceId id : run.covered) {
      if (id.index() >= audit.instances.size()) {
        corrupt(report, "dangling-reference",
                "run #" + std::to_string(run.id) +
                    " covers unknown instance i" + std::to_string(id.value()));
      }
    }
  }
  // The partial sweep is recovery's own rule, so repair quarantines what
  // the next open would, and never valid work recorded after the crash.
  // It runs first: an open run's verdict depends on whether its window
  // still holds unquarantined partials.
  std::unordered_set<std::uint64_t> dirty_runs;
  for (const history::PartialProduct& partial :
       history::partial_products(audit.runs, audit.instances)) {
    warn(report, "unquarantined-partial",
         "instance i" +
             std::to_string(audit.instances[partial.index].id.value()) +
             " was produced by an unfinished task of an interrupted "
             "run but is not quarantined");
    verdicts[partial.index].quarantine = true;
    dirty_runs.insert(audit.runs[partial.run].id);
  }
  for (const history::RunRecord& run : audit.runs) {
    if (!run.open()) continue;
    const std::string progress =
        "run #" + std::to_string(run.id) + " (flow '" + run.flow_name +
        "') never ended: " + std::to_string(run.tasks_finished()) + "/" +
        std::to_string(run.tasks.size()) + " started tasks finished";
    // On a replica, an open run is the *leader's* live run streaming in —
    // expected mid-flight state, not an interruption.  Promotion is what
    // turns it into a crash to recover from.
    if (replica) {
      note(report, "leader-open-run",
           progress + "; the leader's live run, sealed on promote");
      continue;
    }
    // A sealed open run whose window holds no unquarantined partials is
    // the state an interruption sweep (crash recovery, graceful server
    // shutdown) deliberately leaves behind: consistent and resumable, not
    // a defect.  Unsealed, or sealed with unswept partials, the store
    // still needs recovery — that stays a warning.
    if (run.sealed() && !dirty_runs.contains(run.id)) {
      note(report, "resumable-run",
           progress + "; sealed and swept, resumable as-is");
    } else {
      warn(report, "interrupted-run", progress + "; resumable");
    }
  }
  return verdicts;
}

/// The index a rebuild over `instances` would produce — the *minimal*
/// contents any valid index file must contain for that table.
index::IndexImage index_from_instances(
    const std::vector<history::InstanceRecord>& instances) {
  index::IndexImage img;
  for (const history::InstanceRecord& inst : instances) {
    img.add_instance(inst.id.value(), inst.type, inst.name, inst.user,
                     inst.created.micros(), inst.comment, inst.derivation.tool,
                     inst.derivation.inputs);
  }
  return img;
}

/// Cross-checks the persisted index (`file`, stamped at some journal seq)
/// against the ingested history, in both directions: every posting a
/// rebuild at that seq would produce must be present ("missing-posting" —
/// a lossy index silently drops rows from listings), and every posting in
/// the file must be justified by *some* history record ("orphan-index" —
/// fabricated entries).  `at_seq` is the instance table as of the file's
/// seq; `all` accumulates every posting that was ever legitimate, because
/// annotation replacement intentionally leaves once-valid postings behind
/// (the planner re-verifies candidates, so supersets are correct).
void audit_index(const index::IndexImage& file, const index::IndexImage& all,
                 const std::vector<history::InstanceRecord>& at_seq,
                 FsckReport& report) {
  const index::IndexImage minimal = index_from_instances(at_seq);
  constexpr std::size_t kMaxDetails = 5;

  std::size_t missing = 0;
  const auto miss = [&](const std::string& detail) {
    if (missing++ < kMaxDetails) warn(report, "missing-posting", detail);
  };
  for (std::uint32_t tid = 0; tid < minimal.tokens.size(); ++tid) {
    const std::string_view token = minimal.tokens.text(tid);
    const std::optional<std::uint32_t> in_file = file.tokens.find(token);
    for (const std::uint32_t id : minimal.postings[tid]) {
      if (!in_file ||
          !std::ranges::binary_search(file.postings[*in_file], id)) {
        miss("keyword token '" + std::string(token) + "' lacks i" +
             std::to_string(id));
      }
    }
  }
  for (const auto& [user, ids] : minimal.users) {
    const auto it = file.users.find(user);
    for (const std::uint32_t id : ids) {
      if (it == file.users.end() ||
          !std::binary_search(it->second.begin(), it->second.end(), id)) {
        miss("user '" + user + "' posting lacks i" + std::to_string(id));
      }
    }
  }
  for (const auto& [type, entries] : minimal.by_type) {
    const auto it = file.by_type.find(type);
    for (const auto& entry : entries) {
      if (it == file.by_type.end() ||
          !std::binary_search(it->second.begin(), it->second.end(), entry)) {
        miss("type '" + type + "' creation list lacks i" +
             std::to_string(entry.second));
      }
    }
  }
  if (missing > kMaxDetails) {
    warn(report, "missing-posting",
         std::to_string(missing) + " postings missing in total");
  }

  std::size_t orphan = 0;
  const auto stray = [&](const std::string& detail) {
    if (orphan++ < kMaxDetails) warn(report, "orphan-index", detail);
  };
  for (std::uint32_t tid = 0; tid < file.tokens.size(); ++tid) {
    const std::string_view token = file.tokens.text(tid);
    const std::optional<std::uint32_t> in_all = all.tokens.find(token);
    for (const std::uint32_t id : file.postings[tid]) {
      if (!in_all || !std::ranges::binary_search(all.postings[*in_all], id)) {
        stray("keyword token '" + std::string(token) + "' posts i" +
              std::to_string(id) + ", which no history record justifies");
      }
    }
  }
  for (const auto& [user, ids] : file.users) {
    const auto it = all.users.find(user);
    for (const std::uint32_t id : ids) {
      if (it == all.users.end() ||
          !std::binary_search(it->second.begin(), it->second.end(), id)) {
        stray("user '" + user + "' posts i" + std::to_string(id) +
              ", which no history record justifies");
      }
    }
  }
  for (const auto& [type, entries] : file.by_type) {
    const auto it = all.by_type.find(type);
    for (const auto& entry : entries) {
      if (it == all.by_type.end() ||
          !std::binary_search(it->second.begin(), it->second.end(), entry)) {
        stray("type '" + type + "' lists i" + std::to_string(entry.second) +
              ", which no history record justifies");
      }
    }
  }
  if (orphan > kMaxDetails) {
    warn(report, "orphan-index",
         std::to_string(orphan) + " orphan postings in total");
  }

  if (file.instances != minimal.instances) {
    warn(report, "stale-index-epoch",
         "indexes.herc describes " + std::to_string(file.instances) +
             " instances but the store held " +
             std::to_string(minimal.instances) + " at journal seq " +
             std::to_string(file.seq) + "; recovery rebuilds the index");
  }
  if (file.edges != minimal.edges ||
      file.adjacency_digest != minimal.adjacency_digest) {
    warn(report, "index-adjacency-mismatch",
         "derivation-adjacency digest differs (file holds " +
             std::to_string(file.edges) + " edge(s), the history implies " +
             std::to_string(minimal.edges) +
             "); recovery rebuilds the index");
  }
}

/// The (possibly repaired) audit state as a `HistoryDb::save` image.
std::string serialize_image(const Audit& audit,
                            const std::unordered_set<std::string>& keep_blobs) {
  std::string out;
  for (const history::BlobRecord& blob : audit.blobs) {
    if (keep_blobs.contains(blob.key)) history::encode(blob, out);
  }
  for (const history::InstanceRecord& inst : audit.instances) {
    history::encode(inst, out);
  }
  for (const history::RunRecord& run : audit.runs) run.save_to(out);
  return out;
}

/// Applies the repair verdicts and checkpoints the cleaned image under the
/// next epoch with a fresh journal — unless the image does not load over
/// `schema`, in which case nothing is written and a "repair-refused"
/// finding names the error.  Returns true when the checkpoint was written.
bool repair_store(Audit& audit, const std::vector<Verdict>& verdicts,
                  FsckReport& report, const StorePaths& paths,
                  const schema::TaskSchema* schema) {
  std::vector<std::string> actions;
  const std::string empty_key = data::BlobStore::key_for("");
  bool need_empty_blob = false;
  for (std::size_t i = 0; i < audit.instances.size(); ++i) {
    history::InstanceRecord& inst = audit.instances[i];
    const std::string id = std::to_string(inst.id.value());
    if (verdicts[i].tombstone) {
      // Keep the id slot (later references stay valid) but drop everything
      // untrustworthy: payload, derivation, OK status.
      if (inst.status == history::InstanceStatus::kOk) {
        inst.status = history::InstanceStatus::kQuarantined;
      }
      inst.blob = empty_key;
      inst.derivation.tool = data::InstanceId();
      inst.derivation.inputs.clear();
      inst.derivation.input_roles.clear();
      need_empty_blob = true;
      if (!inst.comment.empty()) inst.comment += ' ';
      inst.comment +=
          "[fsck: tombstoned — " + verdicts[i].tombstone_reason + "]";
      actions.push_back("tombstoned i" + id + " (" +
                        verdicts[i].tombstone_reason + ")");
    } else if (verdicts[i].quarantine &&
               inst.status == history::InstanceStatus::kOk) {
      inst.status = history::InstanceStatus::kQuarantined;
      if (!inst.comment.empty()) inst.comment += ' ';
      inst.comment += "[quarantined: fsck repair — producing task of an "
                      "interrupted run never finished]";
      actions.push_back("quarantined partial product i" + id);
    }
  }
  if (need_empty_blob && !audit.blob_index.contains(empty_key)) {
    audit.blob_index.emplace(empty_key, audit.blobs.size());
    audit.blobs.push_back(history::BlobRecord{empty_key, ""});
  }

  // Drop covered ids that point outside the table (their frames were
  // corrupt); the instances they would have covered no longer exist.
  for (history::RunRecord& run : audit.runs) {
    std::erase_if(run.covered, [&](data::InstanceId id) {
      return id.index() >= audit.instances.size();
    });
  }

  // Orphan sweep over the post-tombstone reference set.
  std::unordered_set<std::string> keep;
  for (const history::InstanceRecord& inst : audit.instances) {
    keep.insert(inst.blob);
  }
  std::size_t swept = 0;
  for (const history::BlobRecord& blob : audit.blobs) {
    if (!keep.contains(blob.key)) ++swept;
  }
  if (swept > 0) {
    actions.push_back("swept " + std::to_string(swept) + " orphan blob(s)");
  }
  if (audit.dropped_records > 0) {
    actions.push_back("dropped " + std::to_string(audit.dropped_records) +
                      " unreadable record(s)");
  }

  // The image replaces the only snapshot, so it must open: load it the
  // way recovery would before writing anything.
  const std::string image = serialize_image(audit, keep);
  try {
    if (schema == nullptr) {
      throw HistoryError("schema.herc does not parse");
    }
    support::ManualClock clock;
    (void)history::HistoryDb::load(*schema, clock, image);
  } catch (const std::exception& e) {
    corrupt(report, "repair-refused",
            std::string("the repaired image would not open (") + e.what() +
                "); nothing was written");
    return false;
  }

  const std::uint64_t next_epoch = report.stats.epoch + 1;
  (void)write_checkpoint(paths, next_epoch, audit.instances.size(), image,
                         JournalOptions{});
  report.repairs.insert(report.repairs.end(), actions.begin(), actions.end());
  report.repairs.push_back("checkpointed repaired image at epoch " +
                           std::to_string(next_epoch));
  return true;
}

}  // namespace

FsckReport fsck_store(const std::string& dir, const FsckOptions& options) {
  FsckReport report;
  report.dir = dir;
  const StorePaths paths(dir);
  if (!fs::exists(paths.schema)) {
    throw HistoryError("fsck: '" + dir + "' does not hold a store (no " +
                       "schema.herc)");
  }

  // A replica marker changes the audit's reading of open runs (they are
  // the leader's live runs) and rules out repair: a repair checkpoint
  // would bump the epoch out from under the replication stream.
  const bool replica = fs::exists(paths.marker);
  if (replica) {
    std::string marker;
    try {
      marker = std::string(support::trim(read_file(paths.marker)));
    } catch (const std::exception&) {
    }
    note(report, "replica-store",
         marker.empty() ? "this store is a read replica" : marker);
  }

  // Schema: needed only for entity-name checks; a broken schema is itself
  // corruption but must not stop the audit.
  schema::TaskSchema schema;
  const schema::TaskSchema* schema_ptr = nullptr;
  try {
    schema = schema::parse_schema(read_file(paths.schema));
    schema_ptr = &schema;
  } catch (const std::exception& e) {
    corrupt(report, "bad-schema",
            std::string("schema.herc does not parse: ") + e.what());
  }

  Audit audit;

  // Secondary indexes: parse `indexes.herc` up front — its journal seq
  // decides where the point-in-time comparison image is captured during
  // ingest below.  A file that fails its own checksum is only a warning:
  // recovery never trusts a skewed index, it rebuilds.
  const std::string index_path = index::HistoryIndexes::file_path(dir);
  index::IndexImage index_file;
  bool index_usable = false;
  if (fs::exists(index_path)) {
    std::string error;
    if (index::IndexImage::parse(read_file(index_path), index_file, error)) {
      index_usable = true;
    } else {
      warn(report, "index-unreadable",
           "indexes.herc: " + error + "; recovery rebuilds the index");
    }
  }
  index::IndexImage index_all;  // every posting ever legitimate
  std::vector<history::InstanceRecord> at_index_seq;
  bool at_index_seq_valid = false;
  // Every line goes through the store's own decoder: a line recovery
  // would refuse is a "bad-record" here, dropped from any repair image.
  const auto ingest = [&](std::string_view line, const std::string& origin) {
    try {
      history::Record record = history::decode(line);
      index_all.fold(record);
      std::visit(Ingest(audit, report, origin), std::move(record));
    } catch (const std::exception& e) {
      corrupt(report, "bad-record", origin + ": " + e.what());
      ++audit.dropped_records;
    }
  };

  // Snapshot and journal, judged by the store's own reader: each finding
  // is what the next open refuses or acts on.
  StoreReader reader(paths);
  report.stats.epoch = reader.epoch();
  while (const std::optional<std::string_view> line = reader.next_line()) {
    ingest(*line, "snapshot");
    ++report.stats.snapshot_records;
  }

  const bool index_epoch_ok =
      index_usable && index_file.epoch == report.stats.epoch;
  if (index_epoch_ok && index_file.seq == 0) {
    at_index_seq = audit.instances;
    at_index_seq_valid = true;
  }

  // Journal: the frames that extend the snapshot.
  reader.read_journal(audit.instances.size());
  report.findings.insert(report.findings.end(), reader.findings().begin(),
                         reader.findings().end());
  const std::vector<std::string>& records = reader.journal().records;
  for (std::size_t seq = 0; seq < records.size(); ++seq) {
    for (const std::string_view line : support::Lines(records[seq])) {
      if (support::trim(line).empty()) continue;
      ingest(line, "journal");
    }
    if (index_epoch_ok && index_file.seq == seq + 1) {
      at_index_seq = audit.instances;
      at_index_seq_valid = true;
    }
  }
  report.stats.journal_records = records.size();

  const std::vector<Verdict> verdicts =
      audit_store(audit, report, schema_ptr, replica);

  if (index_usable) {
    if (!index_epoch_ok) {
      warn(report, "stale-index-epoch",
           "indexes.herc is stamped epoch " +
               std::to_string(index_file.epoch) +
               " but the store is at epoch " +
               std::to_string(report.stats.epoch) +
               "; recovery rebuilds the index");
    } else if (!at_index_seq_valid) {
      warn(report, "stale-index-epoch",
           "indexes.herc is stamped journal seq " +
               std::to_string(index_file.seq) +
               " but the journal holds only " +
               std::to_string(report.stats.journal_records) +
               " record(s); recovery rebuilds the index");
    } else {
      audit_index(index_file, index_all, at_index_seq, report);
    }
  }

  report.stats.instances = audit.instances.size();
  report.stats.blobs = audit.blobs.size();
  report.stats.runs = audit.runs.size();
  for (const history::RunRecord& run : audit.runs) {
    if (run.open()) ++report.stats.open_runs;
  }

  // Clean-severity notes (a sealed resumable run) need no repair; rewriting
  // the snapshot for them would churn the epoch for nothing.
  if (options.repair && report.severity() != FsckSeverity::kClean) {
    if (replica) {
      warn(report, "replica-no-repair",
           "refusing --repair on a replica store: a repair checkpoint would"
           " bump the epoch out from under the replication stream; resync"
           " the replica or promote it first");
    } else if (reader.frames_unread()) {
      corrupt(report, "repair-refused",
              "the journal may hold frames this audit could not read, and a "
              "repair checkpoint would replace it; nothing was written");
    } else if (repair_store(audit, verdicts, report, paths, schema_ptr)) {
      // The repair checkpoint bumped the epoch; rewrite the index from the
      // repaired image so the next open loads warm instead of detecting
      // skew and rebuilding cold.
      index::IndexImage fresh = index_from_instances(audit.instances);
      fresh.epoch = report.stats.epoch + 1;
      fresh.seq = 0;
      support::write_file_atomic(index_path, {fresh.serialize()});
      report.repairs.push_back("rebuilt secondary indexes at epoch " +
                               std::to_string(report.stats.epoch + 1));
    }
  }
  return report;
}

}  // namespace herc::storage
