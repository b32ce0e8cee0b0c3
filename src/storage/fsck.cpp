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
#include "storage/journal.hpp"
#include "storage/store.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

namespace herc::storage {

namespace fs = std::filesystem;
using support::HistoryError;

namespace {

/// Minimal JSON string escaping (findings carry free-text details).
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

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
  out << "{\"dir\":\"" << json_escape(dir) << "\",\"stats\":{\"epoch\":"
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
        << "\",\"code\":\"" << json_escape(f.code) << "\",\"detail\":\""
        << json_escape(f.detail) << "\"}";
  }
  out << "],\"repairs\":[";
  first = true;
  for (const std::string& action : repairs) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(action) << "\"";
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

/// Leniently parsed mirror of a history instance: everything needed to
/// audit references and to re-serialize a repaired image.
struct AuditInstance {
  std::uint32_t id = 0;
  std::string type;
  std::string name;
  std::string user;
  std::int64_t created = 0;
  std::string comment;
  std::string blob;
  std::uint32_t version = 1;
  std::uint32_t status = 0;
  std::string task;
  std::int64_t tool = -1;
  std::vector<std::pair<std::int64_t, std::string>> inputs;
  /// Repair verdicts filled by the audit passes.
  bool tombstone = false;
  std::string tombstone_reason;
  bool quarantine = false;
};

struct AuditTask {
  std::string key;
  bool finished = false;
  std::string status;
};

struct AuditRun {
  std::uint64_t id = 0;
  std::string flow_name;
  std::string goal;
  std::int64_t goal_node = -1;
  std::string user;
  std::string options;
  std::int64_t seed = 0;
  std::uint32_t db_size = 0;
  std::string flow_text;
  std::string outcome;
  std::vector<AuditTask> tasks;
  std::vector<std::int64_t> covered;
  /// Partial-product sweep window end (recovery's seal); -1 = unsealed.
  std::int64_t sweep_end = -1;
};

struct Audit {
  /// Blobs in first-seen order (the order `BlobStore::save` preserves).
  std::vector<std::pair<std::string, std::string>> blobs;
  std::unordered_map<std::string, std::size_t> blob_index;
  std::vector<AuditInstance> instances;
  std::vector<AuditRun> runs;
  /// Lines that failed to parse at all, dropped from any repair image.
  std::size_t dropped_records = 0;
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

AuditRun* find_audit_run(Audit& audit, std::uint64_t id) {
  for (AuditRun& run : audit.runs) {
    if (run.id == id) return &run;
  }
  return nullptr;
}

/// Ingests one record line.  Structural parse failures become "bad-record"
/// corruption findings; reference checks are deferred to the audit passes
/// so one defect never hides the rest.
void ingest_line(Audit& audit, FsckReport& report, std::string_view line,
                 const std::string& origin) {
  try {
    support::RecordReader rec(line);
    if (rec.kind() == "blob") {
      const std::string key = rec.next_string();
      std::string payload = rec.next_string();
      if (!audit.blob_index.contains(key)) {
        audit.blob_index.emplace(key, audit.blobs.size());
        audit.blobs.emplace_back(key, std::move(payload));
      }
    } else if (rec.kind() == "inst") {
      AuditInstance inst;
      inst.id = rec.next_uint32();
      inst.type = rec.next_string();
      inst.name = rec.next_string();
      inst.user = rec.next_string();
      inst.created = rec.next_int64();
      inst.comment = rec.next_string();
      inst.blob = rec.next_string();
      inst.version = rec.next_uint32();
      inst.status = rec.next_uint32();
      inst.task = rec.next_string();
      inst.tool = rec.next_int64();
      const std::uint32_t n_inputs = rec.next_uint32();
      for (std::uint32_t i = 0; i < n_inputs; ++i) {
        const std::int64_t in = rec.next_int64();
        inst.inputs.emplace_back(in, rec.next_string());
      }
      if (inst.status > 3) {
        corrupt(report, "bad-record",
                origin + ": instance i" + std::to_string(inst.id) +
                    " has unknown status " + std::to_string(inst.status));
        ++audit.dropped_records;
        return;
      }
      audit.instances.push_back(std::move(inst));
    } else if (rec.kind() == "annot") {
      const std::uint32_t id = rec.next_uint32();
      std::string name = rec.next_string();
      std::string comment = rec.next_string();
      if (id >= audit.instances.size()) {
        corrupt(report, "dangling-reference",
                origin + ": annotation targets unknown instance i" +
                    std::to_string(id));
        return;
      }
      audit.instances[id].name = std::move(name);
      audit.instances[id].comment = std::move(comment);
    } else if (rec.kind() == "runb") {
      AuditRun run;
      run.id = static_cast<std::uint64_t>(rec.next_int64());
      run.flow_name = rec.next_string();
      run.goal = rec.next_string();
      run.goal_node = rec.next_int64();
      run.user = rec.next_string();
      run.options = rec.next_string();
      run.seed = rec.next_int64();
      run.db_size = rec.next_uint32();
      run.flow_text = rec.next_string();
      if (run.id != audit.runs.size()) {
        corrupt(report, "bad-record",
                origin + ": run records out of order (run #" +
                    std::to_string(run.id) + ")");
        ++audit.dropped_records;
        return;
      }
      audit.runs.push_back(std::move(run));
    } else if (rec.kind() == "tstart" || rec.kind() == "tcover" ||
               rec.kind() == "tfin" || rec.kind() == "runseal" ||
               rec.kind() == "rune") {
      const std::string kind(rec.kind());
      const auto id = static_cast<std::uint64_t>(rec.next_int64());
      AuditRun* run = find_audit_run(audit, id);
      if (run == nullptr) {
        corrupt(report, "dangling-reference",
                origin + ": '" + kind + "' frame targets unknown run #" +
                    std::to_string(id));
        return;
      }
      if (kind == "tstart") {
        run->tasks.push_back(AuditTask{rec.next_string(), false, ""});
      } else if (kind == "tcover") {
        const std::uint32_t count = rec.next_uint32();
        for (std::uint32_t i = 0; i < count; ++i) {
          run->covered.push_back(rec.next_int64());
        }
      } else if (kind == "tfin") {
        const std::string key = rec.next_string();
        std::string status = rec.next_string();
        bool found = false;
        for (AuditTask& task : run->tasks) {
          if (!task.finished && task.key == key) {
            task.finished = true;
            task.status = std::move(status);
            found = true;
            break;
          }
        }
        if (!found) {
          corrupt(report, "bad-record",
                  origin + ": run #" + std::to_string(id) + " task '" + key +
                      "' finished without starting");
        }
      } else if (kind == "runseal") {
        run->sweep_end = rec.next_int64();
      } else {  // rune
        std::string outcome = rec.next_string();
        if (!run->outcome.empty()) {
          corrupt(report, "bad-record",
                  origin + ": run #" + std::to_string(id) + " ended twice");
          return;
        }
        run->outcome = std::move(outcome);
        run->flow_text.clear();
      }
    } else if (rec.kind() == "quar") {
      const std::uint32_t id = rec.next_uint32();
      const std::string reason = rec.next_string();
      if (id >= audit.instances.size()) {
        corrupt(report, "dangling-reference",
                origin + ": quarantine targets unknown instance i" +
                    std::to_string(id));
        return;
      }
      AuditInstance& inst = audit.instances[id];
      if (inst.status != 0) {
        corrupt(report, "bad-record",
                origin + ": quarantine of non-OK instance i" +
                    std::to_string(id));
        return;
      }
      inst.status = 3;
      if (!inst.comment.empty()) inst.comment += ' ';
      inst.comment += "[quarantined: " + reason + "]";
    } else {
      corrupt(report, "bad-record",
              origin + ": unknown record kind '" + std::string(rec.kind()) +
                  "'");
      ++audit.dropped_records;
    }
  } catch (const std::exception& e) {
    corrupt(report, "bad-record", origin + ": " + e.what());
    ++audit.dropped_records;
  }
}

/// The reference/coverage audit passes over the ingested state.
void audit_store(Audit& audit, FsckReport& report,
                 const schema::TaskSchema* schema, bool replica) {
  // Blob content hashes: a mismatched payload would be rejected by
  // `BlobStore::restore` on the next recovery, making the store unopenable.
  std::unordered_set<std::string> bad_blobs;
  for (const auto& [key, payload] : audit.blobs) {
    if (data::BlobStore::key_for(payload) != key) {
      corrupt(report, "blob-hash-mismatch",
              "blob '" + key + "' payload hashes to '" +
                  data::BlobStore::key_for(payload) + "'");
      bad_blobs.insert(key);
    }
  }

  // Instance table: dense ids, known entities, valid blob and derivation
  // references (a reference must point at an *earlier* instance).
  for (std::size_t i = 0; i < audit.instances.size(); ++i) {
    AuditInstance& inst = audit.instances[i];
    const std::string label = "instance i" + std::to_string(inst.id);
    if (inst.id != i) {
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
      inst.tombstone = true;
      inst.tombstone_reason = "missing blob";
    } else if (bad_blobs.contains(inst.blob)) {
      inst.tombstone = true;
      inst.tombstone_reason = "blob hash mismatch";
    }
    const auto check_ref = [&](std::int64_t ref, const char* what) {
      if (ref < 0) return;
      if (static_cast<std::size_t>(ref) >= i || ref > inst.id) {
        corrupt(report, "dangling-reference",
                label + " " + what + " references " +
                    (static_cast<std::size_t>(ref) >= audit.instances.size()
                         ? "unknown"
                         : "a later") +
                    " instance i" + std::to_string(ref));
        inst.tombstone = true;
        if (inst.tombstone_reason.empty()) {
          inst.tombstone_reason = "dangling derivation reference";
        }
      }
    };
    check_ref(inst.tool, "derivation tool");
    for (const auto& [in, role] : inst.inputs) {
      check_ref(in, "derivation input");
    }
  }

  // Orphan blobs: referenced by no instance.  Survivable (recovery loads
  // them fine) but dead weight a checkpoint never sheds on its own.
  std::unordered_set<std::string> referenced;
  for (const AuditInstance& inst : audit.instances) {
    referenced.insert(inst.blob);
  }
  for (const auto& [key, payload] : audit.blobs) {
    if (!referenced.contains(key)) {
      warn(report, "orphan-blob",
           "blob '" + key + "' (" + std::to_string(payload.size()) +
               " bytes) is referenced by no instance");
    }
  }

  // Run log: interrupted runs and their uncovered (partial) products.
  // Coverage unions over ALL runs (closed runs keep their lists), and the
  // sweep is confined to each open run's own window — mirroring
  // `HistoryDb::partial_products`, so repair never quarantines valid work
  // recorded after the crash.
  std::unordered_set<std::int64_t> covered;
  for (const AuditRun& run : audit.runs) {
    for (const std::int64_t id : run.covered) {
      if (id < 0 || static_cast<std::size_t>(id) >= audit.instances.size()) {
        corrupt(report, "dangling-reference",
                "run #" + std::to_string(run.id) +
                    " covers unknown instance i" + std::to_string(id));
      }
      covered.insert(id);
    }
  }
  // The partial sweep runs first: an open run's verdict depends on whether
  // its window still holds unquarantined partials.
  std::unordered_set<std::uint64_t> dirty_runs;
  for (std::size_t r = 0; r < audit.runs.size(); ++r) {
    const AuditRun& run = audit.runs[r];
    if (!run.outcome.empty()) continue;
    std::size_t end = run.sweep_end >= 0
                          ? static_cast<std::size_t>(run.sweep_end)
                          : audit.instances.size();
    if (r + 1 < audit.runs.size()) {
      end = std::min<std::size_t>(end, audit.runs[r + 1].db_size);
    }
    end = std::min(end, audit.instances.size());
    for (std::size_t i = run.db_size; i < end; ++i) {
      AuditInstance& inst = audit.instances[i];
      const bool is_import = inst.tool < 0 && inst.inputs.empty();
      if (inst.status != 0 || is_import || inst.quarantine) continue;
      if (!covered.contains(static_cast<std::int64_t>(inst.id))) {
        warn(report, "unquarantined-partial",
             "instance i" + std::to_string(inst.id) +
                 " was produced by an unfinished task of an interrupted "
                 "run but is not quarantined");
        inst.quarantine = true;
        dirty_runs.insert(run.id);
      }
    }
  }
  for (const AuditRun& run : audit.runs) {
    if (!run.outcome.empty()) continue;
    std::size_t finished = 0;
    for (const AuditTask& task : run.tasks) {
      if (task.finished) ++finished;
    }
    const std::string progress =
        "run #" + std::to_string(run.id) + " (flow '" + run.flow_name +
        "') never ended: " + std::to_string(finished) + "/" +
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
    if (run.sweep_end >= 0 && !dirty_runs.contains(run.id)) {
      note(report, "resumable-run",
           progress + "; sealed and swept, resumable as-is");
    } else {
      warn(report, "interrupted-run", progress + "; resumable");
    }
  }
}

/// The index a rebuild over `instances` would produce — the *minimal*
/// contents any valid index file must contain for that table.
index::IndexImage index_from_instances(
    const std::vector<AuditInstance>& instances) {
  index::IndexImage img;
  for (const AuditInstance& inst : instances) {
    std::vector<std::uint32_t> inputs;
    for (const auto& [in, role] : inst.inputs) {
      if (in >= 0) inputs.push_back(static_cast<std::uint32_t>(in));
    }
    img.add_instance(inst.id, inst.type, inst.name, inst.user, inst.created,
                     inst.comment, inst.tool, inputs);
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
                 const std::vector<AuditInstance>& at_seq,
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

/// Serializes the (possibly repaired) audit state back into a
/// `HistoryDb::save`-compatible image.
std::string serialize_image(const Audit& audit,
                            const std::unordered_set<std::string>& keep_blobs) {
  std::string out;
  for (const auto& [key, payload] : audit.blobs) {
    if (!keep_blobs.contains(key)) continue;
    out += support::RecordWriter("blob").field(key).field(payload).str();
    out += '\n';
  }
  for (const AuditInstance& inst : audit.instances) {
    support::RecordWriter w("inst");
    w.field(inst.id);
    w.field(inst.type);
    w.field(inst.name);
    w.field(inst.user);
    w.field(inst.created);
    w.field(inst.comment);
    w.field(inst.blob);
    w.field(inst.version);
    w.field(inst.status);
    w.field(inst.task);
    w.field(inst.tool);
    w.field(static_cast<std::uint32_t>(inst.inputs.size()));
    for (const auto& [in, role] : inst.inputs) {
      w.field(in);
      w.field(role);
    }
    out += w.str();
    out += '\n';
  }
  for (const AuditRun& run : audit.runs) {
    support::RecordWriter b("runb");
    b.field(static_cast<std::int64_t>(run.id));
    b.field(run.flow_name);
    b.field(run.goal);
    b.field(run.goal_node);
    b.field(run.user);
    b.field(run.options);
    b.field(run.seed);
    b.field(run.db_size);
    b.field(run.flow_text);
    out += b.str();
    out += '\n';
    for (const AuditTask& task : run.tasks) {
      out += support::RecordWriter("tstart")
                 .field(static_cast<std::int64_t>(run.id))
                 .field(task.key)
                 .str();
      out += '\n';
    }
    if (!run.covered.empty()) {
      support::RecordWriter w("tcover");
      w.field(static_cast<std::int64_t>(run.id));
      w.field(static_cast<std::uint32_t>(run.covered.size()));
      for (const std::int64_t id : run.covered) w.field(id);
      out += w.str();
      out += '\n';
    }
    for (const AuditTask& task : run.tasks) {
      if (!task.finished) continue;
      out += support::RecordWriter("tfin")
                 .field(static_cast<std::int64_t>(run.id))
                 .field(task.key)
                 .field(task.status)
                 .str();
      out += '\n';
    }
    if (run.sweep_end >= 0) {
      out += support::RecordWriter("runseal")
                 .field(static_cast<std::int64_t>(run.id))
                 .field(static_cast<std::uint32_t>(run.sweep_end))
                 .str();
      out += '\n';
    }
    if (!run.outcome.empty()) {
      out += support::RecordWriter("rune")
                 .field(static_cast<std::int64_t>(run.id))
                 .field(run.outcome)
                 .str();
      out += '\n';
    }
  }
  return out;
}

/// Applies the repair verdicts and checkpoints the cleaned image under the
/// next epoch with a fresh journal.
void repair_store(Audit& audit, FsckReport& report,
                  const StorePaths& paths) {
  const std::string empty_key = data::BlobStore::key_for("");
  bool need_empty_blob = false;
  for (AuditInstance& inst : audit.instances) {
    if (inst.tombstone) {
      // Keep the id slot (later references stay valid) but drop everything
      // untrustworthy: payload, derivation, OK status.
      if (inst.status == 0) inst.status = 3;
      inst.blob = empty_key;
      inst.tool = -1;
      inst.inputs.clear();
      need_empty_blob = true;
      if (!inst.comment.empty()) inst.comment += ' ';
      inst.comment += "[fsck: tombstoned — " + inst.tombstone_reason + "]";
      report.repairs.push_back("tombstoned i" + std::to_string(inst.id) +
                               " (" + inst.tombstone_reason + ")");
    } else if (inst.quarantine && inst.status == 0) {
      inst.status = 3;
      if (!inst.comment.empty()) inst.comment += ' ';
      inst.comment += "[quarantined: fsck repair — producing task of an "
                      "interrupted run never finished]";
      report.repairs.push_back("quarantined partial product i" +
                               std::to_string(inst.id));
    }
  }
  if (need_empty_blob && !audit.blob_index.contains(empty_key)) {
    audit.blob_index.emplace(empty_key, audit.blobs.size());
    audit.blobs.emplace_back(empty_key, "");
  }

  // Drop covered ids that point outside the table (their frames were
  // corrupt); the instances they would have covered no longer exist.
  for (AuditRun& run : audit.runs) {
    std::erase_if(run.covered, [&](std::int64_t id) {
      return id < 0 || static_cast<std::size_t>(id) >= audit.instances.size();
    });
  }

  // Orphan sweep over the post-tombstone reference set.
  std::unordered_set<std::string> keep;
  for (const AuditInstance& inst : audit.instances) keep.insert(inst.blob);
  std::size_t swept = 0;
  for (const auto& [key, payload] : audit.blobs) {
    if (!keep.contains(key)) ++swept;
  }
  if (swept > 0) {
    report.repairs.push_back("swept " + std::to_string(swept) +
                             " orphan blob(s)");
  }
  if (audit.dropped_records > 0) {
    report.repairs.push_back("dropped " +
                             std::to_string(audit.dropped_records) +
                             " unreadable record(s)");
  }

  const std::uint64_t next_epoch = report.stats.epoch + 1;
  std::optional<Journal> journal;
  write_checkpoint(paths, next_epoch, audit.instances.size(),
                   serialize_image(audit, keep), JournalOptions{}, journal);
  report.repairs.push_back("checkpointed repaired image at epoch " +
                           std::to_string(next_epoch));
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
  std::vector<AuditInstance> at_index_seq;
  bool at_index_seq_valid = false;
  const auto fold_index_line = [&](std::string_view line) {
    try {
      index_all.apply_line(line);
    } catch (const std::exception&) {
      // Unparseable lines are already "bad-record" findings.
    }
  };

  // Snapshot: "snap" meta line, then a full save() image.
  if (fs::exists(paths.snapshot)) {
    const std::string text = read_file(paths.snapshot);
    bool seen_meta = false;
    std::int64_t declared_count = -1;
    for (const std::string_view line : support::Lines(text)) {
      if (support::trim(line).empty()) continue;
      if (!seen_meta) {
        seen_meta = true;
        try {
          support::RecordReader rec(line);
          if (rec.kind() != "snap") {
            throw HistoryError("first record is '" +
                               std::string(rec.kind()) + "'");
          }
          report.stats.epoch = static_cast<std::uint64_t>(rec.next_int64());
          if (!rec.exhausted()) declared_count = rec.next_int64();
          continue;
        } catch (const std::exception& e) {
          corrupt(report, "bad-snapshot-header",
                  std::string("snapshot does not start with a valid snap "
                              "record: ") +
                      e.what());
          continue;
        }
      }
      ingest_line(audit, report, line, "snapshot");
      fold_index_line(line);
      ++report.stats.snapshot_records;
    }
    if (!seen_meta) {
      corrupt(report, "bad-snapshot-header", "snapshot holds no snap record");
    }
    if (declared_count >= 0 &&
        static_cast<std::size_t>(declared_count) != audit.instances.size()) {
      corrupt(report, "snapshot-count-mismatch",
              "snapshot declares " + std::to_string(declared_count) +
                  " instances but holds " +
                  std::to_string(audit.instances.size()));
    }
  }

  const bool index_epoch_ok =
      index_usable && index_file.epoch == report.stats.epoch;
  if (index_epoch_ok && index_file.seq == 0) {
    at_index_seq = audit.instances;
    at_index_seq_valid = true;
  }

  // Journal: epoch-matched frames on top of the snapshot.
  if (fs::exists(paths.journal)) {
    const ScanResult scan = scan_journal(read_file(paths.journal));
    if (!scan.header_valid) {
      corrupt(report, "bad-record", "journal header is invalid");
    } else if (scan.epoch < report.stats.epoch) {
      warn(report, "stale-journal-epoch",
           "journal epoch " + std::to_string(scan.epoch) +
               " predates snapshot epoch " +
               std::to_string(report.stats.epoch) + "; " +
               std::to_string(scan.records.size()) +
               " records already absorbed by the snapshot");
    } else if (scan.epoch > report.stats.epoch) {
      corrupt(report, "future-journal-epoch",
              "journal epoch " + std::to_string(scan.epoch) +
                  " is ahead of snapshot epoch " +
                  std::to_string(report.stats.epoch) +
                  "; the snapshot those records extend is gone");
    } else {
      std::size_t applied = 0;
      for (const std::string& record : scan.records) {
        for (const std::string_view line : support::Lines(record)) {
          if (support::trim(line).empty()) continue;
          ingest_line(audit, report, line, "journal");
          fold_index_line(line);
        }
        ++applied;
        if (index_epoch_ok && index_file.seq == applied) {
          at_index_seq = audit.instances;
          at_index_seq_valid = true;
        }
      }
      report.stats.journal_records = scan.records.size();
      if (scan.torn) {
        warn(report, "torn-journal-tail",
             "journal ends in a torn frame (recovery truncates it)");
      }
    }
  }

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
  for (const AuditRun& run : audit.runs) {
    if (run.outcome.empty()) ++report.stats.open_runs;
  }

  // Clean-severity notes (a sealed resumable run) need no repair; rewriting
  // the snapshot for them would churn the epoch for nothing.
  if (options.repair && report.severity() != FsckSeverity::kClean) {
    if (replica) {
      warn(report, "replica-no-repair",
           "refusing --repair on a replica store: a repair checkpoint would"
           " bump the epoch out from under the replication stream; resync"
           " the replica or promote it first");
    } else {
      repair_store(audit, report, paths);
      // The repair checkpoint bumped the epoch; rewrite the index from the
      // repaired image so the next open loads warm instead of detecting
      // skew and rebuilding cold.
      index::IndexImage fresh = index_from_instances(audit.instances);
      fresh.epoch = report.stats.epoch + 1;
      fresh.seq = 0;
      write_file_atomic(index_path, fresh.serialize());
      report.repairs.push_back("rebuilt secondary indexes at epoch " +
                               std::to_string(report.stats.epoch + 1));
    }
  }
  return report;
}

}  // namespace herc::storage
