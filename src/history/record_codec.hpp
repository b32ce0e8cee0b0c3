// The design-history record codec: one plain struct per record kind and
// the one `encode`/`decode` pair for the `kind|field|...` lines the
// history database persists (paper §3.3).
//
// Snapshot images, journal frames and the replication stream all carry
// these lines; `HistoryDb` (its mutators, `save()` and replay), the
// secondary indexes and fsck read and write them only through this
// module, so it is the one place that knows a field's position and
// signedness:
//
//   blob     key | payload
//   inst     id | type | name | user | created | comment | blob key |
//            version | status | task | tool (-1 = none) | n |
//            n x (input id | role)
//   annot    id | name | comment
//   quar     id | reason
//   runb     run | flow | goal | goal node | user | options | seed |
//            db size at begin | flow text
//   tstart   run | task key
//   tcover   run | n | n x instance id
//   tfin     run | task key | status
//   runseal  run | sweep end
//   rune     run | outcome
//
// Fields are escaped by `support::RecordWriter`.  Decoding checks syntax
// and field ranges only; whether a record fits the database it is applied
// to (a known entity, an earlier instance, a stored blob) is the reader's
// business.  An `inst` line is also read in place, as an `InstanceView`:
// replay puts its input ids straight into the database's arena and builds
// the table's instance from its views, and `decode` copies the same view
// into an `InstanceRecord`, so one function reads the fields of both.
#pragma once

#include <cstdint>
#include <forward_list>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "data/blob_store.hpp"
#include "data/instance_id.hpp"
#include "history/instance.hpp"
#include "history/text_pool.hpp"
#include "support/clock.hpp"

namespace herc::history {

/// `blob`: a payload under its content key.
struct BlobRecord {
  data::BlobKey key;
  std::string payload;
};

/// `inst`: one instance as written — its type by entity name and its
/// payload by content key, so the record reads without a schema or a
/// blob store.  `derivation.tool` is invalid for none.
struct InstanceRecord {
  data::InstanceId id;
  std::string type;
  std::string name;
  std::string user;
  support::Timestamp created;
  std::string comment;
  data::BlobKey blob;
  std::uint32_t version = 1;
  InstanceStatus status = InstanceStatus::kOk;
  Derivation derivation;
};

/// An `inst` record whose texts are views: of the line it was read from
/// (`decode_instance`) or of an `InstanceRecord`.  A field of the line
/// that holds a `\` is viewed in its unescaped copy in `unescaped`, and a
/// line's input ids in the run its reader staged, so the view is valid
/// while it and what it views live.
struct InstanceView {
  data::InstanceId id;
  std::string_view type;
  std::string_view name;
  std::string_view user;
  support::Timestamp created;
  std::string_view comment;
  std::string_view blob;
  std::uint32_t version = 1;
  InstanceStatus status = InstanceStatus::kOk;
  DerivationView derivation;
  /// Unescaped copies of escaped fields: a list, so adding one never
  /// moves another.
  std::forward_list<std::string> unescaped;
};

/// `annot`: an instance's new name and comment.
struct AnnotateRecord {
  data::InstanceId id;
  std::string name;
  std::string comment;
};

/// `quar`: an OK instance quarantined, with the reason.
struct QuarantineRecord {
  data::InstanceId id;
  std::string reason;
};

/// `runb`: a run opens — everything needed to re-execute its flow after a
/// crash.  `RunRecord` extends it with the run's progress.
struct RunBeginRecord {
  std::uint64_t id = 0;
  std::string flow_name;
  /// Entity name of the goal for a sub-flow run; empty for a full run.
  std::string goal;
  /// Compact node id of the goal in `flow_text` (-1 = whole flow).
  std::int64_t goal_node = -1;
  std::string user;
  /// Encoded ExecOptions (exec layer format), replayed by resume.
  std::string options;
  /// Fault-injection seed in effect (0 = none).
  std::uint64_t seed = 0;
  /// Database size when the run began: instances at or above this index
  /// were (re)corded during the run.
  std::uint32_t db_size_at_begin = 0;
  /// `TaskGraph::save()` of the bound flow; cleared when the run ends so
  /// closed runs cost nothing to keep.
  std::string flow_text;
};

/// `tstart`: task `key` of `run` started executing.
struct TaskStartRecord {
  std::uint64_t run = 0;
  std::string key;
};

/// `tcover`: one task combination of `run` recorded all of `produced`.
struct TaskCoverRecord {
  std::uint64_t run = 0;
  std::vector<data::InstanceId> produced;
};

/// `tfin`: task `key` of `run` finished with `status`.
struct TaskFinishRecord {
  std::uint64_t run = 0;
  std::string key;
  std::string status;
};

/// `runseal`: `run`'s partial-product sweep window ends at `sweep_end`.
struct RunSealRecord {
  std::uint64_t run = 0;
  std::uint32_t sweep_end = 0;
};

/// `rune`: `run` closed with `outcome`.
struct RunEndRecord {
  std::uint64_t run = 0;
  std::string outcome;
};

using Record =
    std::variant<BlobRecord, InstanceRecord, AnnotateRecord, QuarantineRecord,
                 RunBeginRecord, TaskStartRecord, TaskCoverRecord,
                 TaskFinishRecord, RunSealRecord, RunEndRecord>;

/// The kinds of record, in `Record`'s alternative order: a record's
/// `index()` is its kind.
enum class RecordKind : std::uint8_t {
  kBlob,
  kInstance,
  kAnnotate,
  kQuarantine,
  kRunBegin,
  kTaskStart,
  kTaskCover,
  kTaskFinish,
  kRunSeal,
  kRunEnd
};

/// Appends `record`'s line and a '\n' to `out`.
void encode(const Record& record, std::string& out);

/// The kind of one line, read without checking its fields.  Throws
/// `HistoryError` on an empty line or an unknown kind.
[[nodiscard]] RecordKind kind_of(std::string_view line);

/// Parses one line (no '\n').  Throws `HistoryError` naming the kind on an
/// unknown kind, a missing, malformed, out-of-range or surplus field, or
/// an unknown instance status.
[[nodiscard]] Record decode(std::string_view line);

/// Parses an `inst` line (no '\n') in place, into views of it: the
/// reader `decode` copies from.  Its input ids go straight into `pool`'s
/// arena as the staged run (`TextPool::stage_id`), which the view's
/// `derivation.inputs` views and `TextPool::copy` keeps in place.  Throws
/// as `decode` does; the caller has checked that `kind_of(line)` is
/// `kInstance`.
[[nodiscard]] InstanceView decode_instance(std::string_view line,
                                           TextPool& pool);

}  // namespace herc::history
