// The design-history database (paper §3.3, §4.2).
//
// The task schema doubles as this database's data schema: instances are
// typed by schema entities, and each carries the derivation meta-data
// (tool instance + input instances) of the task that created it.  On top of
// that single table the paper builds backward-chaining queries ("what was
// this made from?"), forward-chaining queries ("what was made from this?"),
// template queries using a task graph as the query form, staleness analysis
// for design-consistency maintenance, and version management.
//
// Every record the database writes (its mutation stream, `save()`) or
// reads (`apply_saved_line`, `load`) is one of the structs of
// history/record_codec.hpp, turned into text and back only by that
// module's `encode`/`decode`.  Replay is `decode` plus one `apply` per
// kind, which the mutators share; an `inst` line, most of any history, is
// read in place (`decode_instance`) and goes to the same `apply` as a
// decoded `InstanceRecord`, without an owning record in between.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "data/blob_store.hpp"
#include "history/instance.hpp"
#include "history/record_codec.hpp"
#include "history/text_pool.hpp"
#include "schema/task_schema.hpp"
#include "support/chunked.hpp"

namespace herc::history {

/// Everything needed to register a freshly produced instance.
struct RecordRequest {
  schema::EntityTypeId type;
  std::string name;
  std::string user;
  std::string comment;
  std::string payload;
  /// `kFailed`/`kSkipped` register a failure record: the attempt's
  /// derivation is kept for §4.2 queries, but the record never satisfies
  /// binding, memoization or version queries.
  InstanceStatus status = InstanceStatus::kOk;
  Derivation derivation;
};

/// Per-task progress of a journaled run.  `key` names the task group by
/// the compact node id and entity name of its primary output in the run's
/// saved flow text, so it stays stable across save/load.
struct RunTask {
  std::string key;
  bool finished = false;
  /// Final verdict name ("ok", "partial", "failed", "skipped"); empty
  /// while the task is in flight.
  std::string status;
};

/// One journaled flow execution: its `runb` record (everything needed to
/// re-execute the flow after a crash) folded together with its progress.
/// Task records track each task, and the covered-instance list lets crash
/// recovery quarantine partial products of tasks that started but never
/// finished.
struct RunRecord : RunBeginRecord {
  /// "" while open; "complete", "failed" or "resumed" once ended.
  std::string outcome;
  std::vector<RunTask> tasks;
  /// Instances recorded under a completed task combination — anything the
  /// run produced that is *not* listed here is a partial product.
  std::vector<data::InstanceId> covered;
  /// One past the last instance index the crash-recovery sweep may treat
  /// as this run's partial product.  `kUnsealed` until the first recovery
  /// seals it; instances recorded after the seal (post-crash work in an
  /// unresumed store) are never this run's partials.
  static constexpr std::uint32_t kUnsealed = 0xffffffffu;
  std::uint32_t sweep_end = kUnsealed;

  [[nodiscard]] bool open() const { return outcome.empty(); }
  [[nodiscard]] bool sealed() const { return sweep_end != kUnsealed; }
  [[nodiscard]] std::size_t tasks_finished() const;

  /// Appends the records that restore this run's state, in the order
  /// `HistoryDb::save` writes them: `runb`, a `tstart` per task, one
  /// `tcover`, a `tfin` per finished task, then `runseal` and `rune`
  /// when sealed and closed.
  void save_to(std::string& out) const;
};

/// Folds one run-log record into `runs` by the rules replay applies (fsck
/// folds with the same rules).  Throws `HistoryError`, changing nothing,
/// when the record does not fit: a run out of order or unknown, a task
/// finished without starting, a run ended twice or with no outcome.
/// Covered instance ids are the caller's to check.
void fold(std::vector<RunRecord>& runs, RunBeginRecord&& r);
void fold(std::vector<RunRecord>& runs, TaskStartRecord&& r);
void fold(std::vector<RunRecord>& runs, TaskCoverRecord&& r);
void fold(std::vector<RunRecord>& runs, TaskFinishRecord&& r);
void fold(std::vector<RunRecord>& runs, RunSealRecord&& r);
void fold(std::vector<RunRecord>& runs, RunEndRecord&& r);

/// Instance positions [begin, end) that the crash sweep of an open run may
/// treat as its partial products.
struct SweepWindow {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The sweep window of `runs[r]` in a table of `table_size` instances:
/// from its `db_size_at_begin` to its seal, the next run's begin or the
/// table end, whichever comes first.  Runs execute one at a time, so the
/// next run's begin bounds the window even when no seal was journaled.
[[nodiscard]] SweepWindow sweep_window(const std::vector<RunRecord>& runs,
                                       std::size_t r, std::size_t table_size);

/// A partial product: the instance at position `index` of the table,
/// found in the sweep window of open run `runs[run]`.
struct PartialProduct {
  std::size_t run = 0;
  std::size_t index = 0;
};

/// The crash sweep's rule, which recovery (`HistoryDb::partial_products`)
/// and fsck both apply, to `Instance`s and decoded `InstanceRecord`s: the
/// OK, non-import instances inside an open run's `sweep_window` that no
/// run covers (coverage unions over every run, open or closed, so a later
/// run's products are never an earlier crashed run's partials), each
/// reported once, under the first open run whose window holds it.
template <class Table>
[[nodiscard]] std::vector<PartialProduct> partial_products(
    const std::vector<RunRecord>& runs, const Table& table) {
  std::unordered_set<std::uint32_t> covered;
  for (const RunRecord& run : runs) {
    for (const data::InstanceId id : run.covered) covered.insert(id.value());
  }
  std::vector<PartialProduct> out;
  std::vector<bool> reported(table.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].open()) continue;
    const SweepWindow window = sweep_window(runs, r, table.size());
    for (std::size_t i = window.begin; i < window.end; ++i) {
      // Imports are designer-supplied, not task products; failure records
      // and already-quarantined instances are invisible anyway.
      if (table[i].status == InstanceStatus::kOk &&
          !table[i].derivation.is_import() &&
          !covered.contains(table[i].id.value()) && !reported[i]) {
        reported[i] = true;
        out.push_back({r, i});
      }
    }
  }
  return out;
}

/// The database's one hook, the slot its durable store (src/storage)
/// fills: each local mutation's records, once it is applied, which the
/// store journals as one frame.
class MutationListener {
 public:
  virtual ~MutationListener() = default;
  virtual void on_mutation(std::span<const Record> records) = 0;
};

/// Frame `seq` of `epoch`'s journal: its records and the bytes journaled.
struct Change {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::span<const Record> records;
  std::string_view bytes;
};

/// A subscriber of a store's change feed (`storage::DurableHistory`), the
/// one stream derived state follows (the indexes, the shipper): every
/// frame the store journals, local or replicated, once, in `seq` order,
/// after it is journaled and applied.  Calls come from the mutation path,
/// under the lock that serializes mutations: be quick, never re-enter.
class ChangeSubscriber {
 public:
  virtual ~ChangeSubscriber() = default;
  virtual void on_change(const Change& change) = 0;
  /// The journal restarted at seq 0 of `epoch` on a new snapshot; when
  /// `replaced` (an install, an adoption, not a checkpoint) the contents
  /// changed and state derived from them must be rebuilt.
  virtual void on_rebase(std::uint64_t epoch, bool replaced) = 0;
};

class HistoryDb {
 public:
  /// `schema` and `clock` must outlive the database.
  HistoryDb(const schema::TaskSchema& schema, support::Clock& clock);

  HistoryDb(HistoryDb&&) noexcept = default;
  /// Move-assignment replaces the *contents*, text pool included, but
  /// keeps the target's listener attached: a store installs a fresh image
  /// underneath its own journal without re-registering.  The source's
  /// listener is dropped with it.
  HistoryDb& operator=(HistoryDb&& other) noexcept;

  [[nodiscard]] const schema::TaskSchema& schema() const { return *schema_; }
  [[nodiscard]] data::BlobStore& blobs() { return blobs_; }
  [[nodiscard]] const data::BlobStore& blobs() const { return blobs_; }

  // ---- writing -------------------------------------------------------------

  /// Registers an instance the designer supplied from outside any flow
  /// (a source entity or pre-existing data).  Throws `HistoryError` when
  /// `type` is abstract.
  data::InstanceId import_instance(schema::EntityTypeId type,
                                   std::string_view name,
                                   std::string_view payload,
                                   std::string_view user,
                                   std::string_view comment = "");

  /// Registers an instance produced by a task, with its derivation.
  /// Version numbering: when the derivation marks this as an *edit* (some
  /// input has the same root entity type as `type`), the new instance gets
  /// that input's version + 1; otherwise version 1.
  data::InstanceId record(const RecordRequest& request);

  /// Updates the user-facing annotation of an instance (§4.1).
  void annotate(data::InstanceId id, std::string_view name,
                std::string_view comment);

  /// Marks an OK instance as quarantined (crash recovery / fsck repair):
  /// it keeps its payload and derivation but becomes invisible to binding,
  /// memoization and version queries.  Throws `HistoryError` for failure
  /// or already-quarantined records.
  void quarantine(data::InstanceId id, std::string_view reason);

  // ---- run log (crash-resumable execution) ----------------------------------

  /// Opens a run: assigns the id and `db_size_at_begin`, journals the
  /// run-begin frame.  `run` supplies flow name/text, goal, user, options
  /// and seed; progress fields are reset.
  std::uint64_t begin_run(RunRecord run);
  /// Journals that the task `key` of `run` started executing.
  void run_task_started(std::uint64_t run, std::string_view key);
  /// Journals that one task combination recorded all of `produced`: those
  /// instances are complete products, never quarantine candidates.
  void run_task_covered(std::uint64_t run,
                        const std::vector<data::InstanceId>& produced);
  /// Journals the final verdict of task `key` ("ok", "partial", "failed",
  /// "skipped").  The task must have been started.
  void run_task_finished(std::uint64_t run, std::string_view key,
                         std::string_view status);
  /// Closes a run ("complete", "failed" or "resumed") and drops its stored
  /// flow text.  Throws when the run is already closed.
  void end_run(std::uint64_t run, std::string_view outcome);
  /// Seals the run's partial-product sweep window at the current table
  /// size (crash recovery calls this once per interrupted run, after the
  /// quarantine sweep).  Instances recorded later can never be mistaken
  /// for the run's partials, even if the store is reopened again before
  /// the run is resumed.  No-op on an already-sealed run.
  void seal_run(std::uint64_t run);

  /// What `seal_open_runs` did.
  struct SealSweep {
    /// Partial products quarantined by the sweep.
    std::size_t quarantined = 0;
    /// Open runs whose sweep window was sealed (already-sealed runs are
    /// counted among `open` but not here).
    std::size_t sealed = 0;
    /// Runs still open (and now sealed), resumable via `Executor::resume`.
    std::size_t open = 0;
  };

  /// The full interruption sweep: quarantines every open run's partial
  /// products (`reason` becomes the quarantine comment) and seals every
  /// open run's sweep window at the current table size.  Crash recovery
  /// runs this after replay; a serving process runs it on graceful
  /// shutdown so the store it leaves behind is consistent and resumable
  /// without any recovery work.  No-op (all zeros) when no run is open.
  SealSweep seal_open_runs(std::string_view reason);

  [[nodiscard]] const std::vector<RunRecord>& runs() const { return runs_; }
  /// The run with `id`, or nullptr.
  [[nodiscard]] const RunRecord* find_run(std::uint64_t id) const;
  /// Runs still open — after recovery these are the interrupted runs a
  /// crash left behind, resumable via `Executor::resume`.
  [[nodiscard]] std::vector<const RunRecord*> open_runs() const;
  /// The instances `history::partial_products` finds in this table: what
  /// crash recovery quarantines.
  [[nodiscard]] std::vector<data::InstanceId> partial_products() const;

  // ---- reading -------------------------------------------------------------

  [[nodiscard]] std::size_t size() const { return instances_.size(); }
  [[nodiscard]] bool contains(data::InstanceId id) const;
  [[nodiscard]] const Instance& instance(data::InstanceId id) const;
  [[nodiscard]] const std::string& payload(data::InstanceId id) const;
  [[nodiscard]] std::vector<data::InstanceId> all() const;

  /// Instances whose type is `type` (or a descendant, by default) — the
  /// browser's per-entity listing of Fig. 9.  Failure records are excluded
  /// unless `include_failures` is set: a failed output does not exist as
  /// design data.
  [[nodiscard]] std::vector<data::InstanceId> instances_of(
      schema::EntityTypeId type, bool include_subtypes = true,
      bool include_failures = false) const;

  /// All non-OK records (`kFailed`, `kSkipped` and `kQuarantined`), in
  /// creation order — the §4.2-style "which tasks failed, with what
  /// inputs?" query; each record's derivation names the tool and input
  /// instances of the attempt.
  [[nodiscard]] std::vector<data::InstanceId> failures() const;

  // ---- chaining queries (§4.2) ----------------------------------------------

  /// Immediate derivation inputs (tool first when present) — one step of
  /// backward chaining, i.e. the History pop-up of Fig. 10.
  [[nodiscard]] std::vector<data::InstanceId> derived_from(
      data::InstanceId id) const;

  /// Transitive closure of `derived_from`, excluding `id` itself, in
  /// breadth-first order.
  [[nodiscard]] std::vector<data::InstanceId> derivation_closure(
      data::InstanceId id) const;

  /// Instances whose derivation used `id` directly, ascending — one step
  /// of forward chaining (the "Use dependencies" browser option of
  /// Fig. 9).  The list is the forward index itself: valid until the next
  /// mutation.
  [[nodiscard]] const std::vector<data::InstanceId>& used_by(
      data::InstanceId id) const;

  /// Transitive closure of `used_by`, excluding `id`, breadth-first.
  [[nodiscard]] std::vector<data::InstanceId> dependent_closure(
      data::InstanceId id) const;

  // ---- versioning (§4.2, Fig. 11) --------------------------------------------

  /// True when `id`'s derivation marks it as an edit of `parent` (an input
  /// sharing `id`'s root entity type).
  [[nodiscard]] std::optional<data::InstanceId> edit_parent(
      data::InstanceId id) const;

  /// Direct edit successors of `id` (children in the version tree).
  [[nodiscard]] std::vector<data::InstanceId> edit_children(
      data::InstanceId id) const;

  /// True when a newer version of `id` exists (it has an edit successor).
  [[nodiscard]] bool superseded(data::InstanceId id) const;

  // ---- consistency maintenance (§3.3) -----------------------------------------

  /// An instance is *stale* when anything in its derivation closure has
  /// been superseded by a newer version — the condition that triggers
  /// automatic retracing.
  [[nodiscard]] bool is_stale(data::InstanceId id) const;

  /// The superseded instances that make `id` stale (empty when fresh).
  [[nodiscard]] std::vector<data::InstanceId> stale_inputs(
      data::InstanceId id) const;

  /// Finds an existing instance of `type` produced by `tool` from exactly
  /// `inputs` (order-insensitive) — the memoization query that lets the
  /// framework answer "has this extraction been performed yet?" without
  /// re-running it.
  [[nodiscard]] std::optional<data::InstanceId> find_existing(
      schema::EntityTypeId type, data::InstanceId tool,
      const std::vector<data::InstanceId>& inputs) const;

  // ---- persistence -------------------------------------------------------------

  /// Serializes blobs, instances and the run log to text: one `encode`d
  /// record per line.
  [[nodiscard]] std::string save() const;
  /// Restores a database saved with `save` against the same schema.
  [[nodiscard]] static HistoryDb load(const schema::TaskSchema& schema,
                                      support::Clock& clock,
                                      std::string_view text);

  /// Applies one saved record line, as `decode` plus `apply_record` would,
  /// to the same verdict: an `inst` line is read in place
  /// (`decode_instance`) rather than decoded into an owning record.
  /// `load` is a loop over this; snapshot and journal recovery
  /// (src/storage) replay through the same path.
  void apply_saved_line(std::string_view line);
  /// Applies one decoded saved record, resolving its entity name and blob
  /// key and verifying content hashes, id ordering and references.  Never
  /// notifies the listener: it owns the journal saved records come from.
  void apply_record(Record record) { apply(std::move(record)); }

  /// Attaches (or detaches, with nullptr) the mutation listener, which
  /// must outlive the attachment.
  void attach_listener(MutationListener* listener) { listener_ = listener; }
  [[nodiscard]] MutationListener* listener() const { return listener_; }

 private:
  void check_id(data::InstanceId id) const;
  [[nodiscard]] schema::EntityTypeId root_type(schema::EntityTypeId t) const;
  /// `inst` as its `inst` record, with owning texts.
  [[nodiscard]] InstanceRecord instance_record(const Instance& inst) const;
  /// The instances whose derivation used the instance at `index`.
  [[nodiscard]] const std::vector<data::InstanceId>& dependents(
      std::size_t index) const;
  /// Adds the last instance's derivation to the forward index.
  void link_newest();

  /// The state change a record makes, shared by the public mutators and
  /// `apply_saved_line`: run-log records `fold` into `runs_`, the others
  /// go to the overloads below.  Throws `HistoryError` when the record
  /// does not fit the database, leaving it unchanged.
  void apply(Record&& record);
  void apply(BlobRecord&& r);
  /// Goes to the view overload, the one apply of an instance.
  void apply(InstanceRecord&& r);
  void apply(InstanceView&& r);
  void apply(AnnotateRecord&& r);
  void apply(QuarantineRecord&& r);

  /// A locally originated one-record mutation: applies, then reports it.
  void commit(Record record);

  const schema::TaskSchema* schema_;
  support::Clock* clock_;
  data::BlobStore blobs_;
  /// The one copy of each user, task label and role list the instances
  /// hold handles to; it lives and moves with `instances_`.
  TextPool pool_;
  /// Chunked, so that growing the table never moves an instance.
  support::Chunked<Instance> instances_;
  /// Forward index: instance -> instances whose derivation used it.  Most
  /// instances are used by nothing, so each has a 4-byte slot: 0 for no
  /// dependents, else one past the position of its list in
  /// `used_by_lists_`.
  support::Chunked<std::uint32_t> used_by_slots_;
  support::Chunked<std::vector<data::InstanceId>> used_by_lists_;
  std::vector<RunRecord> runs_;
  MutationListener* listener_ = nullptr;
};

}  // namespace herc::history
