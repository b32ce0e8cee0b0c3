// `DesignSession`: the Hercules Task Manager facade (paper §4).
//
// One object owning the whole framework state — schema, history database,
// tool registry, flow catalog — with the operations a designer performs in
// the task window: start a task from any of the four approaches (§3.4),
// run flows, browse and annotate instances, save/restore the session.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "catalog/catalogs.hpp"
#include "core/browser.hpp"
#include "exec/executor.hpp"
#include "graph/task_graph.hpp"
#include "history/history_db.hpp"
#include "index/indexes.hpp"
#include "schema/task_schema.hpp"
#include "storage/store.hpp"
#include "support/clock.hpp"
#include "tools/registry.hpp"

namespace herc::core {

class DesignSession {
 public:
  /// Builds a session around `schema`.  When `clock` is null, wall-clock
  /// time stamps instances (pass a `ManualClock` for reproducible runs).
  explicit DesignSession(schema::TaskSchema schema,
                         std::string user = "designer",
                         std::unique_ptr<support::Clock> clock = nullptr);

  DesignSession(const DesignSession&) = delete;
  DesignSession& operator=(const DesignSession&) = delete;

  ~DesignSession();

  // ---- components -----------------------------------------------------------

  [[nodiscard]] schema::TaskSchema& schema() { return schema_; }
  [[nodiscard]] const schema::TaskSchema& schema() const { return schema_; }
  [[nodiscard]] history::HistoryDb& db() {
    if (replica_db_ != nullptr) return *replica_db_;
    return storage_ ? storage_->db() : *db_;
  }
  [[nodiscard]] const history::HistoryDb& db() const {
    if (replica_db_ != nullptr) return *replica_db_;
    return storage_ ? storage_->db() : *db_;
  }
  [[nodiscard]] tools::ToolRegistry& tools() { return *registry_; }
  [[nodiscard]] catalog::FlowCatalog& flows() { return *flow_catalog_; }
  [[nodiscard]] const catalog::FlowCatalog& flows() const {
    return *flow_catalog_;
  }

  [[nodiscard]] const std::string& user() const { return user_; }
  void set_user(std::string user) { user_ = std::move(user); }

  // ---- the four design approaches (§3.4) -------------------------------------

  [[nodiscard]] graph::TaskGraph task_from_goal(std::string_view entity);
  [[nodiscard]] catalog::ToolStart task_from_tool(std::string_view tool);
  [[nodiscard]] catalog::DataStart task_from_data(data::InstanceId instance);
  [[nodiscard]] graph::TaskGraph task_from_plan(std::string_view flow_name);

  // ---- data and execution ----------------------------------------------------

  /// Imports designer-supplied data (a source-entity instance).
  data::InstanceId import_data(std::string_view entity, std::string_view name,
                               std::string_view payload,
                               std::string_view comment = "");

  /// Incorporates new tools/entities mid-session by applying a schema DSL
  /// fragment (see `schema::extend_schema`).  Existing flows, instances
  /// and encapsulations are untouched; standard encapsulations for any
  /// newly added standard tool names are registered.
  void extend_schema(std::string_view fragment);

  /// Runs a flow with this session's user stamped on the products.  When
  /// `options.fault.seed` is nonzero the run executes through a seeded
  /// `tools::FaultInjectingRegistry` (deterministic pseudo-random tool
  /// failures — the chaos harness's per-run fault plan); the seed lands in
  /// the run record, so `resume_run` replays the same plan.
  exec::ExecResult run(const graph::TaskGraph& flow,
                       exec::ExecOptions options = {});
  /// Runs only the sub-flow rooted at `goal`.
  exec::ExecResult run_goal(const graph::TaskGraph& flow, graph::NodeId goal,
                            exec::ExecOptions options = {});

  /// Resumes an interrupted run (see `Executor::resume`): reloads the
  /// journaled flow, closes the old run record and re-runs with
  /// memoization, so only tasks that never finished execute again.
  exec::ExecResult resume_run(std::uint64_t run_id);

  /// Installs a cooperative cancellation flag on the execution engine
  /// (nullptr detaches).  While the flag reads true every `run`/
  /// `run_goal`/`resume_run` stops launching task groups and throws
  /// `exec::RunCancelled`, leaving the run record open and resumable.
  /// Survives `open_storage`/`close_storage` (which rebuild the executor).
  /// The flag must outlive this session or be detached first.
  void set_cancel_flag(const std::atomic<bool>* cancel);

  /// Winds the session down for a graceful stop: quarantines partial
  /// products of every still-open run, seals each run's sweep window and
  /// syncs the journal (when a store is attached), so the store on disk is
  /// fsck-clean and every interrupted run resumable.  Safe with no open
  /// runs (reports zeros).
  history::HistoryDb::SealSweep seal_open_runs(std::string_view reason);

  [[nodiscard]] InstanceBrowser browse(std::string_view entity) const;
  void annotate(data::InstanceId id, std::string_view name,
                std::string_view comment);

  /// ASCII rendering of the task window (Fig. 9, left panel).
  [[nodiscard]] std::string render_task_window(
      const graph::TaskGraph& flow) const;

  // ---- persistence -----------------------------------------------------------

  /// Serializes schema + history + flow catalog + user to one document.
  [[nodiscard]] std::string save() const;
  /// Restores a session saved with `save`.
  [[nodiscard]] static std::unique_ptr<DesignSession> load(
      std::string_view text, std::unique_ptr<support::Clock> clock = nullptr);

  // ---- durable storage (src/storage) -----------------------------------------

  /// Attaches a durable store in `dir`.  A store that already holds data
  /// replaces this session's (empty) history; a fresh store absorbs and
  /// checkpoints whatever the session has recorded so far.  From then on
  /// every mutation — imports, task products, failure records,
  /// annotations — is journaled (autosave-on-record).  Throws when both
  /// the store and the session already hold instances.
  storage::RecoveryReport open_storage(const std::string& dir,
                                       storage::StoreOptions options = {});

  /// Snapshot compaction of the attached store.  Throws when none is open.
  void checkpoint_storage();

  /// Detaches the store (flushing the journal); the history stays
  /// in-memory.  No-op when none is open.
  void close_storage();

  /// The attached store, or nullptr.
  [[nodiscard]] storage::DurableHistory* storage() { return storage_.get(); }

  // ---- secondary indexes (src/index) -----------------------------------------

  /// The secondary indexes maintained alongside the attached store or
  /// replica view, or nullptr for a plain in-memory session (whose
  /// listings stay verified table scans).
  [[nodiscard]] index::HistoryIndexes* indexes() { return indexes_.get(); }
  [[nodiscard]] const index::HistoryIndexes* indexes() const {
    return indexes_.get();
  }
  /// How the last `open_storage` opened the indexes: loaded from the
  /// store's index image (and caught up from its journal), or rebuilt.
  [[nodiscard]] const index::HistoryIndexes::OpenReport& index_open_report()
      const {
    return index_open_;
  }

  // ---- replication (src/replica) ---------------------------------------------

  /// Turns this session into a read-only replica view over `db` (owned by
  /// a `ReplicaApplier`, which must outlive the session and keep the
  /// address stable across resyncs).  Queries read `db`; every mutating
  /// operation throws `HistoryError` — the follower's history changes only
  /// through replicated journal frames.  `seal_open_runs` becomes a no-op:
  /// open runs on a replica are the leader's live runs, not crashes.
  /// Also builds and attaches in-memory secondary indexes over `db`: they
  /// follow the applied frame stream, and a resync's move-assignment fires
  /// their rebuild.  Followers never persist indexes — the leader owns the
  /// store directory.
  void attach_replica(history::HistoryDb* db);
  [[nodiscard]] bool read_only() const { return replica_db_ != nullptr; }

 private:
  /// Throws `HistoryError` when this session is a read-only replica.
  void require_writable(std::string_view what) const;
  /// Runs `body` on the session's executor or, when `seed` arms fault
  /// injection, on one over a seeded `tools::FaultInjectingRegistry` that
  /// shares the cancel flag.
  exec::ExecResult with_executor(
      std::uint64_t seed,
      const std::function<exec::ExecResult(exec::Executor&)>& body);

  schema::TaskSchema schema_;
  std::string user_;
  std::unique_ptr<support::Clock> clock_;
  std::unique_ptr<history::HistoryDb> db_;
  std::unique_ptr<storage::DurableHistory> storage_;
  std::unique_ptr<tools::ToolRegistry> registry_;
  std::unique_ptr<catalog::FlowCatalog> flow_catalog_;
  std::unique_ptr<exec::Executor> executor_;
  /// Re-applied whenever the executor is rebuilt (storage open/close).
  const std::atomic<bool>* cancel_ = nullptr;
  /// Non-null when this session is a read-only replica view.
  history::HistoryDb* replica_db_ = nullptr;
  /// Declared last: destroyed first, so it detaches from the database
  /// while the database (storage_/db_/replica view) is still alive.
  std::unique_ptr<index::HistoryIndexes> indexes_;
  index::HistoryIndexes::OpenReport index_open_;
};

}  // namespace herc::core
