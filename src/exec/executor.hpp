// The flow execution engine (paper §3.3 and Fig. 6).
//
// Executes a dynamically defined flow: tasks are grouped (a shared tool
// node + input set with several outputs runs once) and their dependency
// DAG is built once, by `TaskGraph::task_groups()`.  One scheduler runs
// every flow: a ready queue that always hands out the lowest-indexed ready
// group.  A serial run is one worker, the calling thread, which therefore
// runs the groups in plan order; a parallel run adds helpers from a
// process-wide pool of parked threads — "disjoint branches in the flow can
// be executed in parallel, possibly on different machines".  Every
// produced design object is recorded in the history database with its
// derivation meta-data, which is what makes all of §4.2's queries
// possible.
//
// Instance-set bindings fan a task out over each member (§4.1): binding
// three stimuli to the Stimuli leaf runs the simulation three times and
// records three Performance instances (unless the encapsulation accepts
// sets, in which case it gets all payloads in one call).
//
// With `reuse_existing` set, the engine asks the history database whether
// an identical, non-stale task result already exists and skips the run —
// the paper's "queries into the design history can quickly determine
// whether such retracing need occur".
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/task_graph.hpp"
#include "history/history_db.hpp"
#include "support/clock.hpp"
#include "support/error.hpp"
#include "tools/registry.hpp"

namespace herc::exec {

/// What the engine does when a task keeps failing after its retries.
enum class FailureMode {
  /// Abort the whole run on the first exhausted task (the classic
  /// behavior); every failure observed before the abort is still recorded
  /// and aggregated into the thrown `ExecError`.
  kFailFast,
  /// Record the failure, skip every task that (transitively) depends on
  /// it, and run everything else — disjoint branches always complete.
  kContinueBranches,
  /// Like `kContinueBranches`, but a failure inside a fanned-out task only
  /// kills that combination: the task keeps its surviving products and
  /// dependents run as long as every input still has at least one instance.
  kBestEffort,
};

/// Per-task failure handling: retries with exponential backoff, a timeout,
/// and the run-level failure mode.  Backoff waits go through `clock` so
/// tests driven by a `support::ManualClock` observe the waits virtually.
struct FaultPolicy {
  FailureMode mode = FailureMode::kFailFast;
  /// Extra attempts after the first failure (0 = no retry).
  std::size_t max_retries = 0;
  /// Wait before retry `k` is `backoff * backoff_multiplier^k`.
  std::chrono::milliseconds backoff{0};
  double backoff_multiplier = 2.0;
  /// Per-attempt wall-clock limit for a tool invocation; 0 = unlimited.
  /// A timed-out invocation is abandoned (its thread keeps running
  /// detached) and counts as a failed attempt.
  std::chrono::milliseconds timeout{0};
  /// Waits backoff through this clock; defaults to a real sleep.
  support::Clock* clock = nullptr;
  /// Identifies the deterministic fault-injection plan in effect for the
  /// run (see `tools::FaultInjectingRegistry`); recorded in the run-begin
  /// journal frame so a resumed run reports the same plan.  Not
  /// interpreted by the executor itself (0 = none).
  std::uint64_t seed = 0;
};

struct ExecOptions {
  /// Run independent task groups concurrently: the calling thread plus up
  /// to `max_threads - 1` pooled helpers.  Off, the caller alone runs
  /// the groups in plan order.
  bool parallel = false;
  std::size_t max_threads = 4;
  /// Reuse fresh existing results instead of re-running tasks.
  bool reuse_existing = false;
  /// Recorded as the creating user of produced instances.
  std::string user = "designer";
  /// Artificial per-task latency, emulating slow external tools (used by
  /// the Fig. 6 parallel-speedup benchmark).
  std::chrono::milliseconds task_latency{0};
  /// Failure semantics (retries, timeout, failure mode).
  FaultPolicy fault;
};

/// Per-task execution verdict.
enum class TaskStatus {
  kOk,       ///< every combination produced its outputs (or was reused)
  kPartial,  ///< best-effort: some combinations produced, some failed
  kFailed,   ///< no combination produced outputs
  kSkipped,  ///< never ran: an upstream task failed or was skipped
};

/// What happened to one task group, keyed by its output nodes.
struct TaskOutcome {
  TaskStatus status = TaskStatus::kOk;
  /// Tool invocations, including retries, across all combinations.
  std::size_t attempts = 0;
  /// Fan-out combinations that produced / failed.
  std::size_t combinations_ok = 0;
  std::size_t combinations_failed = 0;
  /// The failure messages (one per failed combination; for a skipped task,
  /// the skip reason).
  std::vector<std::string> errors;
};

/// What one `run` produced, keyed by flow node.
struct ExecResult {
  std::unordered_map<graph::NodeId, std::vector<data::InstanceId>,
                     support::IdHash>
      produced;
  std::size_t tasks_run = 0;
  std::size_t tasks_reused = 0;
  /// Fan-out combinations whose retries were exhausted.
  std::size_t tasks_failed = 0;
  /// Task groups skipped because an upstream task failed.
  std::size_t tasks_skipped = 0;
  /// Per-node verdicts: every output node of a task group maps to the
  /// group's outcome.  Populated for every executed/failed/skipped group.
  std::unordered_map<graph::NodeId, TaskOutcome, support::IdHash> outcomes;

  /// Instances produced for `node` (empty when the node was a bound leaf).
  [[nodiscard]] const std::vector<data::InstanceId>& of(
      graph::NodeId node) const;
  /// The single instance produced for `node`; throws `ExecError` when the
  /// task fanned out or produced nothing.
  [[nodiscard]] data::InstanceId single(graph::NodeId node) const;
  /// The outcome recorded for `node`, or null for bound leaves / nodes
  /// outside the run.
  [[nodiscard]] const TaskOutcome* outcome(graph::NodeId node) const;
  /// True when every task produced everything it should have.
  [[nodiscard]] bool complete() const {
    return tasks_failed == 0 && tasks_skipped == 0;
  }
};

/// Thrown when the cooperative cancellation flag (`set_cancel_flag`) stops
/// a run before every task group was scheduled.  The run record is left
/// OPEN: a cancelled run is an interrupted run, resumable via
/// `Executor::resume` exactly like a crash — which is how a serving
/// process winds down an in-flight flow on SIGTERM without losing it.
class RunCancelled : public support::ExecError {
 public:
  using support::ExecError::ExecError;
};

class Executor {
 public:
  /// `db` and `tools` must share the flow's schema and outlive the executor.
  Executor(history::HistoryDb& db, const tools::ToolRegistry& tools);

  /// Installs a cooperative cancellation flag (nullptr detaches).  While
  /// the flag reads true, `run`/`run_goal`/`resume` stop launching task
  /// groups: tool invocations already in flight finish and journal
  /// normally, unstarted groups never start, and the call throws
  /// `RunCancelled` leaving the run record open (resumable).  The flag
  /// must outlive the executor or be detached first.
  void set_cancel_flag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Executes every task of `flow`.  Preconditions: the flow checks
  /// against its schema and every leaf is bound (`FlowError` otherwise).
  ///
  /// Failure semantics follow `options.fault`: under `kFailFast` (default)
  /// the first task whose retries are exhausted aborts the run with an
  /// `ExecError` aggregating every failure observed; under
  /// `kContinueBranches`/`kBestEffort` the run returns normally and the
  /// result carries per-task outcomes.  Failed and skipped attempts are
  /// recorded in the history database as failure records in every mode.
  /// Any other exception — a failed journal write, say — stops the run on
  /// whichever worker throws it and is rethrown here once no helper is
  /// still inside a task group; the run record is closed "failed".
  ExecResult run(const graph::TaskGraph& flow, const ExecOptions& options = {});

  /// Executes only the sub-flow rooted at `goal` — "a subflow may be run
  /// at any stage as long as its dependencies are satisfied" (§4.1).
  ExecResult run_goal(const graph::TaskGraph& flow, graph::NodeId goal,
                      const ExecOptions& options = {});

  /// Resumes an interrupted (still-open) run: reloads the bound flow and
  /// options from the run-begin frame and re-executes with memoization
  /// forced on — completed tasks are skipped via their recorded products,
  /// so an N-task flow killed after task k re-executes only the remaining
  /// N-k tasks (quarantined partial products never satisfy memoization and
  /// are re-derived).  The old run is closed as "resumed" only once the
  /// replacement run's begin frame is journaled; if resume throws before
  /// then, the run stays open and resumable.  Throws `ExecError` for an
  /// unknown or already-ended run.
  ExecResult resume(std::uint64_t run_id);

 private:
  /// The one run path: the whole flow, or the closure of `goal` when it
  /// is valid.  `replaces` is the interrupted run a resume supersedes
  /// (closed "resumed" after the new run-begin frame lands).
  ExecResult run_impl(const graph::TaskGraph& flow, graph::NodeId goal,
                      const ExecOptions& options,
                      std::optional<std::uint64_t> replaces);

  history::HistoryDb* db_;
  const tools::ToolRegistry* tools_;
  const std::atomic<bool>* cancel_ = nullptr;
};

/// Serializes the options a resumed run must reproduce (everything except
/// the backoff clock, which cannot persist) into one record line.
[[nodiscard]] std::string encode_exec_options(const ExecOptions& options);
/// Inverse of `encode_exec_options`; `fault.clock` is left null.
[[nodiscard]] ExecOptions decode_exec_options(std::string_view text);

}  // namespace herc::exec
