#include "exec/executor.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <system_error>
#include <thread>
#include <utility>

#include "support/error.hpp"
#include "support/record.hpp"
#include "tools/composite.hpp"
#include "support/text.hpp"

namespace herc::exec {

using data::InstanceId;
using graph::NodeId;
using graph::TaskGraph;
using graph::TaskGroup;
using support::ExecError;
using support::FlowError;

const std::vector<InstanceId>& ExecResult::of(NodeId node) const {
  static const std::vector<InstanceId> kEmpty;
  const auto it = produced.find(node);
  return it == produced.end() ? kEmpty : it->second;
}

InstanceId ExecResult::single(NodeId node) const {
  const auto& vec = of(node);
  if (vec.size() != 1) {
    throw ExecError("expected exactly one instance for flow node, found " +
                    std::to_string(vec.size()));
  }
  return vec.front();
}

const TaskOutcome* ExecResult::outcome(NodeId node) const {
  const auto it = outcomes.find(node);
  return it == outcomes.end() ? nullptr : &it->second;
}

Executor::Executor(history::HistoryDb& db, const tools::ToolRegistry& tools)
    : db_(&db), tools_(&tools) {}

namespace {

/// Mutable state shared by a run's workers.  `mutex` guards `env`, the
/// result counters and all history-database access; tool functions run
/// outside the lock.
struct RunState {
  const TaskGraph* flow;
  history::HistoryDb* db;
  const tools::ToolRegistry* tools;
  const ExecOptions* options;
  std::mutex mutex;
  std::unordered_map<std::uint32_t, std::vector<InstanceId>> env;
  ExecResult result;
  /// The run record this run's intents are journaled under.
  std::uint64_t run_id = 0;
  /// Live node id -> the dense id `TaskGraph::save()` assigns, so task
  /// keys journaled now match the flow text a resume reloads.
  std::unordered_map<std::uint32_t, std::uint32_t> compact;
  /// Cooperative cancellation flag (`Executor::set_cancel_flag`); null
  /// when cancellation is not wired up.
  const std::atomic<bool>* cancel = nullptr;
};

/// True once the installed cancellation flag requests a stop.  Relaxed is
/// enough: the flag is a pure go/no-go signal and every durable effect the
/// scheduler produces is ordered by `state.mutex` / the journal anyway.
bool cancel_requested(const RunState& state) {
  return state.cancel != nullptr &&
         state.cancel->load(std::memory_order_relaxed);
}

/// Stable identity of a task group inside the run's saved flow: compact id
/// plus entity name of the primary output.  The compact map covers every
/// flow node, so a miss is a logic error; falling back to the live node id
/// could journal a tstart/tfin pair under different keys, which would make
/// the store unloadable at replay ("finished without starting").
std::string group_key(const RunState& state, const TaskGroup& group) {
  const NodeId primary = group.outputs.front();
  const auto it = state.compact.find(primary.value());
  if (it == state.compact.end()) {
    throw ExecError("internal: flow node " +
                    std::to_string(primary.value()) +
                    " missing from the run's compact id map");
  }
  return std::to_string(it->second) + ":" +
         state.flow->schema().entity_name(state.flow->node(primary).type);
}

const char* task_status_name(TaskStatus status) {
  switch (status) {
    case TaskStatus::kOk: return "ok";
    case TaskStatus::kPartial: return "partial";
    case TaskStatus::kFailed: return "failed";
    case TaskStatus::kSkipped: return "skipped";
  }
  return "unknown";
}

/// Cartesian-product odometer over input instance choices.
class Odometer {
 public:
  explicit Odometer(std::vector<std::size_t> sizes)
      : sizes_(std::move(sizes)), digits_(sizes_.size(), 0) {
    for (const std::size_t s : sizes_) {
      if (s == 0) exhausted_ = true;
    }
  }

  [[nodiscard]] bool exhausted() const { return exhausted_; }
  [[nodiscard]] const std::vector<std::size_t>& digits() const {
    return digits_;
  }

  void advance() {
    for (std::size_t i = 0; i < digits_.size(); ++i) {
      if (++digits_[i] < sizes_[i]) return;
      digits_[i] = 0;
    }
    exhausted_ = true;
  }

 private:
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> digits_;
  bool exhausted_ = false;
};

/// Auto-name for a produced instance: the node's label when the designer
/// set one, otherwise `<Type>#<ordinal>`.
std::string instance_name(const TaskGraph& flow, NodeId node,
                          std::size_t ordinal) {
  const graph::Node& n = flow.node(node);
  if (!n.label.empty()) return n.label;
  return flow.schema().entity_name(n.type) + "#" + std::to_string(ordinal);
}

/// Waits `backoff * multiplier^attempt` through the policy's clock (a real
/// sleep by default; virtual when tests install a `ManualClock`).
void backoff_wait(const FaultPolicy& policy, std::size_t attempt) {
  if (policy.backoff.count() <= 0) return;
  const double millis =
      static_cast<double>(policy.backoff.count()) *
      std::pow(policy.backoff_multiplier, static_cast<double>(attempt));
  const auto micros = static_cast<std::int64_t>(millis * 1000.0);
  if (policy.clock != nullptr) {
    policy.clock->sleep_for(micros);
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

/// Parked worker threads shared by every run: the scheduler's helpers and
/// timeout-guarded tool invocations.  Spawning a fresh thread per job
/// costs ~10us even when the job is instant, which alone would blow the
/// <5% fault-machinery overhead budget; parking idle workers on a queue
/// makes a job nearly free.  A worker stuck inside a hung tool is simply
/// abandoned — it rejoins the idle pool whenever the tool returns — and a
/// worker is spawned whenever a job arrives with no idle worker left to
/// take it, so a submitted job always starts.  The singleton is leaked so
/// abandoned workers never race process teardown.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool* pool = new WorkerPool();
    return *pool;
  }

  void submit(std::function<void()> job) {
    std::scoped_lock lock(mutex_);
    jobs_.push_back(std::move(job));
    if (jobs_.size() > idle_) {
      spawn();
    } else {
      cv_.notify_one();
    }
  }

 private:
  WorkerPool() = default;

  /// Caller holds `mutex_`.
  void spawn() {
    std::thread([this]() {
      std::unique_lock lock(mutex_);
      while (true) {
        ++idle_;
        cv_.wait(lock, [&] { return !jobs_.empty(); });
        --idle_;
        auto job = std::move(jobs_.front());
        jobs_.pop_front();
        lock.unlock();
        job();  // may block indefinitely: the worker is abandoned meanwhile
        lock.lock();
      }
    }).detach();
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  /// Workers waiting for a job; each queued job is owed one of them.
  std::size_t idle_ = 0;
};

/// Runs the encapsulation, enforcing the per-attempt timeout.  A timed-out
/// invocation is abandoned: its worker keeps running (holding shared
/// ownership of the context), and the attempt counts as failed.
tools::ToolOutput invoke_tool(const tools::ToolFunction& fn,
                              const std::shared_ptr<tools::ToolContext>& ctx,
                              const FaultPolicy& policy,
                              const std::string& label) {
  if (policy.timeout.count() <= 0) return fn(*ctx);
  auto task = std::make_shared<std::packaged_task<tools::ToolOutput()>>(
      [fn, ctx]() { return fn(*ctx); });
  std::future<tools::ToolOutput> result = task->get_future();
  WorkerPool::instance().submit([task]() { (*task)(); });
  if (result.wait_for(policy.timeout) != std::future_status::ready) {
    throw ExecError("task '" + label + "' timed out after " +
                    std::to_string(policy.timeout.count()) + "ms");
  }
  return result.get();
}

/// Registers one failure record per output node of `group`: type and name
/// of the output that was *not* produced, the attempt's derivation
/// meta-data, and the error message as the comment.
void record_failure(RunState& state, const TaskGroup& group,
                    history::InstanceStatus status, InstanceId tool_inst,
                    const std::vector<InstanceId>& inputs,
                    const std::vector<std::string>& roles,
                    const std::string& task_label,
                    const std::string& message) {
  const TaskGraph& flow = *state.flow;
  std::scoped_lock lock(state.mutex);
  for (const NodeId out_node : group.outputs) {
    history::RecordRequest request;
    request.type = flow.node(out_node).type;
    request.name = instance_name(flow, out_node, state.db->size());
    request.user = state.options->user;
    request.comment = message;
    request.status = status;
    request.derivation.tool = tool_inst;
    request.derivation.inputs = inputs;
    request.derivation.input_roles = roles;
    request.derivation.task = task_label;
    state.db->record(request);
  }
}

/// A group-level verdict that must not abort the run in continue modes.
struct SkipGroup {
  std::string reason;
};

/// Executes one task group, honoring the fault policy: tool failures are
/// caught by the retry loop and become the outcome.  In fail-fast mode
/// structural errors (missing inputs) propagate, as do history and
/// journal failures in every mode.  Throws `SkipGroup` (internal) when
/// the group's inputs are unavailable in a continue mode.
TaskOutcome execute_group(RunState& state, const TaskGroup& group) {
  const TaskGraph& flow = *state.flow;
  const schema::TaskSchema& schema = flow.schema();
  const ExecOptions& options = *state.options;
  const FaultPolicy& policy = options.fault;
  const bool fail_fast = policy.mode == FailureMode::kFailFast;
  const NodeId primary = group.outputs.front();
  TaskOutcome outcome;

  // Inputs in edge order of the primary output (compose order matters).
  const std::vector<NodeId> ordered_inputs = flow.inputs_of(primary);
  std::vector<std::string> roles;
  roles.reserve(ordered_inputs.size());
  for (const graph::DepEdge& e : flow.deps(primary)) {
    if (e.kind == schema::DepKind::kData) roles.push_back(e.role);
  }

  // Snapshot the instance choices under the lock.  In fail-fast mode a
  // missing input aborts the run (classic behavior); in the continue modes
  // it means an upstream task failed, so the group is skipped.
  std::vector<std::vector<InstanceId>> choices(ordered_inputs.size());
  std::vector<InstanceId> tool_choices;
  {
    std::scoped_lock lock(state.mutex);
    for (std::size_t i = 0; i < ordered_inputs.size(); ++i) {
      const auto it = state.env.find(ordered_inputs[i].value());
      if (it == state.env.end() || it->second.empty()) {
        const std::string why =
            "flow '" + flow.name() + "': input node '" +
            schema.entity_name(flow.node(ordered_inputs[i]).type) +
            "' has no instances";
        if (fail_fast) throw ExecError(why);
        throw SkipGroup{why};
      }
      choices[i] = it->second;
    }
    if (group.tool.valid()) {
      const auto it = state.env.find(group.tool.value());
      if (it == state.env.end() || it->second.empty()) {
        const std::string why =
            "flow '" + flow.name() + "': tool node '" +
            schema.entity_name(flow.node(group.tool).type) +
            "' has no instance bound or produced";
        if (fail_fast) throw ExecError(why);
        throw SkipGroup{why};
      }
      tool_choices = it->second;
    }
  }

  // Set-accepting encapsulations consume whole instance sets in one call.
  // Resolution failure (no encapsulation registered) is a task failure.
  bool accepts_sets = false;
  if (group.tool.valid()) {
    try {
      std::scoped_lock lock(state.mutex);
      const schema::EntityTypeId tool_type =
          state.db->instance(tool_choices.front()).type;
      accepts_sets = state.tools->resolve(tool_type).accepts_instance_sets;
    } catch (const std::exception& e) {
      if (fail_fast) throw;
      record_failure(state, group, history::InstanceStatus::kFailed,
                     InstanceId(), {}, {},
                     schema.entity_name(flow.node(group.tool).type),
                     e.what());
      outcome.status = TaskStatus::kFailed;
      ++outcome.combinations_failed;
      outcome.errors.emplace_back(e.what());
      return outcome;
    }
  }

  std::vector<std::size_t> sizes;
  sizes.push_back(group.tool.valid() ? tool_choices.size() : 1);
  for (const auto& c : choices) {
    sizes.push_back(accepts_sets ? 1 : c.size());
  }

  for (Odometer odo(sizes); !odo.exhausted(); odo.advance()) {
    const auto& digits = odo.digits();
    const InstanceId tool_inst =
        group.tool.valid() ? tool_choices[digits[0]] : InstanceId();
    std::vector<std::vector<InstanceId>> combo(ordered_inputs.size());
    for (std::size_t i = 0; i < ordered_inputs.size(); ++i) {
      if (accepts_sets) {
        combo[i] = choices[i];
      } else {
        combo[i] = {choices[i][digits[i + 1]]};
      }
    }
    // Flat input list for derivation records and memoization.
    std::vector<InstanceId> flat_inputs;
    std::vector<std::string> flat_roles;
    for (std::size_t i = 0; i < combo.size(); ++i) {
      for (const InstanceId inst : combo[i]) {
        flat_inputs.push_back(inst);
        flat_roles.push_back(roles[i]);
      }
    }

    // Consistency memoization: skip the run when every output already has
    // a fresh instance derived the same way.
    if (state.options->reuse_existing) {
      std::scoped_lock lock(state.mutex);
      std::vector<InstanceId> found;
      bool all = true;
      for (const NodeId out : group.outputs) {
        const auto existing = state.db->find_existing(
            flow.node(out).type, tool_inst, flat_inputs);
        if (existing && !state.db->is_stale(*existing)) {
          found.push_back(*existing);
        } else {
          all = false;
          break;
        }
      }
      if (all) {
        for (std::size_t o = 0; o < group.outputs.size(); ++o) {
          state.env[group.outputs[o].value()].push_back(found[o]);
          state.result.produced[group.outputs[o]].push_back(found[o]);
        }
        ++state.result.tasks_reused;
        ++outcome.combinations_ok;
        continue;
      }
    }

    // One attempt: build the context, run the tool, record the products.
    // Throws on failure; retried per the fault policy.
    std::string task_label = "compose";
    const auto attempt_once = [&]() {
      auto ctx = std::make_shared<tools::ToolContext>();
      ctx->schema = &schema;
      const tools::Encapsulation* enc = nullptr;
      {
        std::scoped_lock lock(state.mutex);
        for (std::size_t i = 0; i < ordered_inputs.size(); ++i) {
          tools::ToolInput in;
          in.type = flow.node(ordered_inputs[i]).type;
          in.type_name = schema.entity_name(in.type);
          in.role = roles[i];
          for (const InstanceId inst : combo[i]) {
            // The history instance's actual type can be narrower than the
            // flow node's; report the actual one.
            in.type = state.db->instance(inst).type;
            in.type_name = schema.entity_name(in.type);
            in.instances.push_back(inst);
            in.payloads.push_back(state.db->payload(inst));
          }
          ctx->inputs.push_back(std::move(in));
        }
        if (group.tool.valid()) {
          ctx->tool_instance = tool_inst;
          ctx->tool_type = state.db->instance(tool_inst).type;
          ctx->tool_type_name = schema.entity_name(ctx->tool_type);
          ctx->tool_payload = state.db->payload(tool_inst);
          enc = &state.tools->resolve(ctx->tool_type);
          ctx->args = enc->args;
          task_label = enc->name;
        }
        // A set-accepting encapsulation sees one ToolInput per role: inputs
        // arriving through several trace edges of the same arc (recorded
        // set consumption) are merged back into one set.
        if (enc != nullptr && enc->accepts_instance_sets) {
          std::vector<tools::ToolInput> merged;
          for (tools::ToolInput& in : ctx->inputs) {
            bool appended = false;
            for (tools::ToolInput& m : merged) {
              if (m.role == in.role && m.type_name == in.type_name) {
                m.instances.insert(m.instances.end(), in.instances.begin(),
                                   in.instances.end());
                m.payloads.insert(m.payloads.end(),
                                  std::make_move_iterator(in.payloads.begin()),
                                  std::make_move_iterator(in.payloads.end()));
                appended = true;
                break;
              }
            }
            if (!appended) merged.push_back(std::move(in));
          }
          ctx->inputs = std::move(merged);
        }
      }

      // Run the tool outside the lock (this is the expensive part).
      if (state.options->task_latency.count() > 0) {
        std::this_thread::sleep_for(state.options->task_latency);
      }
      tools::ToolOutput out;
      if (enc != nullptr) {
        out = invoke_tool(enc->fn, ctx, policy, task_label);
      } else {
        // Compose task: consistency check, then pack the components.
        std::vector<std::string> parts;
        for (const tools::ToolInput& in : ctx->inputs) {
          for (const std::string& p : in.payloads) parts.push_back(p);
        }
        const NodeId out_node = primary;
        if (const auto* check =
                schema.compose_check(flow.node(out_node).type)) {
          std::string why;
          if (!(*check)(parts, why)) {
            throw ExecError("compose of '" +
                            schema.entity_name(flow.node(out_node).type) +
                            "' failed its consistency check: " + why);
          }
        }
        out.set(schema.entity_name(flow.node(out_node).type),
                tools::join_composite(parts));
      }

      // Record the products.
      {
        std::scoped_lock lock(state.mutex);
        std::vector<std::pair<NodeId, history::RecordRequest>> records;
        for (const NodeId out_node : group.outputs) {
          const std::string& type_name =
              schema.entity_name(flow.node(out_node).type);
          const std::string* payload = out.find(type_name);
          if (payload == nullptr) {
            throw ExecError("task '" + task_label +
                            "' did not produce a '" + type_name + "'");
          }
          history::RecordRequest request;
          request.type = flow.node(out_node).type;
          request.name = instance_name(flow, out_node,
                                       state.db->size() + records.size());
          request.user = state.options->user;
          request.comment = "produced by " + task_label + " in flow '" +
                            flow.name() + "'";
          request.payload = *payload;
          request.derivation.tool = tool_inst;
          request.derivation.inputs = flat_inputs;
          request.derivation.input_roles = flat_roles;
          request.derivation.task = task_label;
          records.emplace_back(out_node, std::move(request));
        }
        // All outputs validated before any is recorded: a failed
        // combination leaves no partial products behind.
        std::vector<InstanceId> produced_ids;
        produced_ids.reserve(records.size());
        for (auto& [out_node, request] : records) {
          const InstanceId id = state.db->record(request);
          state.env[out_node.value()].push_back(id);
          state.result.produced[out_node].push_back(id);
          produced_ids.push_back(id);
        }
        // The coverage frame lands after the product frames: a crash in
        // between leaves uncovered instances, which recovery quarantines.
        state.db->run_task_covered(state.run_id, produced_ids);
        ++state.result.tasks_run;
      }
    };

    // Retry loop with exponential backoff.
    const std::size_t max_attempts = policy.max_retries + 1;
    std::string last_error;
    bool combination_ok = false;
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      ++outcome.attempts;
      try {
        attempt_once();
        combination_ok = true;
        break;
      } catch (const std::exception& e) {
        last_error = e.what();
      } catch (...) {
        last_error = "unknown error";
      }
      if (attempt + 1 < max_attempts) backoff_wait(policy, attempt);
    }

    if (combination_ok) {
      ++outcome.combinations_ok;
      continue;
    }
    ++outcome.combinations_failed;
    outcome.errors.push_back(last_error);
    record_failure(state, group, history::InstanceStatus::kFailed, tool_inst,
                   flat_inputs, flat_roles, task_label, last_error);
    // Best-effort keeps running the remaining combinations; the other
    // modes abandon the group on its first exhausted combination.
    if (policy.mode != FailureMode::kBestEffort) break;
  }

  if (outcome.combinations_failed == 0) {
    outcome.status = TaskStatus::kOk;
  } else if (policy.mode == FailureMode::kBestEffort &&
             outcome.combinations_ok > 0) {
    outcome.status = TaskStatus::kPartial;
  } else {
    outcome.status = TaskStatus::kFailed;
  }
  return outcome;
}

/// The label used for skip records of a group that never ran.
std::string group_label(const RunState& state, const TaskGroup& group) {
  if (!group.tool.valid()) return "compose";
  return state.flow->schema().entity_name(
      state.flow->node(group.tool).type);
}

/// Stores the outcome under every output node and bumps the run counters.
/// Caller must NOT hold `state.mutex`.
void finalize_outcome(RunState& state, const TaskGroup& group,
                      const TaskOutcome& outcome) {
  std::scoped_lock lock(state.mutex);
  state.result.tasks_failed += outcome.combinations_failed;
  if (outcome.status == TaskStatus::kSkipped) ++state.result.tasks_skipped;
  for (const NodeId out : group.outputs) {
    state.result.outcomes[out] = outcome;
  }
  state.db->run_task_finished(state.run_id, group_key(state, group),
                              task_status_name(outcome.status));
}

/// Journals the task-started frame for `group`.  Caller must NOT hold
/// `state.mutex`.
void journal_task_started(RunState& state, const TaskGroup& group) {
  std::scoped_lock lock(state.mutex);
  state.db->run_task_started(state.run_id, group_key(state, group));
}

/// Marks `group` skipped: records skip records and the outcome.
TaskOutcome skip_group(RunState& state, const TaskGroup& group,
                       const std::string& reason) {
  record_failure(state, group, history::InstanceStatus::kSkipped,
                 InstanceId(), {}, {}, group_label(state, group),
                 "skipped: " + reason);
  TaskOutcome outcome;
  outcome.status = TaskStatus::kSkipped;
  outcome.errors.push_back(reason);
  finalize_outcome(state, group, outcome);
  return outcome;
}

/// Decides whether `g` must be skipped before running, given the statuses
/// of its completed predecessors.  Returns the reason, or empty to run.
std::string skip_reason(RunState& state, const std::vector<TaskGroup>& groups,
                        const std::vector<TaskStatus>& status,
                        std::size_t g) {
  const FailureMode mode = state.options->fault.mode;
  if (mode == FailureMode::kContinueBranches) {
    // Skip when any dependency did not fully succeed.
    for (const std::size_t p : groups[g].preds) {
      if (status[p] == TaskStatus::kFailed ||
          status[p] == TaskStatus::kSkipped ||
          status[p] == TaskStatus::kPartial) {
        return "task producing '" +
               state.flow->schema().entity_name(
                   state.flow->node(groups[p].outputs.front()).type) +
               "' " +
               (status[p] == TaskStatus::kSkipped ? "was skipped" : "failed");
      }
    }
  } else if (mode == FailureMode::kBestEffort) {
    // Skip only when some produced input ended up with no instances at all.
    bool upstream_trouble = false;
    for (const std::size_t p : groups[g].preds) {
      if (status[p] != TaskStatus::kOk) upstream_trouble = true;
    }
    if (upstream_trouble) {
      std::scoped_lock lock(state.mutex);
      auto feeds = groups[g].inputs;
      if (groups[g].tool.valid()) feeds.push_back(groups[g].tool);
      for (const NodeId in : feeds) {
        const auto it = state.env.find(in.value());
        if (it == state.env.end() || it->second.empty()) {
          return "input '" +
                 state.flow->schema().entity_name(state.flow->node(in).type) +
                 "' has no surviving instances";
        }
      }
    }
  }
  return "";
}

/// Runs one dequeued group: task-started frame, skip decision, execution,
/// verdict.  `status` holds the final verdicts of the group's predecessors
/// (a group is only dequeued once they all completed).
TaskOutcome run_group(RunState& state, const std::vector<TaskGroup>& groups,
                      const std::vector<TaskStatus>& status, std::size_t g) {
  const TaskGroup& group = groups[g];
  journal_task_started(state, group);
  std::string reason = skip_reason(state, groups, status, g);
  if (reason.empty()) {
    try {
      const TaskOutcome outcome = execute_group(state, group);
      finalize_outcome(state, group, outcome);
      return outcome;
    } catch (const SkipGroup& skip) {
      reason = skip.reason;
    }
  }
  return skip_group(state, group, reason);
}

/// Builds the aggregated fail-fast error out of every observed failure.
[[noreturn]] void throw_aggregated(const std::vector<std::string>& errors) {
  if (errors.size() == 1) throw ExecError(errors.front());
  std::string message =
      std::to_string(errors.size()) + " tasks failed: ";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) message += "; ";
    message += support::numbered("[", i + 1);
    message += "] ";
    message += errors[i];
  }
  throw ExecError(message);
}

/// The one scheduler every run goes through: a ready queue over the
/// task-group DAG (`TaskGroup::preds`).  Each worker — the calling thread,
/// plus pool helpers in a parallel run — pops the lowest-indexed ready
/// group, runs it outside the lock and releases its successors, so one
/// worker runs the groups exactly in plan order.
///
/// Stopping: a fail-fast failure or a cancel stops dequeuing while groups
/// already running finish and journal normally; any exception escaping a
/// group (journal, history or structural errors — tool failures are
/// verdicts, not exceptions) stops it the same way and is rethrown on the
/// caller once no helper is inside a group.  Helpers share ownership of
/// the scheduler: one that wakes after the caller has left sees it stopped
/// and returns without touching the run.
class Scheduler {
 public:
  Scheduler(RunState& state, const std::vector<TaskGroup>& groups)
      : state_(&state),
        groups_(&groups),
        total_(groups.size()),
        fail_fast_(state.options->fault.mode == FailureMode::kFailFast),
        succs_(groups.size()),
        waiting_(groups.size()),
        status_(groups.size(), TaskStatus::kOk) {
    for (std::size_t g = 0; g < total_; ++g) {
      waiting_[g] = groups[g].preds.size();
      for (const std::size_t p : groups[g].preds) succs_[p].push_back(g);
      if (waiting_[g] == 0) ready_.push(g);
    }
  }

  /// One worker's loop; returns once nothing is left for it to dequeue.
  void work() {
    std::unique_lock lock(mutex_);
    while (true) {
      cv_.wait(lock, [&] { return stopped() || !ready_.empty(); });
      if (stopped()) return;
      // Checked at dequeue time: a queued group never starts, so it leaves
      // no task-started frame and resume re-plans it cleanly instead of
      // treating it as an in-flight casualty.
      if (cancel_requested(*state_)) {
        cancelled_ = true;
        cv_.notify_all();
        return;
      }
      const std::size_t g = ready_.top();
      ready_.pop();
      ++busy_;
      lock.unlock();
      TaskOutcome outcome;
      std::exception_ptr thrown;
      try {
        outcome = run_group(*state_, *groups_, status_, g);
      } catch (...) {
        thrown = std::current_exception();
      }
      lock.lock();
      --busy_;
      if (thrown) {
        if (!failed_) error_ = thrown;
        failed_ = true;
      } else {
        complete(g, outcome);
      }
      cv_.notify_all();
    }
  }

  /// Called by the caller once its own `work` returned: waits until no
  /// helper is inside a group, then throws or hands back the result.
  ExecResult finish() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return busy_ == 0; });
    // Taken out: a helper may release the scheduler while the caller reads it.
    if (failed_) std::rethrow_exception(std::exchange(error_, nullptr));
    if (aborted_) throw_aggregated(failures_);
    if (cancelled_) {
      throw RunCancelled("flow '" + state_->flow->name() +
                         "': run cancelled with " +
                         std::to_string(completed_) + " of " +
                         std::to_string(total_) +
                         " task groups completed; resumable");
    }
    return std::move(state_->result);
  }

 private:
  /// Once true, stays true: nothing is dequeued any more.
  [[nodiscard]] bool stopped() const {
    return failed_ || aborted_ || cancelled_ || completed_ == total_;
  }

  /// Records `g`'s verdict and releases its successors.  Holds `mutex_`.
  void complete(std::size_t g, const TaskOutcome& outcome) {
    status_[g] = outcome.status;
    if (outcome.status == TaskStatus::kFailed ||
        outcome.status == TaskStatus::kPartial) {
      failures_.insert(failures_.end(), outcome.errors.begin(),
                       outcome.errors.end());
      if (fail_fast_) {
        aborted_ = true;
        return;
      }
    }
    ++completed_;
    for (const std::size_t s : succs_[g]) {
      if (--waiting_[s] == 0) ready_.push(s);
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  /// The run.  A worker touches it only inside `run_group` or before the
  /// scheduler has stopped; the caller's `finish` outlasts both.
  RunState* state_;
  const std::vector<TaskGroup>* groups_;
  const std::size_t total_;
  const bool fail_fast_;
  std::vector<std::vector<std::size_t>> succs_;
  /// Predecessors of each group not yet completed.
  std::vector<std::size_t> waiting_;
  /// Final verdicts; a group's entry is written before its successors are
  /// released and never changes afterwards.
  std::vector<TaskStatus> status_;
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<>>
      ready_;
  std::size_t completed_ = 0;
  /// Workers inside `run_group`.
  std::size_t busy_ = 0;
  std::vector<std::string> failures_;
  std::exception_ptr error_;  // the first a group threw; `finish` takes it
  bool failed_ = false;       // a group threw
  bool aborted_ = false;    // fail-fast failure
  bool cancelled_ = false;  // cooperative cancel: the run stays open
};

/// Runs `groups` on the calling thread, joined in a parallel run by
/// `min(max_threads, groups) - 1` pool helpers.
ExecResult run_groups(RunState& state, const std::vector<TaskGroup>& groups) {
  const ExecOptions& options = *state.options;
  const auto scheduler = std::make_shared<Scheduler>(state, groups);
  const std::size_t workers =
      options.parallel ? std::min(std::max<std::size_t>(options.max_threads, 1),
                                  groups.size())
                       : 1;
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      WorkerPool::instance().submit([scheduler]() { scheduler->work(); });
    } catch (const std::system_error&) {
      break;  // no thread to spare: the caller alone still runs every group
    }
  }
  scheduler->work();
  return scheduler->finish();
}

/// The groups of a goal run, in plan order: those with an output in the
/// goal's closure (`scope`, sorted).  A multi-output task naturally
/// produces its siblings along the way.  The closure holds every group's
/// dependencies, so kept groups only need their `preds` renumbered.
std::vector<TaskGroup> closure_groups(std::vector<TaskGroup> groups,
                                      const std::vector<NodeId>& scope) {
  std::vector<std::size_t> position(groups.size());
  std::vector<TaskGroup> kept;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const bool needed = std::any_of(
        groups[g].outputs.begin(), groups[g].outputs.end(), [&](NodeId out) {
          return std::binary_search(scope.begin(), scope.end(), out);
        });
    if (!needed) continue;
    position[g] = kept.size();
    kept.push_back(std::move(groups[g]));
    for (std::size_t& p : kept.back().preds) p = position[p];
  }
  return kept;
}

/// Opens the run record: journals the bound flow, options and seed so the
/// run can be resumed after a crash.  `replaces` names the interrupted run
/// a resume supersedes: it is closed ("resumed") only *after* the
/// replacement's run-begin frame is journaled, so a crash or throw anywhere
/// before this point leaves it resumable.
void begin_run_intents(RunState& state, const TaskGraph& flow,
                       const ExecOptions& options, NodeId goal,
                       std::optional<std::uint64_t> replaces) {
  std::uint32_t next = 0;
  for (const NodeId n : flow.nodes()) state.compact[n.value()] = next++;
  history::RunRecord run;
  run.flow_name = flow.name();
  run.user = options.user;
  run.options = encode_exec_options(options);
  run.seed = options.fault.seed;
  if (goal.valid()) {
    run.goal = flow.schema().entity_name(flow.node(goal).type);
    run.goal_node = static_cast<std::int64_t>(state.compact.at(goal.value()));
  }
  run.flow_text = flow.save();
  state.run_id = state.db->begin_run(std::move(run));
  if (replaces) state.db->end_run(*replaces, "resumed");
}

/// Runs the groups and closes the run record: "complete" when every task
/// produced, "failed" on partial results or a thrown abort.
ExecResult run_to_completion(RunState& state,
                             const std::vector<TaskGroup>& groups) {
  try {
    ExecResult result = run_groups(state, groups);
    state.db->end_run(state.run_id,
                      result.complete() ? "complete" : "failed");
    return result;
  } catch (const RunCancelled&) {
    // Deliberately NOT closed: a cancelled run is an interrupted run.  The
    // open record is exactly what `Executor::resume` (and crash recovery's
    // seal sweep) need to pick the flow back up.
    throw;
  } catch (...) {
    state.db->end_run(state.run_id, "failed");
    throw;
  }
}

}  // namespace

std::string encode_exec_options(const ExecOptions& options) {
  support::RecordWriter w("opts");
  w.field(static_cast<std::uint32_t>(options.parallel ? 1 : 0));
  w.field(static_cast<std::uint32_t>(options.max_threads));
  w.field(static_cast<std::uint32_t>(options.reuse_existing ? 1 : 0));
  w.field(options.user);
  w.field(static_cast<std::int64_t>(options.task_latency.count()));
  w.field(static_cast<std::uint32_t>(options.fault.mode));
  w.field(static_cast<std::uint32_t>(options.fault.max_retries));
  w.field(static_cast<std::int64_t>(options.fault.backoff.count()));
  w.field(options.fault.backoff_multiplier);
  w.field(static_cast<std::int64_t>(options.fault.timeout.count()));
  w.field(static_cast<std::int64_t>(options.fault.seed));
  return w.str();
}

ExecOptions decode_exec_options(std::string_view text) {
  support::RecordReader rec(text);
  if (rec.kind() != "opts") {
    throw ExecError("malformed run options record '" +
                    std::string(rec.kind()) + "'");
  }
  ExecOptions options;
  options.parallel = rec.next_uint32() != 0;
  options.max_threads = rec.next_uint32();
  options.reuse_existing = rec.next_uint32() != 0;
  options.user = rec.next_string();
  options.task_latency = std::chrono::milliseconds(rec.next_int64());
  const std::uint32_t mode = rec.next_uint32();
  if (mode > static_cast<std::uint32_t>(FailureMode::kBestEffort)) {
    throw ExecError("malformed run options: unknown failure mode");
  }
  options.fault.mode = static_cast<FailureMode>(mode);
  options.fault.max_retries = rec.next_uint32();
  options.fault.backoff = std::chrono::milliseconds(rec.next_int64());
  options.fault.backoff_multiplier = rec.next_double();
  options.fault.timeout = std::chrono::milliseconds(rec.next_int64());
  options.fault.seed = static_cast<std::uint64_t>(rec.next_int64());
  return options;
}

ExecResult Executor::run(const TaskGraph& flow, const ExecOptions& options) {
  return run_impl(flow, NodeId(), options, std::nullopt);
}

ExecResult Executor::run_goal(const TaskGraph& flow, NodeId goal,
                              const ExecOptions& options) {
  return run_impl(flow, goal, options, std::nullopt);
}

ExecResult Executor::run_impl(const TaskGraph& flow, NodeId goal,
                              const ExecOptions& options,
                              std::optional<std::uint64_t> replaces) {
  flow.check();
  // A goal run is the same run over the goal's closure.
  const std::vector<NodeId> scope =
      goal.valid() ? flow.closure(goal) : flow.nodes();
  RunState state;
  state.flow = &flow;
  state.db = db_;
  state.tools = tools_;
  state.options = &options;
  state.cancel = cancel_;
  for (const NodeId n : scope) {
    if (!flow.is_leaf(n)) continue;
    if (flow.bindings(n).empty()) {
      throw FlowError("flow '" + flow.name() + "': leaf node '" +
                      flow.schema().entity_name(flow.node(n).type) +
                      "' is not bound to an instance");
    }
    state.env[n.value()] = flow.bindings(n);
  }
  // A cancel raised before the run-begin frame leaves no trace at all — in
  // particular, a resume's interrupted run is not closed "resumed" for a
  // replacement that never opened.
  if (cancel_requested(state)) {
    throw RunCancelled("flow '" + flow.name() +
                       "': run cancelled before it started");
  }
  std::vector<TaskGroup> groups = flow.task_groups();
  if (goal.valid()) groups = closure_groups(std::move(groups), scope);
  begin_run_intents(state, flow, options, goal, replaces);
  return run_to_completion(state, groups);
}

ExecResult Executor::resume(std::uint64_t run_id) {
  const history::RunRecord* record = db_->find_run(run_id);
  if (record == nullptr) {
    throw ExecError("no run #" + std::to_string(run_id) + " in the history");
  }
  if (!record->open()) {
    throw ExecError("run #" + std::to_string(run_id) + " already ended ('" +
                    record->outcome + "'); nothing to resume");
  }
  if (record->flow_text.empty()) {
    throw ExecError("run #" + std::to_string(run_id) +
                    " has no flow recorded; cannot resume");
  }
  const TaskGraph flow = TaskGraph::load(db_->schema(), record->flow_text);
  ExecOptions options = decode_exec_options(record->options);
  // Memoization is what skips completed tasks: their products are in the
  // history, while quarantined partials are invisible and re-derived.
  options.reuse_existing = true;
  const NodeId goal = record->goal_node >= 0
                          ? NodeId(static_cast<std::uint32_t>(record->goal_node))
                          : NodeId();
  // The interrupted run is closed ("resumed") by begin_run_intents, only
  // after the replacement's run-begin frame is journaled: if anything
  // throws before that point — flow.check, a missing tool — the run stays
  // open and resumable instead of being orphaned with nothing re-executed.
  return run_impl(flow, goal, options, run_id);
}

}  // namespace herc::exec
