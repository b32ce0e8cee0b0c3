#include "cli/interpreter.hpp"

#include <algorithm>
#include <filesystem>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

#include "analyze/flow_lint.hpp"
#include "analyze/plan_check.hpp"
#include "analyze/schema_lint.hpp"
#include "exec/automation.hpp"
#include "exec/consistency.hpp"
#include "graph/bipartite.hpp"
#include "history/flow_trace.hpp"
#include "history/query_language.hpp"
#include "schema/schema_io.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/fsck.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/text.hpp"

namespace herc::cli {

using data::InstanceId;
using graph::NodeId;
using graph::TaskGraph;
using support::HercError;
using enum CommandAccess;

/// One command form: a row of the command table.
struct CommandSpec {
  std::string_view verb;
  /// Null when the verb takes no subcommand.  Otherwise matched against
  /// the first argument after the verb that is not a `--` flag ("" when
  /// there is none, as in a bare `store`).
  const char* subcommand;
  CommandAccess access;
  /// False for forms that would replace or detach state the other
  /// clients of a shared session are using.
  bool shared;
  /// What the form's usage errors print.
  std::string_view usage;
  /// Null for `quit` and `exit`, which end the script.
  void (Interpreter::Call::*handler)();
};

namespace {

/// Errors raised for malformed commands (as opposed to framework errors
/// raised by the operations themselves).
class UsageError : public HercError {
 public:
  using HercError::HercError;
};

std::string read_file(const std::string& path) {
  std::optional<std::string> text = support::read_file(path);
  if (!text) throw UsageError("cannot read file '" + path + "'");
  return std::move(*text);
}

/// Prints a lint report.  Error severity fails the command, like fsck's
/// corruption, so scripts (and `run_script(stop_on_error)`) stop at it.
support::Severity print_lint(std::ostream& out,
                             const analyze::LintReport& report, bool json) {
  out << (json ? report.render_json() : report.render());
  if (report.severity() == support::Severity::kError) {
    throw HercError("lint: errors in " + report.subject() +
                    " (see report above)");
  }
  return report.severity();
}

constexpr std::string_view kHelp =
    "session new <fig1|fig2|full> [user] | user <n> | save <f> | load <f>\n"
    "open <dir> [sync=none|interval|commit] [every=N]   (durable store;\n"
    "    recovers snapshot+journal, then autosaves every record)\n"
    "checkpoint   (snapshot compaction)    store [close|sync]\n"
    "runs   (execution log)    resume [<run#>]   (re-run interrupted run;\n"
    "    finished tasks are skipped via memoization)\n"
    "fsck <dir> [--repair] [--json]   (offline history audit: exit 0\n"
    "    clean, 1 warnings, 2 corruption; clean-severity notes, e.g.\n"
    "    replica-store on a read replica, never raise the exit code;\n"
    "    --repair quarantines/tombstones and rebuilds indexes)\n"
    "lint schema | flow <f> [goal <node>] [parallel] [continue|besteffort]\n"
    "    | store <dir>   [--json]   (static analysis: HLxxx diagnostics,\n"
    "    same 0/1/2 severity convention as fsck)\n"
    "schema show | schema extend <<END ... END\n"
    "import <Entity> <name> <<END ... END   (or \"\" for empty payload)\n"
    "flow new <f> goal <Entity> | plan <name>\n"
    "flow expand|expandup|specialize|connect|cooutput|unexpand <f> ...\n"
    "flow bind <f> <node> <iN...> | unbind <f> <node>\n"
    "flow show|lisp|dot|bipartite|save-plan <f>\n"
    "run <f> [parallel] [reuse] [continue|besteffort] [retries=N]\n"
    "    [timeout=MS] [backoff=MS] [latency=MS] [faults=SEED]\n"
    "    auto <Entity> [run]\n"
    "browse <Entity> [keyword=..] [user=..] [uses=iN] [from=MICROS]\n"
    "    [to=MICROS] [limit=N] [after=CURSOR]   (limit/after page through\n"
    "    the listing via the secondary indexes when a store is open)\n"
    "find <Entity> [where <path> = iN|\"name\" [and ...]]\n"
    "failures   (failed/skipped/quarantined tasks, with their inputs)\n"
    "history|uses|versions|payload|stale|retrace|decompose <iN>\n"
    "trace <iN> backward|forward     annotate <iN> <name> [comment]\n"
    "entities  tools  plans  echo <text>  help  quit\n";

}  // namespace

/// Runs command `c` in interpreter `in`.  Each handler serves one row of
/// the command table; `execute` has already matched the row and checked
/// that a shared session allows it.
struct Interpreter::Call {
  Interpreter& in;
  const Command& c;
  std::ostream& out = *in.out_;

  static const CommandSpec kTable[];

  [[noreturn]] void usage() const {
    throw UsageError("usage: " + std::string(c.spec->usage));
  }

  /// The number after the `=` of an option word (`retries=3`, `limit=50`);
  /// a usage error when it is not a whole `T`.
  template <typename T>
  T option_value(std::string_view word) const {
    const std::optional<T> value =
        support::parse_int<T>(word.substr(word.find('=') + 1));
    if (!value) usage();
    return *value;
  }

  TaskGraph& flow_ref(const std::string& name) const {
    const auto it = in.flows_.find(name);
    if (it == in.flows_.end()) {
      throw UsageError("no flow named '" + name + "'; create one with "
                       "'flow new " + name + " goal <Entity>'");
    }
    return it->second;
  }

  /// The workspace flow a `flow <op> <f> ...` line names.
  TaskGraph& flow_arg() const {
    if (c.args.size() < 3) usage();
    return flow_ref(c.args[2]);
  }

  static NodeId node_ref(const TaskGraph& flow, const std::string& token) {
    const std::optional<std::uint32_t> v =
        support::parse_int<std::uint32_t>(token);
    if (!v) {
      throw UsageError("'" + token + "' is not a node id (use the numbers "
                       "from 'flow show')");
    }
    const NodeId id(*v);
    (void)flow.node(id);  // validates
    return id;
  }

  InstanceId instance_ref(const std::string& token) const {
    const std::optional<std::uint32_t> v =
        token.starts_with('i') ? support::parse_int<std::uint32_t>(
                                     std::string_view(token).substr(1))
                               : std::nullopt;
    if (!v) {
      throw UsageError("'" + token +
                       "' is not an instance ref (expected iN)");
    }
    const InstanceId id(*v);
    (void)in.session_->db().instance(id);  // validates
    return id;
  }

  /// The instance a history command names as its first argument.
  InstanceId subject() const {
    if (c.args.size() < 2) usage();
    return instance_ref(c.args[1]);
  }

  void print_instance_line(InstanceId id) {
    const history::Instance& inst = in.session_->db().instance(id);
    out << "i" << id.value() << "  "
        << in.session_->schema().entity_name(inst.type) << "  '"
        << inst.name << "' v" << inst.version << " by " << inst.user
        << "\n";
  }

  /// fsck and `lint store` read the on-disk state; auditing the store
  /// this session has open, they flush its journal buffer first so the
  /// audit sees every record.  True when `dir` is that store.
  bool sync_if_open(const std::string& dir) const {
    storage::DurableHistory* durable = in.session_->storage();
    std::error_code ec;
    if (durable == nullptr ||
        !std::filesystem::equivalent(durable->dir(), dir, ec)) {
      return false;
    }
    durable->sync();
    return true;
  }

  schema::TaskSchema builtin_schema() const {
    const std::string& name = c.args[2];
    if (name == "fig1") return schema::make_fig1_schema();
    if (name == "fig2") return schema::make_fig2_schema();
    if (name == "full") return schema::make_full_schema();
    usage();
  }

  void session_new() {
    if (c.args.size() < 3) usage();
    const std::string user = c.args.size() > 3 ? c.args[3] : "designer";
    in.owned_ = std::make_unique<core::DesignSession>(builtin_schema(), user);
    in.session_ = in.owned_.get();
    in.flows_.clear();
    out << "session over schema '" << in.session_->schema().name()
        << "' for user '" << user << "'\n";
  }

  void session_user() {
    if (c.args.size() != 3) usage();
    in.session_->set_user(c.args[2]);
  }

  void session_save() {
    if (c.args.size() != 3) usage();
    support::write_file_atomic(c.args[2], {in.session_->save()});
    out << "session saved to " << c.args[2] << "\n";
  }

  void session_load() {
    if (c.args.size() != 3) usage();
    in.owned_ = core::DesignSession::load(read_file(c.args[2]));
    in.session_ = in.owned_.get();
    in.flows_.clear();
    out << "session loaded: " << in.session_->db().size() << " instances\n";
  }

  void schema_show() {
    if (c.args.size() != 2) usage();
    out << schema::write_schema(in.session_->schema());
  }

  void schema_extend() {
    if (c.args.size() != 2) usage();
    in.session_->extend_schema(c.payload);
    out << "schema extended: now " << in.session_->schema().size()
        << " entities\n";
  }

  void open() {
    if (c.args.size() < 2) usage();
    storage::StoreOptions options;
    for (std::size_t i = 2; i < c.args.size(); ++i) {
      if (c.args[i] == "sync=none") {
        options.journal.sync = storage::SyncPolicy::kNone;
      } else if (c.args[i] == "sync=interval") {
        options.journal.sync = storage::SyncPolicy::kInterval;
      } else if (c.args[i] == "sync=commit") {
        options.journal.sync = storage::SyncPolicy::kCommit;
      } else if (c.args[i].starts_with("every=")) {
        options.checkpoint_every = option_value<std::uint64_t>(c.args[i]);
      } else {
        usage();
      }
    }
    const storage::RecoveryReport report =
        in.session_->open_storage(c.args[1], options);
    if (report.created) {
      out << "store created at " << c.args[1];
      if (in.session_->db().size() > 0) {
        out << " (" << in.session_->db().size()
            << " existing instances checkpointed)";
      }
      out << "\n";
    } else {
      out << "store opened at " << c.args[1] << ": epoch " << report.epoch
          << ", " << report.snapshot_instances << " snapshot + "
          << report.journal_records_applied << " journal records";
      if (report.journal_records_discarded > 0) {
        out << " (" << report.journal_records_discarded
            << " pre-checkpoint records discarded)";
      }
      if (report.torn_tail) out << " (torn tail truncated)";
      out << "\n";
    }
    if (report.interrupted_runs > 0) {
      out << "  recovery: " << report.interrupted_runs
          << " interrupted run(s), " << report.quarantined
          << " partial product(s) quarantined ('runs' lists them, "
             "'resume' re-runs)\n";
    }
  }

  void checkpoint() {
    if (c.args.size() != 1) usage();
    in.session_->checkpoint_storage();
    const storage::DurableHistory& durable = *in.session_->storage();
    out << "checkpoint: epoch " << durable.epoch() << ", "
        << in.session_->db().size()
        << " instances snapshotted, journal reset\n";
  }

  void store() {
    if (c.args.size() != 1) usage();
    const storage::DurableHistory* durable = in.session_->storage();
    if (durable == nullptr) {
      out << "no store open\n";
      return;
    }
    out << "store " << durable->dir() << ": epoch " << durable->epoch()
        << ", " << in.session_->db().size() << " instances, "
        << durable->records_journaled() << " records / "
        << durable->bytes_journaled() << " bytes journaled this session\n";
  }

  void store_close() {
    if (c.args.size() != 2) usage();
    if (in.session_->storage() == nullptr) {
      out << "no store open\n";
      return;
    }
    in.session_->close_storage();
    out << "store closed (history stays in memory)\n";
  }

  void store_sync() {
    if (c.args.size() != 2) usage();
    if (in.session_->storage() == nullptr) {
      throw HercError("store sync: no store open");
    }
    in.session_->storage()->sync();
    out << "journal synced\n";
  }

  void runs() {
    if (c.args.size() != 1) usage();
    const auto& records = in.session_->db().runs();
    if (records.empty()) {
      out << "no runs recorded\n";
      return;
    }
    for (const history::RunRecord& run : records) {
      out << "  run #" << run.id << "  flow '" << run.flow_name << "'";
      if (!run.goal.empty()) out << " goal " << run.goal;
      out << " by " << run.user << ": ";
      if (run.open()) {
        out << "OPEN (" << run.tasks_finished() << "/" << run.tasks.size()
            << " started tasks finished; resumable)";
      } else {
        out << run.outcome << " (" << run.tasks_finished() << "/"
            << run.tasks.size() << " tasks finished)";
      }
      out << "\n";
    }
  }

  void resume() {
    if (c.args.size() > 2) usage();
    std::uint64_t run_id = 0;
    if (c.args.size() == 2) {
      std::string_view token = c.args[1];
      if (token.starts_with('#')) token.remove_prefix(1);
      const std::optional<std::uint64_t> id =
          support::parse_int<std::uint64_t>(token);
      if (!id) usage();
      run_id = *id;
    } else {
      const auto open_runs = in.session_->db().open_runs();
      if (open_runs.empty()) {
        out << "no interrupted runs; nothing to resume\n";
        return;
      }
      run_id = open_runs.back()->id;
    }
    const exec::ExecResult result = in.session_->resume_run(run_id);
    out << "resumed run #" << run_id << ": ran " << result.tasks_run
        << " tasks (" << result.tasks_reused << " reused";
    if (result.tasks_failed > 0 || result.tasks_skipped > 0) {
      out << ", " << result.tasks_failed << " failed, "
          << result.tasks_skipped << " skipped";
    }
    out << ")\n";
    if (!result.complete()) {
      in.last_error_ = "resume incomplete: " +
                       std::to_string(result.tasks_failed) + " failed, " +
                       std::to_string(result.tasks_skipped) + " skipped";
      in.last_severity_ = support::Severity::kError;
    }
  }

  void fsck() {
    storage::FsckOptions options;
    bool json = false;
    std::string dir;
    for (std::size_t i = 1; i < c.args.size(); ++i) {
      if (c.args[i] == "--repair") {
        options.repair = true;
      } else if (c.args[i] == "--json") {
        json = true;
      } else if (dir.empty()) {
        dir = c.args[i];
      } else {
        usage();
      }
    }
    if (dir.empty()) usage();
    // Repair rewrites the snapshot and replaces the journal — doing that
    // under the live handle would leave the open store's in-memory image
    // and journal handle stale, clobbering the repaired files on the next
    // append or checkpoint.
    if (sync_if_open(dir) && options.repair) {
      throw support::HistoryError(
          "fsck --repair: '" + dir +
          "' is the store this session has open; run 'store close' "
          "first, then repair and reopen");
    }
    const storage::FsckReport report = storage::fsck_store(dir, options);
    out << (json ? report.render_json() : report.render());
    if (report.severity() == storage::FsckSeverity::kCorruption) {
      throw support::HistoryError("fsck: corruption detected in '" + dir +
                                  "' (see report above)");
    }
    if (report.severity() == storage::FsckSeverity::kWarning) {
      in.last_severity_ = support::Severity::kWarning;
    }
  }

  void lint_schema() {
    std::vector<std::string> args = c.args;
    const bool json = std::erase(args, "--json") > 0;
    if (args.size() != 2) usage();
    in.last_severity_ =
        print_lint(out, analyze::lint_schema(in.session_->schema()), json);
  }

  void lint_flow() {
    std::vector<std::string> args = c.args;
    const bool json = std::erase(args, "--json") > 0;
    if (args.size() < 3) usage();
    TaskGraph& flow = flow_ref(args[2]);
    analyze::FlowLintOptions flow_opts;
    flow_opts.db = &in.session_->db();
    flow_opts.tools = &in.session_->tools();
    // The plan pass simulates the schedule the designer intends, so its
    // toggles mirror `run`'s; without `parallel` or `continue` it has
    // nothing to check (a serial fail-fast run has no races).
    analyze::PlanCheckOptions plan_opts;
    plan_opts.parallel = false;
    for (std::size_t i = 3; i < args.size(); ++i) {
      if (args[i] == "goal") {
        if (i + 1 >= args.size()) usage();
        flow_opts.goal = node_ref(flow, args[++i]);
      } else if (args[i] == "parallel") {
        plan_opts.parallel = true;
      } else if (args[i] == "continue" || args[i] == "besteffort") {
        plan_opts.continue_on_failure = true;
      } else {
        usage();
      }
    }
    analyze::LintReport report = analyze::lint_flow(flow, flow_opts);
    report.merge(analyze::lint_plan(flow, plan_opts));
    in.last_severity_ = print_lint(out, report, json);
  }

  void lint_store() {
    std::vector<std::string> args = c.args;
    const bool json = std::erase(args, "--json") > 0;
    if (args.size() != 3) usage();
    const std::string& dir = args[2];
    analyze::LintReport report("store '" + dir + "'");
    // Cross-call into fsck for the on-disk checks: fsck reads raw store
    // files (it is deliberately schema-less), so lint wraps it rather than
    // the other way round.
    const bool own_store = sync_if_open(dir);
    const storage::FsckReport audit = storage::fsck_store(dir);
    for (const storage::FsckFinding& f : audit.findings) {
      report.add(f.severity == support::Severity::kError ? "HL302" : "HL301",
                 f.severity, "store '" + dir + "'", f.code + ": " + f.detail,
                 "run 'fsck " + dir + " --repair' to fix what is "
                 "repairable");
    }
    // The store-only checks fsck cannot do: each interrupted run journals
    // its bound flow, which this session *can* interpret against its
    // schema — lint them so a resume's defects surface before re-running.
    if (own_store) {
      for (const history::RunRecord* run : in.session_->db().open_runs()) {
        if (run->flow_text.empty()) continue;
        try {
          TaskGraph flow =
              TaskGraph::load(in.session_->schema(), run->flow_text);
          analyze::FlowLintOptions flow_opts;
          flow_opts.db = &in.session_->db();
          flow_opts.tools = &in.session_->tools();
          analyze::LintReport flow_report =
              analyze::lint_flow(flow, flow_opts);
          for (analyze::Diagnostic d : flow_report.diagnostics()) {
            d.location = "run #" + std::to_string(run->id) + ", " +
                         d.location;
            report.add(std::move(d));
          }
        } catch (const HercError& e) {
          report.add("HL303", support::Severity::kError,
                     "run #" + std::to_string(run->id),
                     std::string("journaled flow does not load against the "
                                 "session schema: ") + e.what(),
                     "the run cannot be resumed in this session");
        }
      }
    }
    in.last_severity_ = print_lint(out, report, json);
  }

  void import() {
    if (c.args.size() < 3) usage();
    std::string body = c.payload;
    if (c.args.size() >= 4 && c.args[3] == "\"\"") body.clear();
    const InstanceId id =
        in.session_->import_data(c.args[1], c.args[2], body);
    out << "imported i" << id.value() << " (" << c.args[1] << " '"
        << c.args[2] << "', " << body.size() << " bytes)\n";
  }

  void flow_new() {
    if (c.args.size() != 5) usage();
    const std::string& name = c.args[2];
    if (in.flows_.contains(name)) {
      throw UsageError("flow '" + name + "' already exists");
    }
    if (c.args[3] == "goal") {
      in.flows_.emplace(name, in.session_->task_from_goal(c.args[4]));
    } else if (c.args[3] == "plan") {
      in.flows_.emplace(name, in.session_->task_from_plan(c.args[4]));
    } else {
      usage();
    }
    out << "flow '" << name << "' created\n";
  }

  void flow_expand() {
    TaskGraph& flow = flow_arg();
    if (c.args.size() < 4) usage();
    graph::ExpandOptions options;
    options.include_optional = c.args.size() > 4 && c.args[4] == "optional";
    const auto created = flow.expand(node_ref(flow, c.args[3]), options);
    out << "expanded: " << created.size() << " nodes created\n";
  }

  void flow_expandup() {
    TaskGraph& flow = flow_arg();
    if (c.args.size() != 5) usage();
    const NodeId consumer = flow.expand_up(
        node_ref(flow, c.args[3]), in.session_->schema().require(c.args[4]));
    out << "consumer node " << consumer.value() << " created\n";
  }

  void flow_specialize() {
    TaskGraph& flow = flow_arg();
    if (c.args.size() != 5) usage();
    flow.specialize(node_ref(flow, c.args[3]),
                    in.session_->schema().require(c.args[4]));
  }

  void flow_connect() {
    TaskGraph& flow = flow_arg();
    if (c.args.size() != 5) usage();
    flow.connect(node_ref(flow, c.args[3]), node_ref(flow, c.args[4]));
  }

  void flow_cooutput() {
    TaskGraph& flow = flow_arg();
    if (c.args.size() != 5) usage();
    const NodeId out_node = flow.add_co_output(
        node_ref(flow, c.args[3]), in.session_->schema().require(c.args[4]));
    out << "co-output node " << out_node.value() << " created\n";
  }

  void flow_unexpand() {
    TaskGraph& flow = flow_arg();
    if (c.args.size() != 4) usage();
    flow.unexpand(node_ref(flow, c.args[3]));
  }

  void flow_bind() {
    TaskGraph& flow = flow_arg();
    if (c.args.size() < 5) usage();
    std::vector<InstanceId> instances;
    for (std::size_t i = 4; i < c.args.size(); ++i) {
      instances.push_back(instance_ref(c.args[i]));
    }
    flow.bind_set(node_ref(flow, c.args[3]), std::move(instances));
  }

  void flow_unbind() {
    TaskGraph& flow = flow_arg();
    if (c.args.size() != 4) usage();
    flow.unbind(node_ref(flow, c.args[3]));
  }

  void flow_show() { out << in.session_->render_task_window(flow_arg()); }

  void flow_lisp() {
    TaskGraph& flow = flow_arg();
    for (const NodeId goal : flow.goals()) out << flow.to_lisp(goal) << "\n";
  }

  void flow_dot() { out << flow_arg().to_dot(); }

  void flow_bipartite() {
    out << graph::to_bipartite(flow_arg()).render_text();
  }

  void flow_save_plan() {
    TaskGraph& flow = flow_arg();
    in.session_->flows().save_or_replace(flow);
    out << "plan '" << flow.name() << "' saved\n";
  }

  void run() {
    if (c.args.size() < 2) usage();
    TaskGraph& flow = flow_ref(c.args[1]);
    exec::ExecOptions options;
    const auto millis = [&](std::string_view word) {
      return std::chrono::milliseconds(option_value<std::uint32_t>(word));
    };
    for (std::size_t i = 2; i < c.args.size(); ++i) {
      const std::string& word = c.args[i];
      if (word == "parallel") {
        options.parallel = true;
      } else if (word == "reuse") {
        options.reuse_existing = true;
      } else if (word == "continue") {
        options.fault.mode = exec::FailureMode::kContinueBranches;
      } else if (word == "besteffort") {
        options.fault.mode = exec::FailureMode::kBestEffort;
      } else if (word.starts_with("retries=")) {
        options.fault.max_retries = option_value<std::size_t>(word);
      } else if (word.starts_with("timeout=")) {
        options.fault.timeout = millis(word);
      } else if (word.starts_with("backoff=")) {
        options.fault.backoff = millis(word);
      } else if (word.starts_with("latency=")) {
        // Artificial per-task latency: emulates slow external tools, which
        // is how tests and the server smoke script hold a run in flight
        // long enough to interrupt it.
        options.task_latency = millis(word);
      } else if (word.starts_with("faults=")) {
        // Deterministic pseudo-random tool failures for this run (the
        // chaos harness's fault plan); 0 disables.  Pair with continue/
        // besteffort and retries, or the first exhausted task aborts the
        // run.
        options.fault.seed = option_value<std::uint64_t>(word);
      } else {
        usage();
      }
    }
    const exec::ExecResult result = in.session_->run(flow, options);
    out << "ran " << result.tasks_run << " tasks (" << result.tasks_reused
        << " reused";
    if (result.tasks_failed > 0 || result.tasks_skipped > 0) {
      out << ", " << result.tasks_failed << " failed, "
          << result.tasks_skipped << " skipped";
    }
    out << ")\n";
    for (const NodeId goal : flow.goals()) {
      for (const InstanceId id : result.of(goal)) {
        out << "  produced ";
        print_instance_line(id);
      }
    }
    if (!result.complete()) {
      for (const auto& [node, outcome] : result.outcomes) {
        if (outcome.status == exec::TaskStatus::kOk) continue;
        const char* verdict =
            outcome.status == exec::TaskStatus::kSkipped   ? "skipped"
            : outcome.status == exec::TaskStatus::kPartial ? "partial"
                                                           : "FAILED";
        out << "  " << verdict << " "
            << in.session_->schema().entity_name(flow.node(node).type);
        if (!outcome.errors.empty()) out << ": " << outcome.errors.front();
        out << "\n";
      }
      // The details are already printed; the command itself still failed
      // — scripts and the shell's exit code must see an incomplete run as
      // an error, not a success with sad output.
      in.last_error_ = "run incomplete: " +
                       std::to_string(result.tasks_failed) + " failed, " +
                       std::to_string(result.tasks_skipped) + " skipped";
      in.last_severity_ = support::Severity::kError;
    }
  }

  void auto_flow() {
    if (c.args.size() < 2) usage();
    const TaskGraph flow = exec::auto_flow(
        in.session_->db(), in.session_->schema().require(c.args[1]));
    out << in.session_->render_task_window(flow);
    if (c.args.size() > 2 && c.args[2] == "run") {
      const exec::ExecResult result = in.session_->run(flow);
      out << "ran " << result.tasks_run << " tasks\n";
      for (const InstanceId id : result.of(flow.goals().front())) {
        out << "  produced ";
        print_instance_line(id);
      }
    }
  }

  void browse() {
    if (c.args.size() < 2) usage();
    core::BrowserFilter filter;
    std::optional<std::size_t> limit;
    std::optional<history::PageCursor> after;
    for (std::size_t i = 2; i < c.args.size(); ++i) {
      const std::string& word = c.args[i];
      const std::size_t eq = word.find('=');
      if (eq == std::string::npos) usage();
      const std::string key = word.substr(0, eq);
      const std::string value = word.substr(eq + 1);
      if (key == "keyword") {
        filter.keyword = value;
      } else if (key == "user") {
        filter.user = value;
      } else if (key == "uses") {
        filter.uses = instance_ref(value);
      } else if (key == "from") {
        filter.from = support::Timestamp(option_value<std::int64_t>(word));
      } else if (key == "to") {
        filter.to = support::Timestamp(option_value<std::int64_t>(word));
      } else if (key == "limit") {
        limit = option_value<std::size_t>(word);
      } else if (key == "after") {
        after = history::PageCursor::decode(value);
      } else {
        usage();
      }
    }
    const core::InstanceBrowser browser = in.session_->browse(c.args[1]);
    if (limit || after) {
      // Paged mode: the header names the access path the planner chose
      // and a trailing "next:" cursor resumes the listing where it
      // stopped.
      const core::BrowserPage page =
          browser.page(filter, limit.value_or(50), after);
      out << browser.render_page(page);
    } else {
      out << browser.render(filter);
    }
  }

  void find() {
    // Pass the original token sequence through to the query language.
    for (const InstanceId id :
         history::run_query(in.session_->db(), support::join(c.args, " "),
                            in.session_->indexes())) {
      out << "  ";
      print_instance_line(id);
    }
  }

  void failures() {
    // §4.2-style failure query: which tasks failed, with what inputs?
    for (const InstanceId id : in.session_->db().failures()) {
      const history::Instance& inst = in.session_->db().instance(id);
      const char* label =
          inst.status == history::InstanceStatus::kFailed ? "failed "
          : inst.status == history::InstanceStatus::kQuarantined
              ? "quarantined"
              : "skipped";
      out << "  " << label << " "
          << in.session_->schema().entity_name(inst.type) << " i"
          << id.value() << " (task '" << inst.derivation.task << "'";
      if (!inst.derivation.inputs.empty()) {
        out << ", inputs:";
        for (const InstanceId input : inst.derivation.inputs) {
          out << " i" << input.value();
        }
      }
      out << "): " << inst.comment << "\n";
    }
  }

  void history() {
    for (const InstanceId anc :
         in.session_->db().derivation_closure(subject())) {
      out << "  ";
      print_instance_line(anc);
    }
  }

  void uses() {
    for (const InstanceId dep :
         in.session_->db().dependent_closure(subject())) {
      out << "  ";
      print_instance_line(dep);
    }
  }

  void trace() {
    const InstanceId id = subject();
    const std::string direction = c.args.size() > 2 ? c.args[2] : "backward";
    if (direction == "backward") {
      out << history::backward_trace(in.session_->db(), id).to_dot();
    } else if (direction == "forward") {
      out << history::forward_trace(in.session_->db(), id).to_dot();
    } else {
      usage();
    }
  }

  void versions() {
    const auto tree = history::version_tree(in.session_->db(), subject());
    for (const auto& entry : tree.entries) {
      out << "  i" << entry.instance.value() << " v" << entry.version;
      if (entry.parent.valid()) {
        out << " (edited from i" << entry.parent.value() << ")";
      }
      out << "\n";
    }
  }

  void payload() { out << in.session_->db().payload(subject()); }

  void annotate() {
    const InstanceId id = subject();
    if (c.args.size() < 3) usage();
    std::string comment;
    for (std::size_t i = 3; i < c.args.size(); ++i) {
      if (i > 3) comment += ' ';
      comment += c.args[i];
    }
    in.session_->annotate(id, c.args[2], comment);
  }

  void stale() {
    const InstanceId id = subject();
    const auto report = exec::check_consistency(in.session_->db(), id);
    if (report.fresh) {
      out << "i" << id.value() << " is up to date\n";
      return;
    }
    out << "i" << id.value() << " is STALE:\n";
    for (const auto& r : report.replacements) {
      out << "  i" << r.superseded.value() << " superseded by i"
          << r.latest.value() << "\n";
    }
  }

  void retrace() {
    const InstanceId id = subject();
    // A fresh instance is a no-op, not a failure (the library-level
    // `retrace` throws here; in the shell that would abort scripts that
    // retrace defensively).
    if (exec::check_consistency(in.session_->db(), id).fresh) {
      out << "i" << id.value() << " is up to date; nothing to retrace\n";
      return;
    }
    for (const InstanceId fresh :
         exec::retrace(in.session_->db(), in.session_->tools(), id)) {
      out << "  retraced -> ";
      print_instance_line(fresh);
    }
  }

  void decompose() {
    for (const InstanceId part : exec::decompose_instance(
             in.session_->db(), subject(), in.session_->user())) {
      out << "  component ";
      print_instance_line(part);
    }
  }

  void entities() {
    for (const auto& entry : catalog::entity_catalog(in.session_->schema())) {
      out << "  " << entry.name << (entry.is_tool ? " [tool]" : "")
          << (entry.is_abstract ? " [abstract]" : "")
          << (entry.is_composite ? " [composite]" : "")
          << (entry.is_source ? " [source]" : "") << "\n";
    }
  }

  void tools() {
    for (const auto& entry : catalog::tool_catalog(in.session_->tools())) {
      out << "  " << entry.name << ":";
      for (const std::string& enc : entry.encapsulations) out << " " << enc;
      out << "\n";
    }
  }

  void plans() {
    for (const std::string& name : in.session_->flows().names()) {
      out << "  " << name << "\n";
    }
  }

  void echo() {
    for (std::size_t i = 1; i < c.args.size(); ++i) {
      out << (i > 1 ? " " : "") << c.args[i];
    }
    out << "\n";
  }

  void help() { out << kHelp; }
};

// verb, subcommand, access, allowed on a shared session, usage, handler.
const CommandSpec Interpreter::Call::kTable[] = {
    {"session", "new", kWrite, false, "session new <fig1|fig2|full> [user]",
     &Call::session_new},
    {"session", "user", kWrite, true, "session user <name>",
     &Call::session_user},
    {"session", "save", kRead, true, "session save <file>",
     &Call::session_save},
    {"session", "load", kWrite, false, "session load <file>",
     &Call::session_load},
    {"schema", "show", kRead, true, "schema show", &Call::schema_show},
    {"schema", "extend", kWrite, true, "schema extend <<END ... END",
     &Call::schema_extend},
    {"open", nullptr, kWrite, false,
     "open <dir> [sync=none|interval|commit] [every=N]", &Call::open},
    {"checkpoint", nullptr, kWrite, true, "checkpoint", &Call::checkpoint},
    {"store", "", kWrite, true, "store", &Call::store},
    {"store", "close", kWrite, false, "store close", &Call::store_close},
    {"store", "sync", kWrite, true, "store sync", &Call::store_sync},
    {"import", nullptr, kWrite, true,
     "import <Entity> <name> [\"\"] [<<END ...]", &Call::import},
    // Flow building touches only this interpreter's own workspace (it
    // reads the shared schema and history); `save-plan` publishes into
    // the session's shared flow catalog.
    {"flow", "new", kRead, true, "flow new <f> goal <Entity> | plan <name>",
     &Call::flow_new},
    {"flow", "expand", kRead, true, "flow expand <f> <node> [optional]",
     &Call::flow_expand},
    {"flow", "expandup", kRead, true, "flow expandup <f> <node> <Entity>",
     &Call::flow_expandup},
    {"flow", "specialize", kRead, true,
     "flow specialize <f> <node> <Subtype>", &Call::flow_specialize},
    {"flow", "connect", kRead, true, "flow connect <f> <consumer> <input>",
     &Call::flow_connect},
    {"flow", "cooutput", kRead, true, "flow cooutput <f> <node> <Entity>",
     &Call::flow_cooutput},
    {"flow", "unexpand", kRead, true, "flow unexpand <f> <node>",
     &Call::flow_unexpand},
    {"flow", "bind", kRead, true, "flow bind <f> <node> <iN...>",
     &Call::flow_bind},
    {"flow", "unbind", kRead, true, "flow unbind <f> <node>",
     &Call::flow_unbind},
    {"flow", "show", kRead, true, "flow show <f>", &Call::flow_show},
    {"flow", "lisp", kRead, true, "flow lisp <f>", &Call::flow_lisp},
    {"flow", "dot", kRead, true, "flow dot <f>", &Call::flow_dot},
    {"flow", "bipartite", kRead, true, "flow bipartite <f>",
     &Call::flow_bipartite},
    {"flow", "save-plan", kWrite, true, "flow save-plan <f>",
     &Call::flow_save_plan},
    {"run", nullptr, kWrite, true,
     "run <f> [parallel] [reuse] [continue|besteffort] [retries=N] "
     "[timeout=MS] [backoff=MS] [latency=MS] [faults=SEED]",
     &Call::run},
    {"runs", nullptr, kRead, true, "runs", &Call::runs},
    {"resume", nullptr, kWrite, true, "resume [<run#>]", &Call::resume},
    // fsck and `lint store` sync the open store's journal.
    {"fsck", nullptr, kWrite, true, "fsck <dir> [--repair] [--json]",
     &Call::fsck},
    {"lint", "schema", kRead, true, "lint schema [--json]",
     &Call::lint_schema},
    {"lint", "flow", kRead, true,
     "lint flow <f> [goal <node>] [parallel] [continue|besteffort] [--json]",
     &Call::lint_flow},
    {"lint", "store", kWrite, true, "lint store <dir> [--json]",
     &Call::lint_store},
    {"auto", nullptr, kWrite, true, "auto <Entity> [run]", &Call::auto_flow},
    {"browse", nullptr, kRead, true,
     "browse <Entity> [keyword=..] [user=..] [uses=iN] [from=MICROS] "
     "[to=MICROS] [limit=N] [after=CURSOR]",
     &Call::browse},
    {"find", nullptr, kRead, true,
     "find <Entity> [where <path> = iN|\"name\" [and ...]]", &Call::find},
    {"failures", nullptr, kRead, true, "failures", &Call::failures},
    {"history", nullptr, kRead, true, "history <iN>", &Call::history},
    {"uses", nullptr, kRead, true, "uses <iN>", &Call::uses},
    {"trace", nullptr, kRead, true, "trace <iN> [backward|forward]",
     &Call::trace},
    {"versions", nullptr, kRead, true, "versions <iN>", &Call::versions},
    {"payload", nullptr, kRead, true, "payload <iN>", &Call::payload},
    {"annotate", nullptr, kWrite, true, "annotate <iN> <name> [comment...]",
     &Call::annotate},
    {"stale", nullptr, kRead, true, "stale <iN>", &Call::stale},
    {"retrace", nullptr, kWrite, true, "retrace <iN>", &Call::retrace},
    {"decompose", nullptr, kWrite, true, "decompose <iN>", &Call::decompose},
    {"entities", nullptr, kRead, true, "entities", &Call::entities},
    {"tools", nullptr, kRead, true, "tools", &Call::tools},
    {"plans", nullptr, kRead, true, "plans", &Call::plans},
    {"echo", nullptr, kRead, true, "echo <text>", &Call::echo},
    {"help", nullptr, kRead, true, "help", &Call::help},
    {"quit", nullptr, kRead, true, "quit", nullptr},
    {"exit", nullptr, kRead, true, "exit", nullptr},
};

CommandAccess Command::access() const {
  return spec == nullptr ? kRead : spec->access;
}

bool Command::quits() const {
  return spec != nullptr && spec->handler == nullptr;
}

CommandAccess command_access(std::string_view line) {
  return Interpreter::parse(line).access();
}

std::optional<Command> read_command(std::istream& in) {
  const auto next_line = [&in](std::string& line) {
    if (!std::getline(in, line)) return false;
    if (line.ends_with('\r')) line.pop_back();
    return true;
  };
  std::string line;
  if (!next_line(line)) return std::nullopt;
  const std::size_t marker = support::trim(line).starts_with('#')
                                 ? std::string::npos
                                 : line.rfind("<<");
  const std::string token(
      marker == std::string::npos
          ? std::string_view()
          : support::trim(std::string_view(line).substr(marker + 2)));
  if (token.empty() || token.find(' ') != std::string::npos) {
    return Interpreter::parse(line);
  }
  std::string payload;
  std::string body;
  while (next_line(body)) {
    if (support::trim(body) == token) {
      return Interpreter::parse(std::string_view(line).substr(0, marker),
                                std::move(payload));
    }
    payload += body;
    payload += '\n';
  }
  throw HercError("unterminated heredoc <<" + token);
}

Interpreter::Interpreter(std::ostream& out)
    : out_(&out),
      owned_(std::make_unique<core::DesignSession>(
          schema::make_full_schema())),
      session_(owned_.get()) {}

Interpreter::Interpreter(std::ostream& out, core::DesignSession& session)
    : out_(&out), session_(&session), shared_session_(true) {}

Command Interpreter::parse(std::string_view line, std::string payload) {
  Command command{{}, std::move(payload)};
  const std::string_view body = support::trim(line);
  if (body.empty() || body[0] == '#') return command;
  command.args = support::split_ws(body);
  const auto sub =
      std::find_if(command.args.begin() + 1, command.args.end(),
                   [](const std::string& a) { return !a.starts_with("--"); });
  const std::string_view subcommand =
      sub == command.args.end() ? std::string_view() : *sub;
  for (const CommandSpec& spec : Call::kTable) {
    if (spec.verb == command.args[0] &&
        (spec.subcommand == nullptr || spec.subcommand == subcommand)) {
      command.spec = &spec;
      break;
    }
  }
  return command;
}

CommandStatus Interpreter::execute(std::string_view line,
                                   std::string payload) {
  return execute(parse(line, std::move(payload)));
}

CommandStatus Interpreter::execute(const Command& command) {
  if (command.args.empty()) return CommandStatus::kOk;
  if (command.quits()) return CommandStatus::kQuit;
  last_severity_ = support::Severity::kClean;
  try {
    const CommandSpec* spec = command.spec;
    if (spec == nullptr) {
      // A known verb lists its forms; anything else points at `help`.
      std::string forms;
      for (const CommandSpec& row : Call::kTable) {
        if (row.verb != command.args[0]) continue;
        forms += (forms.empty() ? "usage: " : " | ") + std::string(row.usage);
      }
      throw UsageError(!forms.empty() ? forms
                                      : "usage: unknown command '" +
                                            command.args[0] + "'; try 'help'");
    }
    if (shared_session_ && !spec->shared) {
      throw UsageError(
          "'" + std::string(spec->verb) +
          (spec->subcommand != nullptr ? std::string(" ") + spec->subcommand
                                       : "") +
          "' is not available on a shared session: it would replace or "
          "detach state other clients are using");
    }
    Call call{*this, command};
    (call.*spec->handler)();
    return last_severity_ == support::Severity::kError ? CommandStatus::kError
                                                       : CommandStatus::kOk;
  } catch (const std::exception& e) {
    last_error_ = e.what();
    last_severity_ = support::Severity::kError;
    *out_ << "error: " << e.what() << "\n";
    return CommandStatus::kError;
  }
}

std::size_t Interpreter::run_script(std::string_view text,
                                    bool stop_on_error) {
  std::istringstream in{std::string(text)};
  std::size_t failures = 0;
  try {
    while (const std::optional<Command> command = read_command(in)) {
      const CommandStatus status = execute(*command);
      if (status == CommandStatus::kQuit) break;
      if (status == CommandStatus::kError) {
        ++failures;
        if (stop_on_error) break;
      }
    }
  } catch (const HercError& e) {  // the script ended inside a heredoc
    last_error_ = e.what();
    *out_ << "error: " << last_error_ << "\n";
    ++failures;
  }
  return failures;
}

}  // namespace herc::cli
