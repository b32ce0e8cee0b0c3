#include "cli/interpreter.hpp"

#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>

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

namespace {

/// Errors raised for malformed commands (as opposed to framework errors
/// raised by the operations themselves).
class UsageError : public HercError {
 public:
  using HercError::HercError;
};

[[noreturn]] void usage(const std::string& message) {
  throw UsageError("usage: " + message);
}

std::string read_file(const std::string& path) {
  std::optional<std::string> text = support::read_file(path);
  if (!text) throw UsageError("cannot read file '" + path + "'");
  return std::move(*text);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw UsageError("cannot write file '" + path + "'");
  out << content;
}

schema::TaskSchema builtin_schema(const std::string& name) {
  if (name == "fig1") return schema::make_fig1_schema();
  if (name == "fig2") return schema::make_fig2_schema();
  if (name == "full") return schema::make_full_schema();
  usage("session new <fig1|fig2|full> [user]");
}

}  // namespace

CommandAccess command_access(std::string_view line) {
  const std::vector<std::string> args =
      support::split_ws(support::trim(line));
  if (args.empty() || args[0][0] == '#') return CommandAccess::kRead;
  const std::string& cmd = args[0];
  // Pure queries and renderings over shared state.
  if (cmd == "echo" || cmd == "help" || cmd == "quit" || cmd == "exit" ||
      cmd == "entities" || cmd == "tools" || cmd == "plans" ||
      cmd == "runs" || cmd == "failures" || cmd == "browse" ||
      cmd == "find" || cmd == "history" || cmd == "uses" || cmd == "trace" ||
      cmd == "versions" || cmd == "payload" || cmd == "stale") {
    return CommandAccess::kRead;
  }
  if (cmd == "schema") {
    return args.size() > 1 && args[1] == "show" ? CommandAccess::kRead
                                                : CommandAccess::kWrite;
  }
  // Flow building mutates only the interpreter's own workspace;
  // `save-plan` publishes into the session's shared flow catalog.
  if (cmd == "flow") {
    return args.size() > 1 && args[1] == "save-plan" ? CommandAccess::kWrite
                                                     : CommandAccess::kRead;
  }
  if (cmd == "lint") {
    // `lint store` syncs the open store's journal first; the others only
    // read the schema / a workspace flow.
    return args.size() > 1 && args[1] == "store" ? CommandAccess::kWrite
                                                 : CommandAccess::kRead;
  }
  if (cmd == "session") {
    return args.size() > 1 && args[1] == "save" ? CommandAccess::kRead
                                                : CommandAccess::kWrite;
  }
  // Everything else — import, run, resume, auto, annotate, retrace,
  // decompose, open, store, checkpoint, fsck (journal sync) — mutates, and
  // so does any command this classifier has never heard of.
  return CommandAccess::kWrite;
}

Interpreter::Interpreter(std::ostream& out)
    : out_(&out),
      owned_(std::make_unique<core::DesignSession>(
          schema::make_full_schema())),
      session_(owned_.get()) {}

Interpreter::Interpreter(std::ostream& out, core::DesignSession& session)
    : out_(&out), session_(&session), shared_session_(true) {}

void Interpreter::refuse_when_shared(const std::string& what) const {
  if (!shared_session_) return;
  throw UsageError("'" + what + "' is not available on a shared session: "
                   "it would replace or detach state other clients are "
                   "using");
}

CommandStatus Interpreter::execute(std::string_view line,
                                   std::string payload) {
  std::string_view body = support::trim(line);
  if (!body.empty() && body[0] == '#') return CommandStatus::kOk;
  const Args args = support::split_ws(body);
  if (args.empty()) return CommandStatus::kOk;
  if (args[0] == "quit" || args[0] == "exit") return CommandStatus::kQuit;
  last_severity_ = support::Severity::kClean;
  try {
    dispatch(args, payload);
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
  const auto lines = support::split(text, '\n');
  std::size_t failures = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    std::string payload;
    // Heredoc: `... <<TOKEN` followed by payload lines until TOKEN.
    const std::size_t marker = line.rfind("<<");
    if (marker != std::string::npos &&
        support::trim(line.substr(marker + 2)).find(' ') ==
            std::string::npos &&
        !support::trim(line.substr(marker + 2)).empty()) {
      const std::string token(support::trim(line.substr(marker + 2)));
      line = line.substr(0, marker);
      bool closed = false;
      for (++i; i < lines.size(); ++i) {
        if (support::trim(lines[i]) == token) {
          closed = true;
          break;
        }
        payload += lines[i];
        payload += '\n';
      }
      if (!closed) {
        last_error_ = "unterminated heredoc <<" + token;
        *out_ << "error: " << last_error_ << "\n";
        return failures + 1;
      }
    }
    const CommandStatus status = execute(line, std::move(payload));
    if (status == CommandStatus::kQuit) break;
    if (status == CommandStatus::kError) {
      ++failures;
      if (stop_on_error) break;
    }
  }
  return failures;
}

void Interpreter::dispatch(const Args& args, const std::string& payload) {
  const std::string& cmd = args[0];
  if (cmd == "session") {
    cmd_session(args);
  } else if (cmd == "schema") {
    if (args.size() == 2 && args[1] == "show") {
      *out_ << schema::write_schema(session_->schema());
    } else if (args.size() == 2 && args[1] == "extend") {
      session_->extend_schema(payload);
      *out_ << "schema extended: now " << session_->schema().size()
            << " entities\n";
    } else {
      usage("schema show | schema extend <<END ... END");
    }
  } else if (cmd == "open") {
    cmd_open(args);
  } else if (cmd == "checkpoint") {
    if (args.size() != 1) usage("checkpoint");
    session_->checkpoint_storage();
    const storage::DurableHistory& store = *session_->storage();
    *out_ << "checkpoint: epoch " << store.epoch() << ", "
          << session_->db().size() << " instances snapshotted, journal reset\n";
  } else if (cmd == "store") {
    cmd_store(args);
  } else if (cmd == "import") {
    cmd_import(args, payload);
  } else if (cmd == "flow") {
    cmd_flow(args);
  } else if (cmd == "run") {
    cmd_run(args);
  } else if (cmd == "runs") {
    cmd_runs(args);
  } else if (cmd == "resume") {
    cmd_resume(args);
  } else if (cmd == "fsck") {
    cmd_fsck(args);
  } else if (cmd == "lint") {
    cmd_lint(args);
  } else if (cmd == "auto") {
    cmd_auto(args);
  } else if (cmd == "browse") {
    cmd_browse(args);
  } else if (cmd == "find") {
    // Pass the original token sequence through to the query language.
    std::string query;
    for (const std::string& token : args) {
      if (!query.empty()) query += ' ';
      query += token;
    }
    for (const InstanceId id :
         history::run_query(session_->db(), query, session_->indexes())) {
      *out_ << "  ";
      print_instance_line(id);
    }
  } else if (cmd == "history" || cmd == "uses" || cmd == "trace" ||
             cmd == "versions" || cmd == "payload" || cmd == "annotate" ||
             cmd == "stale" || cmd == "retrace" || cmd == "decompose") {
    cmd_history_query(args);
  } else if (cmd == "failures") {
    // §4.2-style failure query: which tasks failed, with what inputs?
    for (const InstanceId id : session_->db().failures()) {
      const history::Instance& inst = session_->db().instance(id);
      const char* label =
          inst.status == history::InstanceStatus::kFailed        ? "failed "
          : inst.status == history::InstanceStatus::kQuarantined ? "quarantined"
                                                                 : "skipped";
      *out_ << "  " << label
            << " " << session_->schema().entity_name(inst.type) << " i"
            << id.value() << " (task '" << inst.derivation.task << "'";
      if (!inst.derivation.inputs.empty()) {
        *out_ << ", inputs:";
        for (const InstanceId in : inst.derivation.inputs) {
          *out_ << " i" << in.value();
        }
      }
      *out_ << "): " << inst.comment << "\n";
    }
  } else if (cmd == "entities") {
    for (const auto& entry : catalog::entity_catalog(session_->schema())) {
      *out_ << "  " << entry.name << (entry.is_tool ? " [tool]" : "")
            << (entry.is_abstract ? " [abstract]" : "")
            << (entry.is_composite ? " [composite]" : "")
            << (entry.is_source ? " [source]" : "") << "\n";
    }
  } else if (cmd == "tools") {
    for (const auto& entry : catalog::tool_catalog(session_->tools())) {
      *out_ << "  " << entry.name << ":";
      for (const std::string& enc : entry.encapsulations) {
        *out_ << " " << enc;
      }
      *out_ << "\n";
    }
  } else if (cmd == "plans") {
    for (const std::string& name : session_->flows().names()) {
      *out_ << "  " << name << "\n";
    }
  } else if (cmd == "echo") {
    for (std::size_t i = 1; i < args.size(); ++i) {
      *out_ << (i > 1 ? " " : "") << args[i];
    }
    *out_ << "\n";
  } else if (cmd == "help") {
    cmd_help();
  } else {
    usage("unknown command '" + cmd + "'; try 'help'");
  }
}

void Interpreter::cmd_session(const Args& args) {
  if (args.size() >= 3 && args[1] == "new") {
    refuse_when_shared("session new");
    const std::string user = args.size() > 3 ? args[3] : "designer";
    owned_ = std::make_unique<core::DesignSession>(builtin_schema(args[2]),
                                                   user);
    session_ = owned_.get();
    flows_.clear();
    *out_ << "session over schema '" << session_->schema().name()
          << "' for user '" << user << "'\n";
  } else if (args.size() == 3 && args[1] == "user") {
    session_->set_user(args[2]);
  } else if (args.size() == 3 && args[1] == "save") {
    write_file(args[2], session_->save());
    *out_ << "session saved to " << args[2] << "\n";
  } else if (args.size() == 3 && args[1] == "load") {
    refuse_when_shared("session load");
    owned_ = core::DesignSession::load(read_file(args[2]));
    session_ = owned_.get();
    flows_.clear();
    *out_ << "session loaded: " << session_->db().size() << " instances\n";
  } else {
    usage("session new <fig1|fig2|full> [user] | user <name> | "
          "save <file> | load <file>");
  }
}

void Interpreter::cmd_open(const Args& args) {
  static const char* kUsage =
      "open <dir> [sync=none|interval|commit] [every=N]";
  refuse_when_shared("open");
  if (args.size() < 2) usage(kUsage);
  storage::StoreOptions options;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "sync=none") {
      options.journal.sync = storage::SyncPolicy::kNone;
    } else if (args[i] == "sync=interval") {
      options.journal.sync = storage::SyncPolicy::kInterval;
    } else if (args[i] == "sync=commit") {
      options.journal.sync = storage::SyncPolicy::kCommit;
    } else if (args[i].rfind("every=", 0) == 0) {
      try {
        options.checkpoint_every = std::stoul(args[i].substr(6));
      } catch (const std::exception&) {
        usage(kUsage);
      }
    } else {
      usage(kUsage);
    }
  }
  const storage::RecoveryReport report =
      session_->open_storage(args[1], options);
  if (report.created) {
    *out_ << "store created at " << args[1];
    if (session_->db().size() > 0) {
      *out_ << " (" << session_->db().size()
            << " existing instances checkpointed)";
    }
    *out_ << "\n";
  } else {
    *out_ << "store opened at " << args[1] << ": epoch " << report.epoch
          << ", " << report.snapshot_instances << " snapshot + "
          << report.journal_records_applied << " journal records";
    if (report.journal_records_discarded > 0) {
      *out_ << " (" << report.journal_records_discarded
            << " pre-checkpoint records discarded)";
    }
    if (report.torn_tail) *out_ << " (torn tail truncated)";
    *out_ << "\n";
  }
  if (report.interrupted_runs > 0) {
    *out_ << "  recovery: " << report.interrupted_runs
          << " interrupted run(s), " << report.quarantined
          << " partial product(s) quarantined ('runs' lists them, "
             "'resume' re-runs)\n";
  }
}

void Interpreter::cmd_runs(const Args& args) {
  if (args.size() != 1) usage("runs");
  const auto& runs = session_->db().runs();
  if (runs.empty()) {
    *out_ << "no runs recorded\n";
    return;
  }
  for (const history::RunRecord& run : runs) {
    *out_ << "  run #" << run.id << "  flow '" << run.flow_name << "'";
    if (!run.goal.empty()) *out_ << " goal " << run.goal;
    *out_ << " by " << run.user << ": ";
    if (run.open()) {
      *out_ << "OPEN (" << run.tasks_finished() << "/" << run.tasks.size()
            << " started tasks finished; resumable)";
    } else {
      *out_ << run.outcome << " (" << run.tasks_finished() << "/"
            << run.tasks.size() << " tasks finished)";
    }
    *out_ << "\n";
  }
}

void Interpreter::cmd_resume(const Args& args) {
  if (args.size() > 2) usage("resume [<run#>]");
  std::uint64_t run_id = 0;
  if (args.size() == 2) {
    std::string token = args[1];
    if (!token.empty() && token[0] == '#') token = token.substr(1);
    try {
      std::size_t pos = 0;
      run_id = std::stoull(token, &pos);
      if (pos != token.size()) throw std::invalid_argument("trailing");
    } catch (const std::exception&) {
      usage("resume [<run#>]");
    }
  } else {
    const auto open = session_->db().open_runs();
    if (open.empty()) {
      *out_ << "no interrupted runs; nothing to resume\n";
      return;
    }
    run_id = open.back()->id;
  }
  const exec::ExecResult result = session_->resume_run(run_id);
  *out_ << "resumed run #" << run_id << ": ran " << result.tasks_run
        << " tasks (" << result.tasks_reused << " reused";
  if (result.tasks_failed > 0 || result.tasks_skipped > 0) {
    *out_ << ", " << result.tasks_failed << " failed, "
          << result.tasks_skipped << " skipped";
  }
  *out_ << ")\n";
  if (!result.complete()) {
    last_error_ = "resume incomplete: " +
                  std::to_string(result.tasks_failed) + " failed, " +
                  std::to_string(result.tasks_skipped) + " skipped";
    last_severity_ = support::Severity::kError;
  }
}

void Interpreter::cmd_fsck(const Args& args) {
  static const char* kUsage = "fsck <dir> [--repair] [--json]";
  storage::FsckOptions options;
  bool json = false;
  std::string dir;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--repair") {
      options.repair = true;
    } else if (args[i] == "--json") {
      json = true;
    } else if (dir.empty()) {
      dir = args[i];
    } else {
      usage(kUsage);
    }
  }
  if (dir.empty()) usage(kUsage);
  // fsck reads the on-disk state; when auditing the store this session has
  // open, flush its journal buffer first so the audit sees every record.
  // Repair, however, rewrites the snapshot and replaces the journal — doing
  // that under the live handle would leave the open store's in-memory image
  // and journal handle stale, clobbering the repaired files on the next
  // append or checkpoint.
  if (session_->storage() != nullptr) {
    std::error_code ec;
    if (std::filesystem::equivalent(session_->storage()->dir(), dir, ec)) {
      if (options.repair) {
        throw support::HistoryError(
            "fsck --repair: '" + dir +
            "' is the store this session has open; run 'store close' "
            "first, then repair and reopen");
      }
      session_->storage()->sync();
    }
  }
  const storage::FsckReport report = storage::fsck_store(dir, options);
  *out_ << (json ? report.render_json() : report.render());
  if (report.severity() == storage::FsckSeverity::kCorruption) {
    throw support::HistoryError("fsck: corruption detected in '" + dir +
                                "' (see report above)");
  }
  if (report.severity() == storage::FsckSeverity::kWarning) {
    last_severity_ = support::Severity::kWarning;
  }
}

void Interpreter::cmd_lint(const Args& args) {
  static const char* kUsage =
      "lint schema [--json] | lint flow <f> [goal <node>] [parallel] "
      "[continue|besteffort] [--json] | lint store <dir> [--json]";
  bool json = false;
  Args rest;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--json") {
      json = true;
    } else {
      rest.push_back(args[i]);
    }
  }
  if (rest.empty()) usage(kUsage);
  analyze::LintReport report;
  if (rest[0] == "schema") {
    if (rest.size() != 1) usage(kUsage);
    report = analyze::lint_schema(session_->schema());
  } else if (rest[0] == "flow") {
    if (rest.size() < 2) usage(kUsage);
    TaskGraph& flow = flow_ref(rest[1]);
    analyze::FlowLintOptions flow_opts;
    flow_opts.db = &session_->db();
    flow_opts.tools = &session_->tools();
    // The plan pass simulates the schedule the designer intends, so its
    // toggles mirror `run`'s; without `parallel` or `continue` it has
    // nothing to check (a serial fail-fast run has no races).
    analyze::PlanCheckOptions plan_opts;
    plan_opts.parallel = false;
    for (std::size_t i = 2; i < rest.size(); ++i) {
      if (rest[i] == "goal") {
        if (i + 1 >= rest.size()) usage(kUsage);
        flow_opts.goal = node_ref(flow, rest[++i]);
      } else if (rest[i] == "parallel") {
        plan_opts.parallel = true;
      } else if (rest[i] == "continue" || rest[i] == "besteffort") {
        plan_opts.continue_on_failure = true;
      } else {
        usage(kUsage);
      }
    }
    report = analyze::lint_flow(flow, flow_opts);
    report.merge(analyze::lint_plan(flow, plan_opts));
  } else if (rest[0] == "store") {
    if (rest.size() != 2) usage(kUsage);
    report = analyze::LintReport("store '" + rest[1] + "'");
    // Cross-call into fsck for the on-disk checks: fsck reads raw store
    // files (it is deliberately schema-less), so lint wraps it rather than
    // the other way round.  Sync first so the audit sees this session's
    // buffered records (same rule as `fsck`).
    const bool own_store =
        session_->storage() != nullptr && [&] {
          std::error_code ec;
          return std::filesystem::equivalent(session_->storage()->dir(),
                                             rest[1], ec);
        }();
    if (own_store) session_->storage()->sync();
    const storage::FsckReport fsck = storage::fsck_store(rest[1]);
    for (const storage::FsckFinding& f : fsck.findings) {
      report.add(f.severity == support::Severity::kError ? "HL302" : "HL301",
                 f.severity, "store '" + rest[1] + "'",
                 f.code + ": " + f.detail,
                 "run 'fsck " + rest[1] + " --repair' to fix what is "
                 "repairable");
    }
    // The store-only checks fsck cannot do: each interrupted run journals
    // its bound flow, which this session *can* interpret against its
    // schema — lint them so a resume's defects surface before re-running.
    if (own_store) {
      for (const history::RunRecord* run : session_->db().open_runs()) {
        if (run->flow_text.empty()) continue;
        try {
          TaskGraph flow =
              TaskGraph::load(session_->schema(), run->flow_text);
          analyze::FlowLintOptions flow_opts;
          flow_opts.db = &session_->db();
          flow_opts.tools = &session_->tools();
          analyze::LintReport flow_report = analyze::lint_flow(flow,
                                                               flow_opts);
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
  } else {
    usage(kUsage);
  }
  *out_ << (json ? report.render_json() : report.render());
  // Mirror cmd_fsck: error severity becomes a command failure so scripts
  // (and `run_script(stop_on_error)`) propagate it.
  if (report.severity() == support::Severity::kError) {
    throw HercError("lint: errors in " + report.subject() +
                    " (see report above)");
  }
  if (report.severity() == support::Severity::kWarning) {
    last_severity_ = support::Severity::kWarning;
  }
}

void Interpreter::cmd_store(const Args& args) {
  if (args.size() == 2 && args[1] == "close") {
    refuse_when_shared("store close");
    if (session_->storage() == nullptr) {
      *out_ << "no store open\n";
      return;
    }
    session_->close_storage();
    *out_ << "store closed (history stays in memory)\n";
    return;
  }
  if (args.size() == 2 && args[1] == "sync") {
    if (session_->storage() == nullptr) usage("store sync (no store open)");
    session_->storage()->sync();
    *out_ << "journal synced\n";
    return;
  }
  if (args.size() != 1) usage("store [close|sync]");
  const storage::DurableHistory* store = session_->storage();
  if (store == nullptr) {
    *out_ << "no store open\n";
    return;
  }
  *out_ << "store " << store->dir() << ": epoch " << store->epoch() << ", "
        << session_->db().size() << " instances, "
        << store->records_journaled() << " records / "
        << store->bytes_journaled() << " bytes journaled this session\n";
}

void Interpreter::cmd_import(const Args& args, const std::string& payload) {
  if (args.size() < 3) usage("import <Entity> <name> [\"\"] [<<END ...]");
  std::string body = payload;
  if (args.size() >= 4 && args[3] == "\"\"") body.clear();
  const InstanceId id = session_->import_data(args[1], args[2], body);
  *out_ << "imported i" << id.value() << " (" << args[1] << " '" << args[2]
        << "', " << body.size() << " bytes)\n";
}

TaskGraph& Interpreter::flow_ref(const std::string& name) {
  const auto it = flows_.find(name);
  if (it == flows_.end()) {
    throw UsageError("no flow named '" + name + "'; create one with "
                     "'flow new " + name + " goal <Entity>'");
  }
  return it->second;
}

NodeId Interpreter::node_ref(const TaskGraph& flow,
                             const std::string& token) const {
  try {
    std::size_t pos = 0;
    const unsigned long v = std::stoul(token, &pos);
    if (pos != token.size()) throw std::invalid_argument("trailing");
    const NodeId id(static_cast<std::uint32_t>(v));
    (void)flow.node(id);  // validates
    return id;
  } catch (const std::invalid_argument&) {
    throw UsageError("'" + token + "' is not a node id (use the numbers "
                     "from 'flow show')");
  }
}

InstanceId Interpreter::instance_ref(const std::string& token) const {
  if (token.size() < 2 || token[0] != 'i') {
    throw UsageError("'" + token + "' is not an instance ref (expected iN)");
  }
  try {
    std::size_t pos = 0;
    const unsigned long v = std::stoul(token.substr(1), &pos);
    if (pos + 1 != token.size()) throw std::invalid_argument("trailing");
    const InstanceId id(static_cast<std::uint32_t>(v));
    (void)session_->db().instance(id);  // validates
    return id;
  } catch (const std::invalid_argument&) {
    throw UsageError("'" + token + "' is not an instance ref (expected iN)");
  }
}

void Interpreter::cmd_flow(const Args& args) {
  if (args.size() < 3) usage("flow <op> <flow> ...");
  const std::string& op = args[1];
  const std::string& name = args[2];
  if (op == "new") {
    if (args.size() != 5) usage("flow new <f> goal <Entity> | plan <name>");
    if (flows_.contains(name)) {
      throw UsageError("flow '" + name + "' already exists");
    }
    if (args[3] == "goal") {
      flows_.emplace(name, session_->task_from_goal(args[4]));
    } else if (args[3] == "plan") {
      flows_.emplace(name, session_->task_from_plan(args[4]));
    } else {
      usage("flow new <f> goal <Entity> | plan <name>");
    }
    *out_ << "flow '" << name << "' created\n";
    return;
  }
  TaskGraph& flow = flow_ref(name);
  if (op == "expand") {
    if (args.size() < 4) usage("flow expand <f> <node> [optional]");
    graph::ExpandOptions options;
    options.include_optional = args.size() > 4 && args[4] == "optional";
    const auto created = flow.expand(node_ref(flow, args[3]), options);
    *out_ << "expanded: " << created.size() << " nodes created\n";
  } else if (op == "expandup") {
    if (args.size() != 5) usage("flow expandup <f> <node> <Entity>");
    const NodeId consumer = flow.expand_up(
        node_ref(flow, args[3]), session_->schema().require(args[4]));
    *out_ << "consumer node " << consumer.value() << " created\n";
  } else if (op == "specialize") {
    if (args.size() != 5) usage("flow specialize <f> <node> <Subtype>");
    flow.specialize(node_ref(flow, args[3]),
                    session_->schema().require(args[4]));
  } else if (op == "connect") {
    if (args.size() != 5) usage("flow connect <f> <consumer> <input>");
    flow.connect(node_ref(flow, args[3]), node_ref(flow, args[4]));
  } else if (op == "cooutput") {
    if (args.size() != 5) usage("flow cooutput <f> <node> <Entity>");
    const NodeId out_node = flow.add_co_output(
        node_ref(flow, args[3]), session_->schema().require(args[4]));
    *out_ << "co-output node " << out_node.value() << " created\n";
  } else if (op == "unexpand") {
    if (args.size() != 4) usage("flow unexpand <f> <node>");
    flow.unexpand(node_ref(flow, args[3]));
  } else if (op == "bind") {
    if (args.size() < 5) usage("flow bind <f> <node> <iN...>");
    std::vector<InstanceId> instances;
    for (std::size_t i = 4; i < args.size(); ++i) {
      instances.push_back(instance_ref(args[i]));
    }
    flow.bind_set(node_ref(flow, args[3]), std::move(instances));
  } else if (op == "unbind") {
    if (args.size() != 4) usage("flow unbind <f> <node>");
    flow.unbind(node_ref(flow, args[3]));
  } else if (op == "show") {
    *out_ << session_->render_task_window(flow);
  } else if (op == "lisp") {
    for (const NodeId goal : flow.goals()) {
      *out_ << flow.to_lisp(goal) << "\n";
    }
  } else if (op == "dot") {
    *out_ << flow.to_dot();
  } else if (op == "bipartite") {
    *out_ << graph::to_bipartite(flow).render_text();
  } else if (op == "save-plan") {
    session_->flows().save_or_replace(flow);
    *out_ << "plan '" << flow.name() << "' saved\n";
  } else {
    usage("unknown flow operation '" + op + "'");
  }
}

void Interpreter::cmd_run(const Args& args) {
  static const char* kUsage =
      "run <f> [parallel] [reuse] [continue|besteffort] [retries=N] "
      "[timeout=MS] [backoff=MS] [latency=MS] [faults=SEED]";
  if (args.size() < 2) usage(kUsage);
  TaskGraph& flow = flow_ref(args[1]);
  exec::ExecOptions options;
  const auto uint_arg = [&](const std::string& token, std::size_t prefix) {
    try {
      std::size_t pos = 0;
      const unsigned long v = std::stoul(token.substr(prefix), &pos);
      if (prefix + pos != token.size()) throw std::invalid_argument("trail");
      return v;
    } catch (const std::invalid_argument&) {
      usage(kUsage);
    }
  };
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "parallel") {
      options.parallel = true;
    } else if (args[i] == "reuse") {
      options.reuse_existing = true;
    } else if (args[i] == "continue") {
      options.fault.mode = exec::FailureMode::kContinueBranches;
    } else if (args[i] == "besteffort") {
      options.fault.mode = exec::FailureMode::kBestEffort;
    } else if (args[i].rfind("retries=", 0) == 0) {
      options.fault.max_retries = uint_arg(args[i], 8);
    } else if (args[i].rfind("timeout=", 0) == 0) {
      options.fault.timeout = std::chrono::milliseconds(uint_arg(args[i], 8));
    } else if (args[i].rfind("backoff=", 0) == 0) {
      options.fault.backoff = std::chrono::milliseconds(uint_arg(args[i], 8));
    } else if (args[i].rfind("latency=", 0) == 0) {
      // Artificial per-task latency: emulates slow external tools, which
      // is how tests and the server smoke script hold a run in flight long
      // enough to interrupt it.
      options.task_latency = std::chrono::milliseconds(uint_arg(args[i], 8));
    } else if (args[i].rfind("faults=", 0) == 0) {
      // Deterministic pseudo-random tool failures for this run (the chaos
      // harness's fault plan); 0 disables.  Pair with continue/besteffort
      // and retries, or the first exhausted task aborts the run.
      options.fault.seed = uint_arg(args[i], 7);
    } else {
      usage(kUsage);
    }
  }
  const exec::ExecResult result = session_->run(flow, options);
  *out_ << "ran " << result.tasks_run << " tasks ("
        << result.tasks_reused << " reused";
  if (result.tasks_failed > 0 || result.tasks_skipped > 0) {
    *out_ << ", " << result.tasks_failed << " failed, "
          << result.tasks_skipped << " skipped";
  }
  *out_ << ")\n";
  for (const NodeId goal : flow.goals()) {
    for (const InstanceId id : result.of(goal)) {
      *out_ << "  produced ";
      print_instance_line(id);
    }
  }
  if (!result.complete()) {
    for (const auto& [node, outcome] : result.outcomes) {
      if (outcome.status == exec::TaskStatus::kOk) continue;
      const char* verdict =
          outcome.status == exec::TaskStatus::kSkipped  ? "skipped"
          : outcome.status == exec::TaskStatus::kPartial ? "partial"
                                                         : "FAILED";
      *out_ << "  " << verdict << " "
            << session_->schema().entity_name(flow.node(node).type);
      if (!outcome.errors.empty()) *out_ << ": " << outcome.errors.front();
      *out_ << "\n";
    }
    // The details are already printed; the command itself still failed —
    // scripts and the shell's exit code must see an incomplete run as an
    // error, not a success with sad output.
    last_error_ = "run incomplete: " + std::to_string(result.tasks_failed) +
                  " failed, " + std::to_string(result.tasks_skipped) +
                  " skipped";
    last_severity_ = support::Severity::kError;
  }
}

void Interpreter::cmd_auto(const Args& args) {
  if (args.size() < 2) usage("auto <Entity> [run]");
  const TaskGraph flow =
      exec::auto_flow(session_->db(), session_->schema().require(args[1]));
  *out_ << session_->render_task_window(flow);
  if (args.size() > 2 && args[2] == "run") {
    const exec::ExecResult result = session_->run(flow);
    *out_ << "ran " << result.tasks_run << " tasks\n";
    for (const InstanceId id : result.of(flow.goals().front())) {
      *out_ << "  produced ";
      print_instance_line(id);
    }
  }
}

void Interpreter::cmd_browse(const Args& args) {
  if (args.size() < 2) {
    usage("browse <Entity> [keyword=..] [user=..] [uses=iN] [from=MICROS]"
          " [to=MICROS] [limit=N] [after=CURSOR]");
  }
  core::BrowserFilter filter;
  std::optional<std::size_t> limit;
  std::optional<history::PageCursor> after;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::size_t eq = args[i].find('=');
    if (eq == std::string::npos) {
      usage("browse filters are key=value");
    }
    const std::string key = args[i].substr(0, eq);
    const std::string value = args[i].substr(eq + 1);
    if (key == "keyword") {
      filter.keyword = value;
    } else if (key == "user") {
      filter.user = value;
    } else if (key == "uses") {
      filter.uses = instance_ref(value);
    } else if (key == "from") {
      filter.from = support::Timestamp(std::stoll(value));
    } else if (key == "to") {
      filter.to = support::Timestamp(std::stoll(value));
    } else if (key == "limit") {
      limit = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "after") {
      after = history::PageCursor::decode(value);
    } else {
      usage("unknown browse filter '" + key + "'");
    }
  }
  const core::InstanceBrowser browser = session_->browse(args[1]);
  if (limit || after) {
    // Paged mode: the header names the access path the planner chose and
    // a trailing "next:" cursor resumes the listing where it stopped.
    const core::BrowserPage page =
        browser.page(filter, limit.value_or(50), after);
    *out_ << browser.render_page(page);
  } else {
    *out_ << browser.render(filter);
  }
}

void Interpreter::print_instance_line(InstanceId id) {
  const history::Instance& inst = session_->db().instance(id);
  *out_ << "i" << id.value() << "  "
        << session_->schema().entity_name(inst.type) << "  '" << inst.name
        << "' v" << inst.version << " by " << inst.user << "\n";
}

void Interpreter::cmd_history_query(const Args& args) {
  const std::string& cmd = args[0];
  if (args.size() < 2) usage(cmd + " <iN> ...");
  const InstanceId id = instance_ref(args[1]);
  history::HistoryDb& db = session_->db();
  if (cmd == "history") {
    for (const InstanceId anc : db.derivation_closure(id)) {
      *out_ << "  ";
      print_instance_line(anc);
    }
  } else if (cmd == "uses") {
    for (const InstanceId dep : db.dependent_closure(id)) {
      *out_ << "  ";
      print_instance_line(dep);
    }
  } else if (cmd == "trace") {
    const std::string direction = args.size() > 2 ? args[2] : "backward";
    if (direction == "backward") {
      *out_ << history::backward_trace(db, id).to_dot();
    } else if (direction == "forward") {
      *out_ << history::forward_trace(db, id).to_dot();
    } else {
      usage("trace <iN> backward|forward");
    }
  } else if (cmd == "versions") {
    const auto tree = history::version_tree(db, id);
    for (const auto& entry : tree.entries) {
      *out_ << "  i" << entry.instance.value() << " v" << entry.version;
      if (entry.parent.valid()) {
        *out_ << " (edited from i" << entry.parent.value() << ")";
      }
      *out_ << "\n";
    }
  } else if (cmd == "payload") {
    *out_ << db.payload(id);
  } else if (cmd == "annotate") {
    if (args.size() < 3) usage("annotate <iN> <name> [comment...]");
    std::string comment;
    for (std::size_t i = 3; i < args.size(); ++i) {
      if (i > 3) comment += ' ';
      comment += args[i];
    }
    session_->annotate(id, args[2], comment);
  } else if (cmd == "stale") {
    const auto report = exec::check_consistency(db, id);
    if (report.fresh) {
      *out_ << "i" << id.value() << " is up to date\n";
    } else {
      *out_ << "i" << id.value() << " is STALE:\n";
      for (const auto& r : report.replacements) {
        *out_ << "  i" << r.superseded.value() << " superseded by i"
              << r.latest.value() << "\n";
      }
    }
  } else if (cmd == "retrace") {
    // A fresh instance is a no-op, not a failure (the library-level
    // `retrace` throws here; in the shell that would abort scripts that
    // retrace defensively).
    if (exec::check_consistency(db, id).fresh) {
      *out_ << "i" << id.value() << " is up to date; nothing to retrace\n";
      return;
    }
    const auto fresh = exec::retrace(db, session_->tools(), id);
    for (const InstanceId f : fresh) {
      *out_ << "  retraced -> ";
      print_instance_line(f);
    }
  } else {  // decompose
    for (const InstanceId part :
         exec::decompose_instance(db, id, session_->user())) {
      *out_ << "  component ";
      print_instance_line(part);
    }
  }
}

void Interpreter::cmd_help() {
  *out_ <<
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
}

}  // namespace herc::cli
