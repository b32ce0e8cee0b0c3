// A scriptable command interpreter over a DesignSession.
//
// The 1993 system drove everything from an X11 task window (Fig. 9); this
// reproduction's equivalent is a line-oriented command language covering
// the same operations: starting tasks from any of the four approaches,
// expand/specialize/bind on flows, execution, history browsing and
// queries, consistency maintenance, and session persistence.  The
// `hercules_shell` example wraps it as an interactive REPL / script
// runner; tests drive it directly.
//
// Every command form is one row of the command table in interpreter.cpp:
// its verb and subcommand, its lock class, whether a shared session
// allows it, its usage line and its handler.  `help` prints the command
// summary.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.hpp"
#include "graph/task_graph.hpp"
#include "support/severity.hpp"

namespace herc::cli {

/// Result of executing one command.
enum class CommandStatus {
  kOk,
  kError,  ///< the command failed; the message was printed and recorded
  kQuit,   ///< a `quit` command was issued
};

/// Whether a command only reads the session (safe to execute under a
/// shared lock, many at once) or may mutate it (needs exclusive access).
/// The server's reader-writer access layer schedules with this.  Each row
/// of the command table names its class; a line that matches no row is a
/// usage error that touches no session state, so it is a read.
enum class CommandAccess { kRead, kWrite };

/// One row of the command table (interpreter.cpp).
struct CommandSpec;

/// A command line split into words once and matched to its table row,
/// with its heredoc payload.  The server parses each frame into one and
/// uses it for its own intercepts, the lock choice and execution.
struct Command {
  std::vector<std::string> args;  ///< empty for blank lines and comments
  std::string payload;            ///< the body `import`/`schema extend` take
  const CommandSpec* spec = nullptr;  ///< null when no row matches

  [[nodiscard]] CommandAccess access() const;
  /// `quit` or `exit`.
  [[nodiscard]] bool quits() const;
};

/// Classifies one command line: `Interpreter::parse(line).access()`.
[[nodiscard]] CommandAccess command_access(std::string_view line);

/// Reads and parses the next command of a script or an interactive
/// stream.  A line ending in `<<TOKEN` (one word) takes the following
/// lines, up to one that reads TOKEN, as its payload.  A `\r` ending a
/// line is dropped; blank and `#` comment lines come back as empty
/// commands, never as heredocs.  Returns nullopt at the end of the input;
/// throws `support::HercError` when the input ends inside a heredoc.
[[nodiscard]] std::optional<Command> read_command(std::istream& in);

class Interpreter {
 public:
  /// Output (listings, renderings) goes to `out`.  A default session over
  /// the full schema with user "designer" is created; `session new`
  /// replaces it.
  explicit Interpreter(std::ostream& out);

  /// Shares an externally owned session (the server's): this interpreter
  /// keeps its own flow workspace but runs every command against
  /// `session`.  The forms the command table marks as not allowed on a
  /// shared session — `session new`, `session load`, `open`, `store
  /// close`, which would swap or detach state other clients are using —
  /// are refused.  `session` must outlive the interpreter.
  Interpreter(std::ostream& out, core::DesignSession& session);

  /// Splits `line` into words and finds its row in the command table.  The
  /// row's subcommand is matched against the first argument after the verb
  /// that is not a `--` flag, the way the handlers read it.
  [[nodiscard]] static Command parse(std::string_view line,
                                     std::string payload = {});

  /// Executes one parsed command.
  CommandStatus execute(const Command& command);
  /// Parses and executes one command.  `payload` supplies the body for
  /// commands that take one (`import`, `schema extend`); scripts provide
  /// it via heredocs.
  CommandStatus execute(std::string_view line, std::string payload = "");

  /// Executes a script read by `read_command`.  Stops at `quit` or, when
  /// `stop_on_error` is set, at the first failure.  Returns the number of
  /// failed commands; a script that ends inside a heredoc counts one more.
  std::size_t run_script(std::string_view text, bool stop_on_error = false);

  [[nodiscard]] core::DesignSession& session() { return *session_; }
  /// The flows built so far in this session, by name (the shell's --lint
  /// mode replays a script and then lints every flow it created).
  [[nodiscard]] const std::map<std::string, graph::TaskGraph>& named_flows()
      const {
    return flows_;
  }
  /// The message of the most recent failed command ("" when none).
  [[nodiscard]] const std::string& last_error() const { return last_error_; }
  /// Severity of the most recent command, in the shared fsck/lint exit
  /// convention: kClean on success, kWarning when the command succeeded
  /// but its report carried warnings (fsck, lint), kError on failure —
  /// including a `run`/`resume` that finished with failed or skipped
  /// tasks.  Shells and the server map this straight onto exit codes and
  /// the wire's result frame.
  [[nodiscard]] support::Severity last_severity() const {
    return last_severity_;
  }

 private:
  /// One command being executed; its member functions are the handlers
  /// the command table's rows point to (interpreter.cpp).
  struct Call;
  friend struct CommandSpec;

  std::ostream* out_;
  std::unique_ptr<core::DesignSession> owned_;
  /// `owned_.get()`, or the externally owned shared session.
  core::DesignSession* session_;
  bool shared_session_ = false;
  std::map<std::string, graph::TaskGraph> flows_;
  std::string last_error_;
  support::Severity last_severity_ = support::Severity::kClean;
};

}  // namespace herc::cli
