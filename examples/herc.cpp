// `herc`: the networked front end — serve a shared design, connect to it,
// audit and resume its store.
//
//   herc serve <store-dir> [--listen <addr>]... [--schema <ref>]
//             [--replicate-from <addr> [--retry N]]
//       Owns the durable store and serves it to many clients.  <addr> is
//       host:port (":0" = ephemeral localhost port, printed on stdout) or
//       unix:/path; default 127.0.0.1:7117.  An existing store supplies
//       its own schema; a fresh one uses --schema (fig1|fig2|full|file,
//       default full).  SIGTERM/SIGINT stop gracefully: in-flight runs
//       are cancelled but stay open, partials are quarantined, runs are
//       sealed, the journal synced — `herc fsck` then reports the store
//       clean and `herc resume` finishes the work.
//       With --replicate-from the server is a read-only follower: it
//       bootstraps from the leader at <addr> (snapshot or local replica
//       store), applies the leader's journal stream, and serves reads;
//       write commands are refused with a pointer to the leader.  A
//       leader always ships its journal — followers may subscribe at any
//       time — and refuses to serve a directory still carrying a replica
//       marker (promote it first).
//
//   herc replicas <addr> [--json]   follower positions and lag, from the
//       leader at <addr>
//
//   herc promote <replica-dir>
//       Turns a follower's store into a leader store: leader-style crash
//       recovery (seal interrupted runs, quarantine partials), a
//       checkpoint under the next storage epoch — the fence that keeps
//       the demoted ex-leader's frames out forever — and removal of the
//       replica marker.  `herc serve <dir>` then leads from it.
//
//   herc connect <addr> [--retry N] [-e <command>]... [script.hcl]
//       Remote REPL / script runner over the wire protocol.  With -e or a
//       script the exit code is the worst result severity (0 clean,
//       1 warnings, 2 error) — same convention as fsck and lint.
//
//   herc fsck <dir> [--repair] [--json]
//       Offline store audit (exit 0/1/2); --repair rewrites what it can
//       (including a fresh secondary-index image), --json emits the
//       machine-readable report instead of text.
//   herc resume <store-dir>         finish every interrupted run
//
//   herc swarm <store-dir> [--profile P] [--clients N] [--rounds R]
//              [--seed S] [--chaos N] [--no-kill] [--followers N]
//              [--net-chaos]
//              [--herc BIN] [--json [FILE]]
//       Thousand-designer workload simulator and chaos harness: serves
//       <store-dir> from a child `herc serve`, replays a deterministic
//       multi-tenant trace (--profile design|queries|versions|faults|
//       mixed|replicas) with N concurrent clients, injects chaos events
//       (fault seeds, SIGTERM, SIGKILL) mid-load, and after every crash
//       runs the invariant chain: fsck clean (or repaired clean), every
//       interrupted run resumed, queries consistent with the trace.
//       --followers (default 2 for --profile replicas) adds a read-
//       replica fleet: read-only clients pin to the replicas and every
//       heal must propagate the new epoch to all of them before readers
//       reconnect.  --net-chaos routes all traffic through a fault
//       proxy and mixes network events into the cycle (connections cut
//       mid-frame, latency, partitions, half-closes); clients retry
//       idempotently and the verifier additionally asserts exactly-once
//       (no retried command ever applies twice).  Exit 0 when every
//       invariant held, 2 otherwise.
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cli/interpreter.hpp"
#include "core/session.hpp"
#include "replica/applier.hpp"
#include "replica/shipper.hpp"
#include "schema/schema_io.hpp"
#include "schema/standard_schemas.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "sim/swarm.hpp"
#include "sim/trace.hpp"
#include "storage/fsck.hpp"
#include "storage/store.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

herc::schema::TaskSchema load_schema(const std::string& ref) {
  if (ref == "fig1") return herc::schema::make_fig1_schema();
  if (ref == "fig2") return herc::schema::make_fig2_schema();
  if (ref == "full") return herc::schema::make_full_schema();
  return herc::schema::parse_schema(slurp(ref));
}

/// A numeric flag's value: all of `text`, in `T`'s range (`3x` is no 3).
template <typename T>
T number_flag(const std::string& flag, const std::string& text) {
  if (const std::optional<T> value = herc::support::parse_int<T>(text)) {
    return *value;
  }
  throw std::invalid_argument(flag + " takes a whole number, not '" + text +
                              "'");
}

/// The session a store-facing subcommand works on: an existing store
/// dictates the schema (its schema.herc), a fresh one takes `schema_ref`.
std::unique_ptr<herc::core::DesignSession> open_session(
    const std::string& dir, const std::string& schema_ref) {
  std::optional<herc::schema::TaskSchema> schema =
      herc::storage::recorded_schema(dir);
  auto session = std::make_unique<herc::core::DesignSession>(
      schema ? std::move(*schema) : load_schema(schema_ref));
  const herc::storage::RecoveryReport report = session->open_storage(dir);
  std::cout << (report.created ? "store created at " : "store opened at ")
            << dir;
  if (report.interrupted_runs > 0) {
    std::cout << " (" << report.interrupted_runs << " interrupted run(s), "
              << report.quarantined << " partial(s) quarantined)";
  }
  std::cout << "\n";
  return session;
}

/// Graceful stop on SIGTERM/SIGINT, delivered through a self-pipe so the
/// handler does nothing signal-unsafe.
bool install_signal_handlers() {
  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "serve: cannot create the signal pipe\n";
    return false;
  }
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  return true;
}

void wait_for_signal() {
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
}

/// `herc serve --replicate-from`: a read-only follower of the leader at
/// `leader_spec`, serving the replicated history from `dir`.
int serve_follower(const std::string& dir, const std::string& leader_spec,
                   int retries, const std::vector<std::string>& listen_specs) {
  const herc::server::Endpoint leader =
      herc::server::Endpoint::parse(leader_spec);
  herc::replica::ReplicaApplier applier(leader, dir);
  std::cout << "replicating " << dir << " from " << leader.describe()
            << std::endl;
  if (!applier.bootstrap(retries)) {
    std::cerr << "serve: cannot bootstrap from " << leader.describe() << ": "
              << applier.last_error() << "\n";
    return 2;
  }
  const herc::replica::StreamPosition start = applier.position();
  std::cout << "bootstrapped at " << start.epoch << ":" << start.seq << " ("
            << applier.db().size() << " instance(s))\n";

  // The session copies the applier's schema but *reads* the applier's
  // database — every mutation path throws, so history changes only
  // through replicated frames.
  herc::core::DesignSession session(applier.schema());
  session.attach_replica(&applier.store());
  herc::server::ServeOptions serve_options;
  serve_options.read_only = true;
  herc::server::Server server(session, serve_options);
  server.set_position_source([&applier] {
    const herc::replica::StreamPosition pos = applier.position();
    return herc::server::JournalPosition{pos.epoch, pos.seq,
                                         applier.journal_bytes()};
  });
  applier.set_gate([&server](const std::function<void()>& fn) {
    server.with_exclusive_session(fn);
  });
  for (const std::string& spec : listen_specs) {
    const herc::server::Endpoint bound =
        server.add_listener(herc::server::Endpoint::parse(spec));
    std::cout << "listening on " << bound.describe() << "\n";
  }
  if (!install_signal_handlers()) return 2;
  server.start();
  applier.start();
  std::cout << "serving (read-only replica); SIGTERM or SIGINT stops"
            << std::endl;
  wait_for_signal();
  std::cout << "shutting down..." << std::endl;
  applier.stop();
  server.stop();
  const herc::replica::StreamPosition end = applier.position();
  std::cout << "applied " << applier.frames_applied()
            << " frame(s); final position " << end.epoch << ":" << end.seq
            << "\n";
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "usage: herc serve <store-dir> [--listen <addr>]..."
                 " [--schema <fig1|fig2|full|file>]\n"
                 "                  [--replicate-from <addr> [--retry N]]\n";
    return 2;
  }
  const std::string dir = args[0];
  std::vector<std::string> listen_specs;
  std::string schema_ref = "full";
  std::string replicate_from;
  int retries = 25;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--listen" && i + 1 < args.size()) {
      listen_specs.push_back(args[++i]);
    } else if (args[i] == "--schema" && i + 1 < args.size()) {
      schema_ref = args[++i];
    } else if (args[i] == "--replicate-from" && i + 1 < args.size()) {
      replicate_from = args[++i];
    } else if (args[i] == "--retry" && i + 1 < args.size()) {
      retries = number_flag<int>("--retry", args[++i]);
    } else {
      std::cerr << "serve: unknown argument '" << args[i] << "'\n";
      return 2;
    }
  }
  if (listen_specs.empty()) listen_specs.emplace_back("127.0.0.1:7117");

  if (!replicate_from.empty()) {
    return serve_follower(dir, replicate_from, retries, listen_specs);
  }

  const std::unique_ptr<herc::core::DesignSession> session =
      open_session(dir, schema_ref);
  // A leader always ships its journal: followers subscribe at any time.
  herc::replica::JournalShipper shipper(*session);
  herc::server::Server server(*session);
  server.set_replication_hub(&shipper);
  for (const std::string& spec : listen_specs) {
    const herc::server::Endpoint bound =
        server.add_listener(herc::server::Endpoint::parse(spec));
    std::cout << "listening on " << bound.describe() << "\n";
  }

  if (!install_signal_handlers()) return 2;

  server.start();
  std::cout << "serving; SIGTERM or SIGINT stops gracefully" << std::endl;

  wait_for_signal();
  std::cout << "shutting down..." << std::endl;
  server.stop();
  const auto& stats = server.stats();
  std::cout << "served " << stats.commands_executed.load() << " command(s) on "
            << stats.connections_accepted.load() << " connection(s); "
            << session->db().open_runs().size()
            << " open run(s) sealed for resume\n";
  return 0;
}

int cmd_replicas(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2 ||
      (args.size() == 2 && args[1] != "--json")) {
    std::cerr << "usage: herc replicas <addr> [--json]\n";
    return 2;
  }
  const bool json = args.size() == 2;
  herc::server::Client client =
      herc::server::Client::connect(herc::server::Endpoint::parse(args[0]));
  const herc::server::CallResult result =
      client.call(json ? "replicas --json" : "replicas");
  std::cout << result.output;
  if (json && !result.output.empty() && result.output.back() != '\n') {
    std::cout << "\n";
  }
  if (!result.ok()) std::cerr << "error: " << result.error << "\n";
  return result.exit_code();
}

int cmd_promote(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::cerr << "usage: herc promote <replica-dir>\n";
    return 2;
  }
  const herc::replica::PromoteReport report =
      herc::replica::promote_store(args[0]);
  std::cout << "promoted " << args[0] << " to leader at epoch "
            << report.epoch << "\n";
  if (report.recovery.interrupted_runs > 0) {
    std::cout << "  " << report.recovery.interrupted_runs
              << " interrupted run(s) sealed, " << report.recovery.quarantined
              << " partial(s) quarantined (finish them with `herc resume`)\n";
  }
  return 0;
}

/// One scripted/interactive command round-trip; returns its exit code.
int roundtrip(herc::server::Client& client, const std::string& line,
              const std::string& body, std::ostream& out) {
  const herc::server::CallResult result = client.call(line, body);
  out << result.output;
  if (!result.ok() && !result.error.empty()) {
    // The human-readable output already carries "error: ..." for
    // interpreter failures; server-side refusals arrive only here.
    if (result.output.find(result.error) == std::string::npos) {
      out << "error: " << result.error << "\n";
    }
  }
  return result.exit_code();
}

int cmd_connect(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "usage: herc connect <addr> [--retry N] [-e <command>]..."
                 " [script.hcl]\n";
    return 2;
  }
  const herc::server::Endpoint endpoint =
      herc::server::Endpoint::parse(args[0]);
  std::vector<std::string> commands;
  std::string script;
  int retries = 0;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "-e" && i + 1 < args.size()) {
      commands.push_back(args[++i]);
    } else if (args[i] == "--retry" && i + 1 < args.size()) {
      retries = number_flag<int>("--retry", args[++i]);
    } else if (script.empty()) {
      script = args[i];
    } else {
      std::cerr << "connect: unknown argument '" << args[i] << "'\n";
      return 2;
    }
  }

  herc::server::Client client;
  for (int attempt = 0;; ++attempt) {
    try {
      client = herc::server::Client::connect(endpoint);
      break;
    } catch (const herc::support::NetError& e) {
      if (attempt >= retries) {
        std::cerr << "connect: " << e.what() << "\n";
        return 2;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  int exit = 0;
  const auto run_line = [&](const std::string& line,
                            const std::string& body) {
    exit = std::max(exit, roundtrip(client, line, body, std::cout));
  };

  if (!commands.empty() || !script.empty()) {
    for (const std::string& line : commands) run_line(line, "");
    if (!script.empty()) {
      // Same line/heredoc syntax as local scripts, shipped over the wire.
      std::istringstream in(slurp(script));
      while (const auto command = herc::cli::read_command(in)) {
        run_line(herc::support::join(command->args, " "), command->payload);
      }
    }
    return exit;
  }

  std::cout << "connected to " << endpoint.describe() << " —"
            << client.banner() << "; 'quit' exits\n";
  while (true) {
    std::cout << "herc> " << std::flush;
    const auto command = herc::cli::read_command(std::cin);
    if (!command || command->quits()) break;
    try {
      run_line(herc::support::join(command->args, " "), command->payload);
    } catch (const herc::support::NetError& e) {
      std::cerr << "connection lost: " << e.what() << "\n";
      return 2;
    }
  }
  return 0;
}

int cmd_fsck(const std::vector<std::string>& args) {
  herc::storage::FsckOptions options;
  bool json = false;
  bool ok = !args.empty();
  for (std::size_t i = 1; ok && i < args.size(); ++i) {
    if (args[i] == "--repair") {
      options.repair = true;
    } else if (args[i] == "--json") {
      json = true;
    } else {
      ok = false;
    }
  }
  if (!ok) {
    std::cerr << "usage: herc fsck <dir> [--repair] [--json]\n";
    return 2;
  }
  const herc::storage::FsckReport report =
      herc::storage::fsck_store(args[0], options);
  std::cout << (json ? report.render_json() : report.render());
  return report.exit_code();
}

int cmd_resume(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "usage: herc resume <store-dir>\n";
    return 2;
  }
  const std::unique_ptr<herc::core::DesignSession> session =
      open_session(args[0], "full");
  int exit = 0;
  while (true) {
    const auto open = session->db().open_runs();
    if (open.empty()) break;
    const std::uint64_t id = open.front()->id;
    const herc::exec::ExecResult result = session->resume_run(id);
    std::cout << "resumed run #" << id << ": " << result.tasks_run
              << " task(s) ran, " << result.tasks_reused << " reused";
    if (!result.complete()) {
      std::cout << " — " << result.tasks_failed << " failed, "
                << result.tasks_skipped << " skipped";
      exit = 2;
    }
    std::cout << "\n";
  }
  if (exit == 0) std::cout << "no interrupted runs remain\n";
  return exit;
}

/// This binary's own path, for spawning `herc serve` children.
std::string self_binary(const char* argv0) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n > 0) return std::string(buffer, static_cast<std::size_t>(n));
  return argv0;
}

int cmd_swarm(const std::vector<std::string>& args,
              const std::string& self) {
  const auto usage = [] {
    std::cerr << "usage: herc swarm <store-dir> [--profile P] [--clients N]"
                 " [--rounds R]\n"
                 "                  [--seed S] [--chaos N] [--no-kill]"
                 " [--followers N]\n"
                 "                  [--net-chaos] [--herc BIN]"
                 " [--json [FILE]]\n";
    return 2;
  };
  if (args.empty()) return usage();
  const std::string dir = args[0];
  herc::sim::SwarmOptions options;
  options.log = &std::cout;
  std::string binary = self;
  bool json = false;
  bool followers_set = false;
  std::string json_file;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool more = i + 1 < args.size();
    if (arg == "--profile" && more) {
      options.profile = args[++i];
    } else if (arg == "--clients" && more) {
      options.clients = number_flag<std::size_t>(arg, args[++i]);
    } else if (arg == "--rounds" && more) {
      options.rounds = number_flag<std::size_t>(arg, args[++i]);
    } else if (arg == "--seed" && more) {
      options.seed = number_flag<std::uint64_t>(arg, args[++i]);
    } else if (arg == "--chaos" && more) {
      options.chaos = number_flag<std::size_t>(arg, args[++i]);
    } else if (arg == "--no-kill") {
      options.allow_kill = false;
    } else if (arg == "--net-chaos") {
      options.net_chaos = true;
    } else if (arg == "--followers" && more) {
      options.followers = number_flag<std::size_t>(arg, args[++i]);
      followers_set = true;
    } else if (arg == "--herc" && more) {
      binary = args[++i];
    } else if (arg == "--json") {
      json = true;
      if (more && args[i + 1].rfind("--", 0) != 0) json_file = args[++i];
    } else {
      std::cerr << "swarm: unknown argument '" << arg << "'\n";
      return usage();
    }
  }
  // The replicas profile runs a follower fleet by default; any profile
  // accepts an explicit --followers.
  if (!followers_set && options.profile == "replicas") options.followers = 2;
  // The harness owns its store outright: pre-existing data (swarm or
  // otherwise) would fail the nothing-foreign invariant, so insist on a
  // fresh path instead of touching anything already on disk.
  if (::access(dir.c_str(), F_OK) == 0) {
    std::cerr << "swarm: '" << dir
              << "' already exists; pass a fresh store path\n";
    return 2;
  }

  herc::sim::ChildProcessServer control(binary, dir);
  const herc::sim::SwarmReport report = herc::sim::run_swarm(control, options);
  std::cout << report.render_text();
  if (json) {
    if (json_file.empty()) {
      std::cout << report.render_json();
    } else {
      std::ofstream out(json_file, std::ios::binary);
      out << report.render_json();
      std::cout << "report written to " << json_file << "\n";
    }
  }
  return report.ok() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: herc <serve|connect|replicas|promote|fsck|resume"
                 "|swarm> ...\n";
    return 2;
  }
  const std::string verb = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (verb == "serve") return cmd_serve(args);
    if (verb == "connect") return cmd_connect(args);
    if (verb == "replicas") return cmd_replicas(args);
    if (verb == "promote") return cmd_promote(args);
    if (verb == "fsck") return cmd_fsck(args);
    if (verb == "resume") return cmd_resume(args);
    if (verb == "swarm") return cmd_swarm(args, self_binary(argv[0]));
  } catch (const std::exception& e) {
    std::cerr << "herc " << verb << ": " << e.what() << "\n";
    return 2;
  }
  std::cerr << "herc: unknown subcommand '" << verb << "'\n";
  return 2;
}
