// The command interpreter: scripts, heredocs, every command family,
// error reporting.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "cli/interpreter.hpp"
#include "data/blob_store.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

namespace herc::cli {
namespace {

/// Runs a script and returns (failures, captured output).
std::pair<std::size_t, std::string> run(const std::string& script) {
  std::ostringstream out;
  Interpreter interpreter(out);
  const std::size_t failures = interpreter.run_script(script);
  return {failures, out.str()};
}

std::string inverter_heredoc() {
  return "import EditedNetlist inv <<END\n" +
         circuit::inverter_netlist().to_text() + "END\n";
}

TEST(Cli, EmptyLinesAndCommentsAreIgnored) {
  const auto [failures, out] = run("\n# just a comment\n   \necho hi\n");
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(out, "hi\n");
}

TEST(Cli, UnknownCommandsFailWithHelpPointer) {
  std::ostringstream out;
  Interpreter interpreter(out);
  EXPECT_EQ(interpreter.execute("teleport now"), CommandStatus::kError);
  EXPECT_NE(interpreter.last_error().find("help"), std::string::npos);
  EXPECT_NE(out.str().find("error:"), std::string::npos);
}

TEST(Cli, QuitStopsScripts) {
  const auto [failures, out] = run("echo one\nquit\necho two\n");
  EXPECT_EQ(failures, 0u);
  EXPECT_NE(out.find("one"), std::string::npos);
  EXPECT_EQ(out.find("two"), std::string::npos);
}

TEST(Cli, ImportWithHeredocAndEmptyPayload) {
  const auto [failures, out] = run(inverter_heredoc() +
                                   "import Simulator sim \"\"\n");
  EXPECT_EQ(failures, 0u);
  EXPECT_NE(out.find("imported i0"), std::string::npos);
  EXPECT_NE(out.find("imported i1"), std::string::npos);
  EXPECT_NE(out.find("0 bytes"), std::string::npos);
}

TEST(Cli, UnterminatedHeredocIsAnError) {
  const auto [failures, out] = run("import Stimuli s <<END\nwave x 0:1\n");
  EXPECT_EQ(failures, 1u);
  EXPECT_NE(out.find("unterminated"), std::string::npos);
}

TEST(Cli, FullSimulationSession) {
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n";
  script += circuit::DeviceModelLibrary::standard().to_text();
  script += "END\n";
  script += "import Stimuli walk <<END\n";
  script += "stimuli walk\nwave in 0:0 1000:1 2000:0\n";
  script += "END\n";
  script += "import Simulator sim \"\"\n";
  script +=
      "flow new f goal Performance\n"
      "flow expand f 0\n"
      "flow expand f 2\n"
      "flow bind f 1 i3\n"
      "flow bind f 3 i2\n"
      "flow bind f 4 i1\n"
      "flow bind f 5 i0\n"
      "flow show f\n"
      "flow lisp f\n"
      "run f\n"
      "history i5\n"
      "uses i0\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("status: runnable"), std::string::npos);
  EXPECT_NE(out.find("Performance(Simulator, Circuit(compose, "
                     "DeviceModels, Netlist), Stimuli)"),
            std::string::npos);
  EXPECT_NE(out.find("ran 2 tasks"), std::string::npos);
  // The history listing reaches the imported netlist.
  EXPECT_NE(out.find("'inv'"), std::string::npos);
}

TEST(Cli, AutoFlowCommand) {
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n" +
            circuit::DeviceModelLibrary::standard().to_text() + "END\n";
  script += "import Stimuli walk <<END\nstimuli w\nwave in 0:1\nEND\n";
  script += "import Simulator sim \"\"\n";
  script += "auto Performance run\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("ran 2 tasks"), std::string::npos);
  EXPECT_NE(out.find("produced i"), std::string::npos);
}

TEST(Cli, BrowseWithFilters) {
  std::string script = inverter_heredoc();
  script += "session user director\n";
  script += "import EditedNetlist adder <<END\n" +
            circuit::full_adder_netlist().to_text() + "END\n";
  script += "browse Netlist\n";
  script += "browse Netlist user=director\n";
  script += "browse Netlist keyword=inv\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  // The unfiltered listing shows both; the user filter only the adder.
  EXPECT_NE(out.find("adder"), std::string::npos);
  EXPECT_NE(out.find("inv"), std::string::npos);
}

TEST(Cli, PlanLifecycleThroughCommands) {
  std::string script;
  script +=
      "flow new f goal Performance\n"
      "flow expand f 0\n"
      "flow save-plan f\n"
      "plans\n"
      "flow new g plan goal:Performance\n"
      "flow show g\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("goal:Performance"), std::string::npos);
  EXPECT_NE(out.find("unbound leaves"), std::string::npos);
}

TEST(Cli, SchemaSwitchClearsFlows) {
  std::ostringstream out;
  Interpreter interpreter(out);
  EXPECT_EQ(interpreter.execute("flow new f goal Performance"),
            CommandStatus::kOk);
  EXPECT_EQ(interpreter.execute("session new fig2 bryant"),
            CommandStatus::kOk);
  // Old flows are gone; fig2 lacks the Fig. 1 entities.
  EXPECT_EQ(interpreter.execute("flow show f"), CommandStatus::kError);
  EXPECT_EQ(interpreter.execute("flow new c goal Verification"),
            CommandStatus::kError);
  EXPECT_EQ(interpreter.execute("flow new c goal Performance"),
            CommandStatus::kOk);
  EXPECT_EQ(interpreter.session().user(), "bryant");
}

TEST(Cli, VersionAndConsistencyCommands) {
  std::string script = inverter_heredoc();
  script += "import CircuitEditor ed <<END\nset mn value=2\nEND\n";
  script +=
      "flow new e goal EditedNetlist\n"
      "flow expand e 0 optional\n"
      "flow bind e 1 i1\n"
      "flow bind e 2 i0\n"
      "run e\n"
      "versions i0\n"
      "stale i0\n"
      "annotate i2 v2 widened\n"
      "payload i2\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("i2 v2 (edited from i0)"), std::string::npos);
  EXPECT_NE(out.find("is up to date"), std::string::npos);
  EXPECT_NE(out.find("value=2"), std::string::npos);
}

TEST(Cli, SessionSaveLoadThroughFiles) {
  const std::string path =
      ::testing::TempDir() + "herc_cli_session.txt";
  {
    std::ostringstream out;
    Interpreter interpreter(out);
    EXPECT_EQ(interpreter.run_script(inverter_heredoc() +
                                     "session user archivist\n"
                                     "session save " + path + "\n"),
              0u)
        << out.str();
    EXPECT_NE(out.str().find("session saved"), std::string::npos);
  }
  {
    std::ostringstream out;
    Interpreter interpreter(out);
    EXPECT_EQ(interpreter.run_script("session load " + path + "\n"
                                     "browse Netlist\n"),
              0u)
        << out.str();
    EXPECT_NE(out.str().find("session loaded: 1 instances"),
              std::string::npos);
    EXPECT_NE(out.str().find("inv"), std::string::npos);
    EXPECT_EQ(interpreter.session().user(), "archivist");
  }
  // Missing files are reported, not fatal.
  std::ostringstream out;
  Interpreter interpreter(out);
  EXPECT_EQ(interpreter.execute("session load /nonexistent/nowhere.txt"),
            CommandStatus::kError);
}

TEST(Cli, BadReferencesAreReported) {
  std::ostringstream out;
  Interpreter interpreter(out);
  EXPECT_EQ(interpreter.execute("history i99"), CommandStatus::kError);
  EXPECT_EQ(interpreter.execute("history 5"), CommandStatus::kError);
  EXPECT_EQ(interpreter.execute("flow new f goal Performance"),
            CommandStatus::kOk);
  EXPECT_EQ(interpreter.execute("flow expand f banana"),
            CommandStatus::kError);
  EXPECT_NE(interpreter.last_error().find("node id"), std::string::npos);
  EXPECT_EQ(interpreter.execute("flow expand f 7"), CommandStatus::kError);
}

TEST(Cli, FindCommandRunsQueries) {
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n" +
            circuit::DeviceModelLibrary::standard().to_text() + "END\n";
  script += "import Stimuli walk <<END\nstimuli w\nwave in 0:1\nEND\n";
  script += "import Simulator sim \"\"\n";
  script += "auto Performance run\n";
  script += "find Performance where circuit.netlist = i0\n";
  script += "find Performance where circuit.netlist = \"inv\"\n";
  script += "find Performance where stimuli = i99\n";  // bad ref
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 1u) << out;
  // Both good queries list the produced performance.
  const std::string needle = "Performance  'Performance#";
  const std::size_t first = out.find(needle);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(out.find(needle, first + 1), std::string::npos);
}

TEST(Cli, TraceRetraceAndDecomposeCommands) {
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n" +
            circuit::DeviceModelLibrary::standard().to_text() + "END\n";
  script += "import Stimuli walk <<END\nstimuli w\nwave in 0:1\nEND\n";
  script += "import Simulator sim \"\"\n";
  script += "import CircuitEditor ed <<END\nset mn value=2\nEND\n";
  script += "auto Performance run\n";       // produces circuit i5? + perf
  script += "trace i6 backward\n";          // the performance instance
  script += "trace i6 forward\n";
  script += "decompose i5\n";               // the composed circuit
  // Edit the netlist -> performance stale -> retrace.
  script +=
      "flow new e goal EditedNetlist\n"
      "flow expand e 0 optional\n"
      "flow bind e 1 i4\n"
      "flow bind e 2 i0\n"
      "run e\n"
      "stale i6\n"
      "retrace i6\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("digraph \"backward-trace\""), std::string::npos);
  EXPECT_NE(out.find("digraph \"forward-trace\""), std::string::npos);
  EXPECT_NE(out.find("component i"), std::string::npos);
  EXPECT_NE(out.find("is STALE"), std::string::npos);
  EXPECT_NE(out.find("retraced ->"), std::string::npos);
}

TEST(Cli, FlowRenderingCommands) {
  const auto [failures, out] = run(
      "flow new f goal Performance\n"
      "flow expand f 0\n"
      "flow dot f\n"
      "flow bipartite f\n"
      "flow expandup f 0 PerformancePlot\n"
      "flow show f\n");
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("digraph"), std::string::npos);
  EXPECT_NE(out.find("--Simulator--> [Performance]"), std::string::npos);
  EXPECT_NE(out.find("consumer node"), std::string::npos);
}

TEST(Cli, SchemaShowAndExtend) {
  std::string script =
      "schema extend <<END\n"
      "tool TimingAnalyzer\n"
      "data TimingReport\n"
      "fd TimingReport -> TimingAnalyzer\n"
      "dd TimingReport -> Netlist\n"
      "END\n"
      "schema show\n"
      "flow new t goal TimingReport\n"
      "flow expand t 0\n"
      "flow show t\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("schema extended"), std::string::npos);
  EXPECT_NE(out.find("fd TimingReport -> TimingAnalyzer"),
            std::string::npos);
  EXPECT_NE(out.find("TimingAnalyzer"), std::string::npos);
}

TEST(Cli, RetraceOnUpToDateInstanceIsFriendly) {
  // An up-to-date instance is not an error: the command reports it and
  // the script keeps going (the library-level retrace throws here).
  const auto [failures, out] = run(inverter_heredoc() +
                                   "retrace i0\n"
                                   "echo still-alive\n");
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("i0 is up to date; nothing to retrace"),
            std::string::npos);
  EXPECT_NE(out.find("still-alive"), std::string::npos);
}

TEST(Cli, RunsAndResumeCommands) {
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n" +
            circuit::DeviceModelLibrary::standard().to_text() + "END\n";
  script += "import Stimuli walk <<END\nstimuli w\nwave in 0:1\nEND\n";
  script += "import Simulator sim \"\"\n";
  script += "runs\n";         // nothing yet
  script += "auto Performance run\n";
  script += "runs\n";         // one closed run
  script += "resume\n";       // nothing open
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("no runs recorded"), std::string::npos);
  EXPECT_NE(out.find("run #0"), std::string::npos);
  EXPECT_NE(out.find("complete (2/2 tasks finished)"), std::string::npos);
  EXPECT_NE(out.find("no interrupted runs; nothing to resume"),
            std::string::npos);

  // Resuming a closed run by id is an error, reported not fatal.
  std::ostringstream err_out;
  Interpreter interpreter(err_out);
  interpreter.run_script(script);
  EXPECT_EQ(interpreter.execute("resume 0"), CommandStatus::kError);
  EXPECT_NE(interpreter.last_error().find("nothing to resume"),
            std::string::npos);
  EXPECT_EQ(interpreter.execute("resume banana"), CommandStatus::kError);
}

TEST(Cli, FsckExitCodesThroughTheCommand) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "herc_cli_fsck";
  fs::remove_all(dir);
  std::ostringstream out;
  Interpreter interpreter(out);
  ASSERT_EQ(interpreter.execute("open " + dir), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("import Stimuli s \"\""), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("checkpoint"), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("store close"), CommandStatus::kOk);

  // Exit 0: a healthy store.
  ASSERT_EQ(interpreter.execute("fsck " + dir), CommandStatus::kOk);
  EXPECT_NE(out.str().find("clean (exit 0)"), std::string::npos);

  // Exit 1: an orphaned blob is survivable — the command still succeeds.
  {
    std::ofstream app((fs::path(dir) / "snapshot.herc").string(),
                      std::ios::binary | std::ios::app);
    app << support::RecordWriter("blob")
               .field(data::BlobStore::key_for("orphan"))
               .field(std::string_view("orphan"))
               .str()
        << "\n";
  }
  ASSERT_EQ(interpreter.execute("fsck " + dir), CommandStatus::kOk);
  EXPECT_NE(out.str().find("orphan-blob"), std::string::npos);
  EXPECT_NE(out.str().find("warnings (exit 1)"), std::string::npos);

  // Exit 2: corruption fails the command so scripts stop at it.
  {
    std::ofstream bad((fs::path(dir) / "snapshot.herc").string(),
                      std::ios::binary | std::ios::trunc);
    bad << "not a snapshot at all\n";
  }
  EXPECT_EQ(interpreter.execute("fsck " + dir), CommandStatus::kError);
  EXPECT_NE(out.str().find("CORRUPTION (exit 2)"), std::string::npos);
  EXPECT_NE(interpreter.last_error().find("corruption"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Cli, FsckRepairIsRefusedOnTheOpenStore) {
  // Repair rewrites snapshot + journal under the live session's handle,
  // which would desync its in-memory image — the command must refuse
  // until the store is closed.  A plain audit stays allowed.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "herc_cli_fsck_repair";
  fs::remove_all(dir);
  std::ostringstream out;
  Interpreter interpreter(out);
  ASSERT_EQ(interpreter.execute("open " + dir), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("import Stimuli s \"\""), CommandStatus::kOk);

  EXPECT_EQ(interpreter.execute("fsck " + dir + " --repair"),
            CommandStatus::kError);
  EXPECT_NE(interpreter.last_error().find("store close"), std::string::npos)
      << interpreter.last_error();
  ASSERT_EQ(interpreter.execute("fsck " + dir), CommandStatus::kOk)
      << "a read-only audit of the open store must still work";

  ASSERT_EQ(interpreter.execute("store close"), CommandStatus::kOk);
  EXPECT_EQ(interpreter.execute("fsck " + dir + " --repair"),
            CommandStatus::kOk);
  fs::remove_all(dir);
}

TEST(Cli, OpenReportsInterruptedRuns) {
  // `open` surfaces crash recovery: build a store with an open run by
  // journaling a run-begin frame without an end, then reopen it.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "herc_cli_interrupted";
  fs::remove_all(dir);
  {
    std::ostringstream out;
    Interpreter interpreter(out);
    ASSERT_EQ(interpreter.execute("open " + dir), CommandStatus::kOk);
    ASSERT_EQ(interpreter.execute("import Stimuli s \"\""),
              CommandStatus::kOk);
    // Forge an open run directly in the session's history; the mutation
    // listener journals it like any executor-written frame.
    history::RunRecord run;
    run.flow_name = "forged";
    run.user = "tester";
    run.flow_text = "flow|forged|full|0";
    interpreter.session().db().begin_run(std::move(run));
    interpreter.session().storage()->sync();
  }
  std::ostringstream out;
  Interpreter interpreter(out);
  ASSERT_EQ(interpreter.execute("open " + dir), CommandStatus::kOk);
  EXPECT_NE(out.str().find("1 interrupted run(s)"), std::string::npos)
      << out.str();
  ASSERT_EQ(interpreter.execute("runs"), CommandStatus::kOk);
  EXPECT_NE(out.str().find("OPEN"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Cli, EveryCommandFormHasItsAccessClass) {
  // One line per command form: the server takes the shared session lock
  // for reads and the exclusive one for writes, so a form that moves
  // between the two classes changes what may run concurrently.
  constexpr CommandAccess R = CommandAccess::kRead;
  constexpr CommandAccess W = CommandAccess::kWrite;
  const std::pair<const char*, CommandAccess> cases[] = {
      {"", R},
      {"   ", R},
      {"# a comment", R},
      {"  # an indented comment", R},
      {"quit", R},
      {"exit", R},
      {"help", R},
      {"echo hi there", R},
      {"session new full alice", W},
      {"session user alice", W},
      {"session save /tmp/s.txt", R},
      {"session load /tmp/s.txt", W},
      {"schema show", R},
      {"schema extend", W},
      {"open /tmp/store sync=commit every=10", W},
      {"checkpoint", W},
      {"store", W},
      {"store close", W},
      {"store sync", W},
      {"import Stimuli s \"\"", W},
      {"flow new f goal Performance", R},
      {"flow expand f 0 optional", R},
      {"flow expandup f 0 PerformancePlot", R},
      {"flow specialize f 1 EditedNetlist", R},
      {"flow connect f 0 1", R},
      {"flow cooutput f 0 Layout", R},
      {"flow unexpand f 0", R},
      {"flow bind f 1 i0 i1", R},
      {"flow unbind f 1", R},
      {"flow show f", R},
      {"flow lisp f", R},
      {"flow dot f", R},
      {"flow bipartite f", R},
      {"flow save-plan f", W},
      {"run f parallel latency=0", W},
      {"runs", R},
      {"resume", W},
      {"resume #3", W},
      {"fsck /tmp/store --json", W},
      {"lint schema", R},
      {"lint schema --json", R},
      {"lint flow f goal 0 parallel", R},
      {"lint store /tmp/store", W},
      {"lint store /tmp/store --json", W},
      {"auto Performance", W},
      {"auto Performance run", W},
      {"browse Stimuli keyword=s limit=5", R},
      {"find Performance where stimuli = i0", R},
      {"failures", R},
      {"entities", R},
      {"tools", R},
      {"plans", R},
      {"history i0", R},
      {"uses i0", R},
      {"trace i0 forward", R},
      {"versions i0", R},
      {"payload i0", R},
      {"stale i0", R},
      {"annotate i0 note a comment", W},
      {"retrace i0", W},
      {"decompose i0", W},
  };
  for (const auto& [line, access] : cases) {
    EXPECT_EQ(command_access(line), access) << "'" << line << "'";
  }
}

TEST(Cli, FlagsDoNotHideTheSubcommandAndUnmatchedLinesAreReads) {
  // The subcommand is the first argument that is not a `--` flag, so
  // `lint --json store` is `lint store`, which syncs the store's journal.
  EXPECT_EQ(command_access("lint --json store /tmp/store"),
            CommandAccess::kWrite);
  // A line no row matches fails as a usage error and touches nothing.
  for (const char* line : {"teleport", "stats --jsn", "session bogus",
                           "schema", "store bogus"}) {
    EXPECT_EQ(command_access(line), CommandAccess::kRead) << line;
    std::ostringstream out;
    Interpreter interpreter(out);
    EXPECT_EQ(interpreter.execute(line), CommandStatus::kError) << line;
    EXPECT_EQ(interpreter.last_error().rfind("usage: ", 0), 0u)
        << line << " -> " << interpreter.last_error();
  }
}

TEST(Cli, NumericArgumentsMustBeWholeInRangeNumbers) {
  // Two instances and a runnable flow, so that a number wrapping into a
  // valid id, or an option taking a negative value, would succeed.
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n" +
            circuit::DeviceModelLibrary::standard().to_text() + "END\n";
  script += "import Stimuli walk <<END\nstimuli w\nwave in 0:1\nEND\n";
  script += "import Simulator sim \"\"\n";
  script +=
      "flow new f goal Performance\n"
      "flow expand f 0\n"
      "flow expand f 2\n"
      "flow bind f 1 i3\n"
      "flow bind f 3 i2\n"
      "flow bind f 4 i1\n"
      "flow bind f 5 i0\n"
      "flow new g goal Performance\n"
      "run f\n";
  std::ostringstream out;
  Interpreter interpreter(out);
  ASSERT_EQ(interpreter.run_script(script), 0u) << out.str();
  for (const char* line : {"payload i1", "browse Stimuli limit=1",
                           "browse Stimuli from=-5 to=99999999999999",
                           "run f timeout=0 retries=1"}) {
    EXPECT_EQ(interpreter.execute(line), CommandStatus::kOk)
        << line << " -> " << interpreter.last_error();
  }
  const std::size_t instances = interpreter.session().db().size();
  for (const char* line :
       {"payload i4294967297", "history i-1", "flow expand g 4294967296",
        "flow expand g +0", "find Performance where circuit.netlist = "
                            "i4294967296",
        "browse Stimuli limit=-1", "browse Stimuli limit=3x",
        "browse Stimuli from=12abc", "browse Stimuli limit=abc",
        "run f timeout=-1", "run f retries=1x", "resume #-1"}) {
    EXPECT_EQ(interpreter.execute(line), CommandStatus::kError) << line;
    EXPECT_NE(interpreter.last_error(), "stoull") << line;
  }
  EXPECT_EQ(interpreter.session().db().size(), instances);
  const std::string dir = ::testing::TempDir() + "herc_cli_every";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(interpreter.execute("open " + dir + " every=-1"),
            CommandStatus::kError);
  EXPECT_EQ(interpreter.session().storage(), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(Cli, ScriptReaderHeredocRules) {
  // Each command as its words joined by spaces, and its payload.
  const auto read_all = [](const std::string& text) {
    std::istringstream in(text);
    std::vector<std::pair<std::string, std::string>> commands;
    while (const auto command = read_command(in)) {
      commands.emplace_back(support::join(command->args, " "),
                            command->payload);
    }
    return commands;
  };
  const std::vector<std::pair<std::string, std::string>> want = {
      {"", ""},  // the comment, which is not a heredoc
      {"import Stimuli s0", "stimuli s0\nwave in 0:1\n"},
      {"", ""},
      {"echo after", ""},
  };
  // A spaced token; a comment is never a heredoc.
  const std::string script =
      "# import Stimuli c <<END\n"
      "import Stimuli s0 << END\n"
      "stimuli s0\nwave in 0:1\n"
      "  END\n"
      "\n"
      "echo after\n";
  EXPECT_EQ(read_all(script), want);
  // CRLF lines read as the same commands and payloads.
  std::string crlf;
  for (const char ch : script) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  EXPECT_EQ(read_all(crlf), want);
  // A script that ends inside a heredoc is an error, not a short payload.
  std::istringstream cut("import Stimuli s <<END\nwave x 0:1\n");
  EXPECT_THROW((void)read_command(cut), support::HercError);

  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("imported i0 (Stimuli 's0', 23 bytes)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("after"), std::string::npos);
}

TEST(Cli, HelpAndCatalogs) {
  const auto [failures, out] = run("help\nentities\ntools\n");
  EXPECT_EQ(failures, 0u);
  EXPECT_NE(out.find("flow bind"), std::string::npos);
  EXPECT_NE(out.find("Netlist [abstract]"), std::string::npos);
  EXPECT_NE(out.find("Placer: Placer.default Placer.fast Placer.quality"),
            std::string::npos);
}

}  // namespace
}  // namespace herc::cli
