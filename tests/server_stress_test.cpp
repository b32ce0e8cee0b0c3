// The server under concurrent load: many clients mixing queries and
// mutations, pipelined replies in order, shared-session refusals, and
// graceful shutdown mid-run leaving a resumable, fsck-clean store.
//
// Runs under the thread-sanitizer CI job: the reader-writer lock around
// the shared DesignSession is the contract being checked.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "core/session.hpp"
#include "schema/standard_schemas.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "storage/fsck.hpp"
#include "support/error.hpp"

namespace herc::server {
namespace {

namespace fs = std::filesystem;

/// A served in-memory session bound to an ephemeral localhost port.
struct ServedSession {
  core::DesignSession session{schema::make_full_schema()};
  Server server{session};
  Endpoint bound;

  ServedSession() {
    bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();
  }
};

/// Imports the four Fig. 1 inputs and builds the simulate flow `f` in the
/// client's workspace; returns the number of failed commands.
int build_simulate_flow(Client& client) {
  int failures = 0;
  const auto run = [&](std::string_view line, std::string_view body = "") {
    if (!client.call(line, body).ok()) ++failures;
  };
  run("import EditedNetlist inv", circuit::inverter_netlist().to_text());
  run("import DeviceModels std",
      circuit::DeviceModelLibrary::standard().to_text());
  run("import Stimuli walk", "stimuli walk\nwave in 0:0 1000:1 2000:0\n");
  run("import Simulator sim \"\"");
  run("flow new f goal Performance");
  run("flow expand f 0");
  run("flow expand f 2");
  run("flow bind f 1 i3");
  run("flow bind f 3 i2");
  run("flow bind f 4 i1");
  run("flow bind f 5 i0");
  return failures;
}

TEST(ServerStressTest, ManyClientsMixQueriesAndMutations) {
  ServedSession served;
  constexpr int kClients = 8;
  constexpr int kRounds = 24;
  std::atomic<int> errors{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client = Client::connect(served.bound);
      if (!client.call("session user user" + std::to_string(c)).ok()) {
        ++errors;
      }
      for (int i = 0; i < kRounds; ++i) {
        CallResult result;
        if (i % 3 == 0) {
          // A mutation: imports serialize through the exclusive lock and
          // the shared history db.
          result = client.call(
              "import Stimuli s" + std::to_string(c) + "_" +
                  std::to_string(i),
              "stimuli s\nwave in 0:0 100:1\n");
        } else if (i % 3 == 1) {
          // A query under the shared lock.
          result = client.call("entities");
        } else {
          // Flow building stays in this connection's private workspace.
          result = client.call(i == 2 ? "flow new w" + std::to_string(c) +
                                            " goal Performance"
                                      : "plans");
        }
        if (!result.ok()) ++errors;
      }
      client.close();
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(errors.load(), 0);
  const ServerStats& stats = served.server.stats();
  EXPECT_EQ(stats.connections_accepted.load(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.command_errors.load(), 0u);
  // Every import from every client landed: one instance per mutation round.
  int imports = 0;
  for (int i = 0; i < kRounds; ++i) {
    if (i % 3 == 0) imports += kClients;
  }
  Client checker = Client::connect(served.bound);
  const CallResult browse = checker.call("browse Stimuli");
  EXPECT_TRUE(browse.ok());
  // One browser row per import, plus the banner and column-header lines.
  const long rows =
      std::count(browse.output.begin(), browse.output.end(), '\n') - 2;
  EXPECT_EQ(rows, imports);
  checker.close();
  served.server.stop();
}

TEST(ServerStressTest, PipelinedRepliesArriveStrictlyInOrder) {
  ServedSession served;
  Client client = Client::connect(served.bound);
  constexpr int kDepth = 64;  // all in flight before the first reply
  for (int i = 0; i < kDepth; ++i) {
    client.send("echo msg-" + std::to_string(i));
  }
  for (int i = 0; i < kDepth; ++i) {
    const CallResult result = client.receive();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.output, "msg-" + std::to_string(i) + "\n");
  }
  client.close();
  served.server.stop();
}

TEST(ServerStressTest, PipelinedBurstLargerThanTheSocketBuffers) {
  ServedSession served;
  Client client = Client::connect(served.bound);
  // 2,000 commands of 4 KiB each way are far more than the kernel's
  // socket buffers hold: the sender blocks until the server reads, and
  // the server blocks on its replies until the reader below catches up.
  constexpr int kCommands = 2'000;
  const auto word = [](int i) {
    std::string w = std::to_string(i) + "-";
    w.resize(4'096, 'x');
    return w;
  };
  std::thread sender([&] {
    try {
      for (int i = 0; i < kCommands; ++i) client.send("echo " + word(i));
    } catch (const support::NetError&) {
      // A torn connection fails the reply count below.
    }
  });
  int in_order = 0;
  try {
    for (int i = 0; i < kCommands; ++i) {
      const CallResult result = client.receive();
      if (result.ok() && result.output == word(i) + "\n") ++in_order;
    }
  } catch (const support::NetError& e) {
    ADD_FAILURE() << e.what();
  }
  sender.join();
  EXPECT_EQ(in_order, kCommands);
  client.close();
  served.server.stop();
  EXPECT_FALSE(served.server.running());
}

TEST(ServerStressTest, SessionScopedCommandsAreRefusedOnTheSharedSession) {
  ServedSession served;
  Client client = Client::connect(served.bound);
  for (const char* line :
       {"session new full", "session load x", "open /tmp/elsewhere",
        "store close"}) {
    const CallResult result = client.call(line);
    EXPECT_FALSE(result.ok()) << line;
    EXPECT_NE(result.error.find("shared session"), std::string::npos)
        << line << " -> " << result.error;
  }
  // The connection survives a refusal and keeps serving.
  EXPECT_TRUE(client.call("entities").ok());
  client.close();
  served.server.stop();
}

TEST(ServerStressTest, PerConnectionUserIsStampedOnProducts) {
  ServedSession served;
  Client alice = Client::connect(served.bound);
  ASSERT_TRUE(alice.call("session user alice").ok());
  ASSERT_EQ(build_simulate_flow(alice), 0);
  ASSERT_TRUE(alice.call("run f").ok());
  const CallResult browse = alice.call("browse Performance");
  EXPECT_TRUE(browse.ok());
  EXPECT_NE(browse.output.find("alice"), std::string::npos) << browse.output;

  // A second connection has its own identity and its own workspace.
  Client bob = Client::connect(served.bound);
  ASSERT_TRUE(bob.call("session user bob").ok());
  const CallResult result = bob.call("run f");
  EXPECT_FALSE(result.ok());  // alice's flow workspace is not bob's
  bob.close();

  const CallResult stats = alice.call("stats");
  EXPECT_TRUE(stats.ok());
  EXPECT_NE(stats.output.find("user 'alice'"), std::string::npos)
      << stats.output;
  EXPECT_NE(stats.output.find("connection"), std::string::npos);
  alice.close();
  served.server.stop();
}

TEST(ServerStressTest, StopMidRunLeavesAResumableFsckCleanStore) {
  const std::string dir =
      (fs::temp_directory_path() / "herc_server_stress_store").string();
  fs::remove_all(dir);
  {
    core::DesignSession session(schema::make_full_schema());
    session.open_storage(dir);
    Server server(session);
    const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();

    Client client = Client::connect(bound);
    ASSERT_EQ(build_simulate_flow(client), 0);
    // Pipelined: don't wait for the reply — the run must still be in
    // flight when stop() lands.  Two chained task groups at 500ms each
    // leave a wide window.
    client.send("run f parallel latency=500");
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server.stop();
    client.close();
    session.close_storage();
  }

  const storage::FsckReport report = storage::fsck_store(dir);
  EXPECT_EQ(report.exit_code(), 0) << report.render();
  EXPECT_TRUE(report.has("resumable-run")) << report.render();

  // A fresh session picks the sealed run back up and finishes it.
  core::DesignSession session(schema::make_full_schema());
  const storage::RecoveryReport recovery = session.open_storage(dir);
  EXPECT_EQ(recovery.interrupted_runs, 1u);
  const auto open = session.db().open_runs();
  ASSERT_EQ(open.size(), 1u);
  const exec::ExecResult result = session.resume_run(open.front()->id);
  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(session.db().open_runs().empty());
  session.close_storage();

  const storage::FsckReport after = storage::fsck_store(dir);
  EXPECT_EQ(after.exit_code(), 0) << after.render();
  fs::remove_all(dir);
}

// ---- the connection model ---------------------------------------------------
//
// A connection costs the server one thread: the thread that reads a
// command runs it and sends the reply.  A follower's journal stream adds
// its pump.

/// Threads in this process right now.
std::size_t thread_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const fs::directory_entry& task :
       fs::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

/// Polls (bounded) until the process has `want` threads; returns the
/// last count seen.  Threads start and exit asynchronously to the replies
/// that prove they exist.
std::size_t await_threads(std::size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t count = thread_count();
  while (count != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    count = thread_count();
  }
  return count;
}

/// A replication hub whose followers get one frame and then a stream that
/// stays open until the follower leaves or the server stops.
class HoldingHub : public ReplicationHub {
 public:
  bool subscribe(std::uint64_t conn_id, const std::string& /*peer*/,
                 std::string_view /*position*/,
                 std::string* /*error*/) override {
    std::scoped_lock lock(mutex_);
    pending_[conn_id] = 1;
    return true;
  }
  bool next_frame(std::uint64_t conn_id, Frame& frame) override {
    std::unique_lock lock(mutex_);
    while (true) {
      const auto it = pending_.find(conn_id);
      if (closed_ || it == pending_.end()) return false;
      if (it->second > 0) {
        --it->second;
        frame = {FrameType::kCheckpoint, ""};
        return true;
      }
      cv_.wait(lock);
    }
  }
  void ack(std::uint64_t /*conn_id*/, std::string_view /*payload*/) override {}
  void unsubscribe(std::uint64_t conn_id) override {
    {
      std::scoped_lock lock(mutex_);
      pending_.erase(conn_id);
    }
    cv_.notify_all();
  }
  std::string render_followers(bool json) const override {
    return json ? "[]" : "";
  }
  void close_all() override {
    {
      std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint64_t, int> pending_;  ///< frames left to send
  bool closed_ = false;
};

TEST(ServerStressTest, StatsNamesTheFailureThatStopsEveryWrite) {
  const std::string dir =
      (fs::temp_directory_path() / "herc_server_stats_failure").string();
  fs::remove_all(dir);
  {
    core::DesignSession session(schema::make_full_schema());
    session.open_storage(dir);
    Server server(session);
    const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();
    Client client = Client::connect(bound);
    ASSERT_TRUE(client.call("import Stimuli kept", "stimuli s\n").ok());
    const CallResult healthy = client.call("stats --json");
    EXPECT_NE(healthy.output.find("\"journal_failure\":\"\"}"),
              std::string::npos)
        << healthy.output;
    EXPECT_NE(client.call("stats").output.find("journal failure: none\n"),
              std::string::npos);

    // /dev/null takes the image but refuses fsync (EINVAL); only a symlink
    // in the store points at it.
    fs::create_symlink("/dev/null",
                       (fs::path(dir) / "snapshot.herc.tmp").string());
    const CallResult checkpoint = client.call("checkpoint");
    EXPECT_FALSE(checkpoint.ok());
    const std::string reason = std::strerror(EINVAL);
    EXPECT_NE(checkpoint.error.find(reason), std::string::npos)
        << checkpoint.error;
    // Every later write is refused with that first failure, and `stats`
    // says why.
    const CallResult refused = client.call("import Stimuli lost", "s\n");
    EXPECT_FALSE(refused.ok());
    EXPECT_NE(refused.error.find(reason), std::string::npos) << refused.error;
    const CallResult json = client.call("stats --json");
    const std::size_t key = json.output.find("\"journal_failure\":\"cannot");
    ASSERT_NE(key, std::string::npos) << json.output;
    EXPECT_NE(json.output.find("snapshot.herc.tmp", key), std::string::npos)
        << json.output;
    EXPECT_NE(json.output.find(reason, key), std::string::npos)
        << json.output;
    const CallResult text = client.call("stats");
    EXPECT_NE(text.output.find("journal failure: cannot fsync"),
              std::string::npos)
        << text.output;
    client.close();
    server.stop();
  }
  fs::remove_all(dir);
}

TEST(ServerStressTest, EachConnectionCostsOneServerThread) {
  core::DesignSession session(schema::make_full_schema());
  HoldingHub hub;
  Server server(session);
  server.set_replication_hub(&hub);
  const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
  server.start();
  const std::size_t idle = thread_count();

  constexpr std::size_t kClients = 8;
  std::vector<Client> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(Client::connect(bound));
    ASSERT_TRUE(clients.back().call("echo " + std::to_string(i)).ok());
  }
  EXPECT_EQ(await_threads(idle + kClients), idle + kClients);
  for (Client& client : clients) client.close();
  EXPECT_EQ(await_threads(idle), idle);

  // A subscribed follower: its connection thread reads acks while the
  // pump sends the stream.
  Socket follower = connect_to(bound, 2'000);
  Frame frame;
  ASSERT_TRUE(read_frame(follower.fd(), frame));
  ASSERT_EQ(frame.type, FrameType::kHello);
  write_frame(follower.fd(), {FrameType::kSubscribe, ""});
  ASSERT_TRUE(read_frame(follower.fd(), frame));
  EXPECT_EQ(frame.type, FrameType::kCheckpoint);
  EXPECT_EQ(await_threads(idle + 2), idle + 2);
  follower.close();
  EXPECT_EQ(await_threads(idle), idle);
  server.stop();
}

// ---- lock classes -----------------------------------------------------------
//
// The row that runs a command also names its lock.  `lint store` syncs the
// open store's journal, so it needs the exclusive lock wherever its
// `--json` flag stands; a line that matches no row fails as a usage error
// without touching the session, so it takes the shared one.

TEST(ServerStressTest, LintStoreWithJsonTakesTheExclusiveLock) {
  const std::string dir =
      (fs::temp_directory_path() / "herc_server_lint_json_store").string();
  fs::remove_all(dir);
  {
    core::DesignSession session(schema::make_full_schema());
    session.open_storage(dir);
    Server server(session);
    const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();

    constexpr int kClients = 2;
    constexpr int kRounds = 40;
    std::atomic<int> errors{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        Client client = Client::connect(bound);
        for (int i = 0; i < kRounds; ++i) {
          if (!client.call("lint --json store " + dir).ok()) ++errors;
        }
        client.close();
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(server.stats().write_commands.load(),
              static_cast<std::uint64_t>(kClients * kRounds));
    EXPECT_EQ(server.stats().read_commands.load(), 0u);
    server.stop();
    session.close_storage();
  }
  fs::remove_all(dir);
}

TEST(ServerStressTest, ReadOnlyServerRefusesLintStoreInBothForms) {
  core::DesignSession session(schema::make_full_schema());
  ServeOptions options;
  options.read_only = true;
  Server server(session, options);
  const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
  server.start();
  Client client = Client::connect(bound);
  for (const char* line : {"lint store /nonexistent/store",
                           "lint --json store /nonexistent/store",
                           "lint store /nonexistent/store --json"}) {
    const CallResult result = client.call(line);
    EXPECT_FALSE(result.ok()) << line;
    EXPECT_NE(result.error.find("read-only replica"), std::string::npos)
        << line << " -> " << result.error;
  }
  client.close();
  server.stop();
}

TEST(ServerStressTest, UnknownAndMalformedCommandsAreReads) {
  const char* const lines[] = {"teleport", "stats --jsn", "session bogus",
                               "schema"};
  {
    // A replica answers them as the interpreter does, not as writes.
    core::DesignSession session(schema::make_full_schema());
    ServeOptions options;
    options.read_only = true;
    Server server(session, options);
    const Endpoint bound =
        server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();
    Client client = Client::connect(bound);
    for (const char* line : lines) {
      const CallResult result = client.call(line);
      EXPECT_FALSE(result.ok()) << line;
      EXPECT_EQ(result.error.find("read-only replica"), std::string::npos)
          << line << " -> " << result.error;
      EXPECT_EQ(result.error.rfind("usage: ", 0), 0u)
          << line << " -> " << result.error;
    }
    EXPECT_NE(client.call("teleport").error.find(
                  "unknown command 'teleport'; try 'help'"),
              std::string::npos);
    client.close();
    server.stop();
  }
  // A leader runs them under the shared lock.
  ServedSession served;
  Client client = Client::connect(served.bound);
  for (const char* line : lines) EXPECT_FALSE(client.call(line).ok()) << line;
  EXPECT_EQ(served.server.stats().write_commands.load(), 0u);
  EXPECT_EQ(served.server.stats().read_commands.load(), std::size(lines));
  client.close();
  served.server.stop();
}

// ---- stop() edge cases ------------------------------------------------------
//
// The two nastiest shutdown windows: a client mid-pipeline (replies and
// refusals must stay strictly ordered, with no ok after the first
// refusal), and a client whose pipelined commands wait in the socket
// behind a slow run when the stop lands.  Both run under the TSan CI job,
// so a leaked connection thread or a lock order mistake in `stop()` fails
// the suite, not just this process's exit code.

TEST(ServerStressTest, StopMidPipelineDrainsOrRefusesInOrder) {
  core::DesignSession session(schema::make_full_schema());
  ServeOptions options;
  Server server(session, options);
  const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
  server.start();

  constexpr int kCommands = 200;
  Client client = Client::connect(bound);
  // Sends run in a second thread: once the queue is full the server stops
  // draining the socket and a blocked send must not deadlock the test.
  std::thread sender([&] {
    try {
      for (int i = 0; i < kCommands; ++i) {
        client.send("echo " + std::to_string(i));
      }
    } catch (const support::NetError&) {
      // Connection torn by stop() mid-send: expected.
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread stopper([&] { server.stop(); });

  int acked = 0;
  int refused = 0;
  bool out_of_order = false;
  try {
    for (int i = 0; i < kCommands; ++i) {
      const CallResult result = client.receive();
      if (result.ok()) {
        // Replies must arrive strictly in order, and an ok after the
        // first refusal would mean a command overtook the shutdown.
        if (refused > 0 || result.output != std::to_string(acked) + "\n") {
          out_of_order = true;
        }
        ++acked;
      } else {
        EXPECT_NE(result.error.find("shutting down"), std::string::npos)
            << result.error;
        ++refused;
      }
    }
  } catch (const support::NetError&) {
    // Remaining commands never reached the server: the torn connection
    // accounts for them.
  }
  stopper.join();
  sender.join();
  client.close();

  EXPECT_FALSE(out_of_order);
  EXPECT_LE(acked + refused, kCommands);
  EXPECT_FALSE(server.running());
  // The session survives the shutdown intact and is servable again.
  Server second(session);
  const Endpoint again = second.add_listener(Endpoint::parse("127.0.0.1:0"));
  second.start();
  Client probe = Client::connect(again);
  EXPECT_TRUE(probe.call("entities").ok());
  probe.close();
  second.stop();
}

TEST(ServerStressTest, StopWithFullQueueSealsAResumableStore) {
  const std::string dir =
      (fs::temp_directory_path() / "herc_server_stop_full_queue").string();
  fs::remove_all(dir);
  bool resumable = false;
  {
    core::DesignSession session(schema::make_full_schema());
    session.open_storage(dir);
    ServeOptions options;
    Server server(session, options);
    const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();

    Client client = Client::connect(bound);
    ASSERT_EQ(build_simulate_flow(client), 0);
    // A slow run at the queue head plus a flood behind it: the worker is
    // busy, the 2-slot queue fills, the reader parks on backpressure —
    // exactly the state stop() must unwind without losing the store.
    std::thread sender([&] {
      try {
        client.send("run f latency=400");
        for (int i = 0; i < 64; ++i) client.send("entities");
      } catch (const support::NetError&) {
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    server.stop();
    sender.join();

    // Whatever drained must still be well-formed: the run either finished
    // or was cancelled; everything refused says so cleanly.
    try {
      const CallResult run_result = client.receive();
      if (!run_result.ok()) {
        EXPECT_TRUE(
            run_result.error.find("cancelled") != std::string::npos ||
            run_result.error.find("shutting down") != std::string::npos)
            << run_result.error;
      }
      for (int i = 0; i < 64; ++i) {
        const CallResult result = client.receive();
        if (!result.ok()) {
          EXPECT_NE(result.error.find("shutting down"), std::string::npos)
              << result.error;
        }
      }
    } catch (const support::NetError&) {
      // Torn before every reply: fine, the store checks below are the
      // real contract.
    }
    client.close();
    resumable = !session.db().open_runs().empty();
    session.close_storage();
  }

  // The store is fsck-clean; if the run was cut mid-flight it is sealed
  // resumable and a fresh session finishes it.
  const storage::FsckReport report = storage::fsck_store(dir);
  EXPECT_EQ(report.exit_code(), 0) << report.render();
  if (resumable) {
    EXPECT_TRUE(report.has("resumable-run")) << report.render();
    core::DesignSession session(schema::make_full_schema());
    session.open_storage(dir);
    const auto open = session.db().open_runs();
    ASSERT_EQ(open.size(), 1u);
    const exec::ExecResult result = session.resume_run(open.front()->id);
    EXPECT_TRUE(result.complete());
    EXPECT_TRUE(session.db().open_runs().empty());
    session.close_storage();
    const storage::FsckReport after = storage::fsck_store(dir);
    EXPECT_EQ(after.exit_code(), 0) << after.render();
  }
  fs::remove_all(dir);
}

// ---- half-open and dying clients --------------------------------------------
//
// A client that dies mid-frame (or goes silent holding a connection)
// must cost the server one reaped connection, not a wedged worker: the
// deadline reads in the reader loop are the contract.

TEST(ServerStressTest, MidFrameClientDeathDoesNotWedgeTheServer) {
  ServedSession served;
  // A frame header promising 4096 bytes, followed by a fraction of them
  // and an abrupt close: the reader is mid-frame when the peer vanishes.
  std::string torn;
  torn.push_back(static_cast<char>(0x00));
  torn.push_back(static_cast<char>(0x10));
  torn.push_back(static_cast<char>(0x00));
  torn.push_back(static_cast<char>(0x00));
  torn.push_back(static_cast<char>(FrameType::kCommand));
  torn += std::string(64, 'x');
  {
    Socket dying = connect_to(served.bound, 2'000);
    Frame hello;
    ASSERT_TRUE(read_frame(dying.fd(), hello));
    ASSERT_EQ(::send(dying.fd(), torn.data(), torn.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(torn.size()));
    dying.close();
  }
  // The server sheds the torn connection and keeps serving new ones with
  // replies intact and in order.
  Client survivor = Client::connect(served.bound);
  for (int i = 0; i < 8; ++i) {
    const CallResult result = survivor.call("echo after-" + std::to_string(i));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.output, "after-" + std::to_string(i) + "\n");
  }
  survivor.close();
  served.server.stop();
}

TEST(ServerStressTest, MidFrameStallIsReapedByTheFrameDeadline) {
  core::DesignSession session(schema::make_full_schema());
  ServeOptions options;
  options.frame_timeout_ms = 150;
  Server server(session, options);
  const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
  server.start();

  // Half-open: the frame starts, then the peer goes silent WITHOUT
  // closing — only the frame deadline can unpin the reader.
  Socket stalled = connect_to(bound, 2'000);
  Frame hello;
  ASSERT_TRUE(read_frame(stalled.fd(), hello));
  const char header[5] = {0x00, 0x04, 0x00, 0x00,
                          static_cast<char>(FrameType::kCommand)};
  ASSERT_EQ(::send(stalled.fd(), header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server.stats().connections_reaped.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.stats().connections_reaped.load(), 1u);
  stalled.close();

  Client survivor = Client::connect(bound);
  EXPECT_TRUE(survivor.call("entities").ok());
  survivor.close();
  server.stop();
}

TEST(ServerStressTest, IdleConnectionsAreReapedAndNewOnesStillServed) {
  core::DesignSession session(schema::make_full_schema());
  ServeOptions options;
  options.idle_timeout_ms = 120;
  Server server(session, options);
  const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
  server.start();

  Client idler = Client::connect(bound);
  ASSERT_TRUE(idler.call("entities").ok());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server.stats().connections_reaped.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.stats().connections_reaped.load(), 1u);
  // The reaped socket is dead from the client's side...
  EXPECT_THROW((void)idler.call("entities"), support::NetError);
  idler.close();
  // ...and an active client is never reaped while it keeps talking.
  Client active = Client::connect(bound);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(active.call("entities").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  active.close();
  server.stop();
}

}  // namespace
}  // namespace herc::server
