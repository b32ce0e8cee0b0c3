// FaultProxy + ResilientClient: the network-fault matrix in-process.
//
// Each test stands up a real server, parks the FaultProxy in front of
// it, and drives a ResilientClient through one fault family:
// transparency (no fault = no observable proxy), added latency,
// mid-frame drops (exactly-once across the retry), silent partitions
// (deadline detection + recovery at heal), asymmetric half-close, read
// failover to a replica, and the honest outcome-unknown answer when the
// server restarts with tokens in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/session.hpp"
#include "schema/standard_schemas.hpp"
#include "server/client.hpp"
#include "server/resilient.hpp"
#include "server/server.hpp"
#include "sim/netfault.hpp"
#include "support/error.hpp"

namespace herc::sim {
namespace {

using server::CallResult;
using server::Client;
using server::Endpoint;
using server::ResilientClient;
using server::ResilientOptions;
using server::ServeOptions;
using server::Server;

/// A served in-memory session with a FaultProxy in front of it.
struct ProxiedServer {
  core::DesignSession session{schema::make_full_schema()};
  Server server;
  Endpoint bound;
  FaultProxy proxy;

  // The comma expression starts the server before the proxy dials it:
  // members initialize in declaration order, so `bound` is ready too.
  explicit ProxiedServer(ServeOptions options = {})
      : server(session, options),
        bound(server.add_listener(Endpoint::parse("127.0.0.1:0"))),
        proxy((server.start(), bound)) {}
  ~ProxiedServer() { server.stop(); }
};

/// Fast-retry options for tests: failures are induced, so waiting the
/// production backoff would only slow the suite down.
ResilientOptions fast_options(int read_timeout_ms = 2'000) {
  ResilientOptions options;
  options.connect_timeout_ms = 2'000;
  options.read_timeout_ms = read_timeout_ms;
  options.max_attempts = 20;
  options.backoff_base_ms = 5;
  options.backoff_cap_ms = 40;
  options.seed = 7;
  return options;
}

std::size_t count_in(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(NetFaultTest, HealthyProxyIsInvisible) {
  ProxiedServer rig;
  Client client = Client::connect(rig.proxy.endpoint());
  EXPECT_EQ(client.role(), "leader");
  const CallResult echo = client.call("echo through-the-proxy");
  EXPECT_TRUE(echo.ok());
  EXPECT_EQ(echo.output, "through-the-proxy\n");
  EXPECT_TRUE(client.call("entities").ok());
  client.close();
  EXPECT_GE(rig.proxy.connections_proxied(), 1u);
  EXPECT_EQ(rig.proxy.connections_cut(), 0u);
}

TEST(NetFaultTest, DelayAddsLatencyWithoutBreakingAnything) {
  ProxiedServer rig;
  Client client = Client::connect(rig.proxy.endpoint());
  rig.proxy.set_delay_ms(60);
  const auto before = std::chrono::steady_clock::now();
  const CallResult echo = client.call("echo slow");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - before);
  EXPECT_TRUE(echo.ok());
  EXPECT_EQ(echo.output, "slow\n");
  // One delayed chunk each way is the floor.
  EXPECT_GE(elapsed.count(), 60);
  rig.proxy.heal();
  client.close();
}

TEST(NetFaultTest, MidFrameDropRetriesToExactlyOnce) {
  ProxiedServer rig;
  ResilientClient client(rig.proxy.endpoint(), fast_options());
  ASSERT_TRUE(client.call("session user dropper").ok());

  // A body fat enough that a 100-byte budget always cuts mid-frame, on
  // the first connection and on every retry until the heal below.
  std::string body = "stimuli s\n";
  for (int i = 0; i < 12; ++i) body += "wave in 0:0 1000:1 2000:0\n";
  rig.proxy.set_drop_after(100);

  CallResult result;
  std::thread caller([&] {
    result = client.call("import Stimuli drop_once", body);
  });
  // Heal once the proxy has cut a connection, not after a fixed sleep: a
  // slow caller (a sanitizer build) may send only after such a sleep, and
  // then nothing is ever cut.  The deadline only keeps a broken proxy
  // from hanging the test; the assertions below then fail.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (rig.proxy.connections_cut() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  rig.proxy.heal();
  caller.join();

  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(rig.proxy.connections_cut(), 1u);

  const CallResult browse = client.call("browse Stimuli");
  ASSERT_TRUE(browse.ok());
  EXPECT_EQ(count_in(browse.output, "drop_once"), 1u);
}

TEST(NetFaultTest, PartitionIsDetectedByDeadlineAndHealsClean) {
  ProxiedServer rig;
  // A short read timeout is the only way to see a silent partition: no
  // FIN ever arrives, the reply just never comes.
  ResilientClient client(rig.proxy.endpoint(), fast_options(250));
  ASSERT_TRUE(client.call("echo warm").ok());

  rig.proxy.partition();
  CallResult result;
  std::thread caller([&] { result = client.call("echo across"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  rig.proxy.heal();
  caller.join();

  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.output, "across\n");
  EXPECT_GE(client.reconnects(), 1u);
}

TEST(NetFaultTest, HalfCloseForcesAReconnectNotAWedge) {
  ProxiedServer rig;
  ResilientClient client(rig.proxy.endpoint(), fast_options());
  ASSERT_TRUE(client.call("echo live").ok());

  rig.proxy.half_close_live();
  // The reply path is FINed: this call's read sees EOF mid-stream and
  // the client must reconnect and retry on a fresh link.
  const CallResult after = client.call("echo reborn");
  EXPECT_TRUE(after.ok()) << after.error;
  EXPECT_EQ(after.output, "reborn\n");
  EXPECT_GE(client.reconnects(), 1u);
  rig.proxy.heal();
}

TEST(NetFaultTest, ReadsFailOverToAReplicaWhenTheLeaderIsUnreachable) {
  ProxiedServer rig;
  // A read-only server over the same session stands in for a caught-up
  // replica (same data, refuses writes, announces role=replica).
  ServeOptions replica_options;
  replica_options.read_only = true;
  Server replica(rig.session, replica_options);
  const Endpoint replica_bound =
      replica.add_listener(Endpoint::parse("127.0.0.1:0"));
  replica.start();

  ResilientOptions options = fast_options(200);
  options.connect_timeout_ms = 300;
  options.max_attempts = 2;  // fail over on the first dead leader read
  ResilientClient client(rig.proxy.endpoint(), options);
  client.set_endpoints(rig.proxy.endpoint(), {replica_bound});
  ASSERT_TRUE(client.call("echo warm").ok());
  {
    Client probe = Client::connect(replica_bound);
    EXPECT_TRUE(probe.is_replica());
    probe.close();
  }

  rig.proxy.partition();
  const CallResult entities = client.call("entities");
  EXPECT_TRUE(entities.ok()) << entities.error;
  EXPECT_EQ(client.failovers(), 1u);

  // Writes never fail over: the replica would refuse them, and the
  // retry loop keeps aiming at the leader until attempts run out.
  const auto write_attempt = [&] {
    (void)client.call("import Stimuli nofail",
                      "stimuli s\nwave in 0:0 100:1\n");
  };
  EXPECT_THROW(write_attempt(), support::NetError);
  client.abandon_pending();
  EXPECT_EQ(client.failovers(), 1u);

  rig.proxy.heal();
  replica.stop();
}

TEST(NetFaultTest, RestartWithTokensInFlightIsAnHonestUnknown) {
  core::DesignSession session{schema::make_full_schema()};
  auto server = std::make_unique<Server>(session);
  const Endpoint first_bound =
      server->add_listener(Endpoint::parse("127.0.0.1:0"));
  server->start();
  FaultProxy proxy(first_bound);

  ResilientClient client(proxy.endpoint(), fast_options(250));
  ASSERT_TRUE(client.call("echo warm").ok());
  const std::uint64_t first_boot = client.server_boot();

  // Black-hole the wire, transmit a mutation into the void, then
  // restart the server: the token was put on a wire but never acked,
  // and the new incarnation has no dedup window to consult.
  proxy.partition();
  client.send("import Stimuli limbo", "stimuli s\nwave in 0:0 100:1\n");
  EXPECT_EQ(client.pending(), 1u);
  server->stop();
  server = std::make_unique<Server>(session);
  const Endpoint second_bound =
      server->add_listener(Endpoint::parse("127.0.0.1:0"));
  server->start();
  proxy.set_target(second_bound);
  proxy.heal();

  try {
    (void)client.receive();
    FAIL() << "expected the outcome-unknown error";
  } catch (const support::NetError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown"), std::string::npos)
        << error.what();
  }
  // The pending queue was dropped with the error; the client is usable
  // again and talks to the new incarnation.
  EXPECT_EQ(client.pending(), 0u);
  const CallResult after = client.call("echo recovered");
  EXPECT_TRUE(after.ok()) << after.error;
  EXPECT_NE(client.server_boot(), first_boot);
  server->stop();
}

TEST(NetFaultTest, PipelinedCommandsReplayInOrderAcrossACut) {
  ProxiedServer rig;
  ResilientClient client(rig.proxy.endpoint(), fast_options());
  ASSERT_TRUE(client.call("session user pipeliner").ok());

  constexpr int kDepth = 8;
  for (int i = 0; i < kDepth; ++i) {
    client.send("import Stimuli pipe_" + std::to_string(i),
                "stimuli s\nwave in 0:0 100:1\n");
  }
  // Cut the live link out from under the queue; the client replays every
  // unacked token on reconnect and replies come back strictly in order.
  rig.proxy.set_drop_after(1);
  std::thread healer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    rig.proxy.heal();
  });
  for (int i = 0; i < kDepth; ++i) {
    const CallResult result = client.receive();
    EXPECT_TRUE(result.ok()) << i << ": " << result.error;
  }
  healer.join();
  EXPECT_EQ(client.pending(), 0u);

  const CallResult browse = client.call("browse Stimuli");
  ASSERT_TRUE(browse.ok());
  for (int i = 0; i < kDepth; ++i) {
    EXPECT_EQ(count_in(browse.output, "pipe_" + std::to_string(i)), 1u) << i;
  }
}

}  // namespace
}  // namespace herc::sim
