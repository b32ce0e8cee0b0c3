// Exactly-once retries, proved the hard way (the journal-truncation
// sweep's discipline applied to the wire):
//
//   1. Kill the connection at EVERY byte offset of an encoded tokened
//      mutation — inside the length prefix, the type byte, the token
//      line, the command, the heredoc body, and after the full frame —
//      then retry the SAME token over a fresh connection.  The retry
//      must succeed and the store must hold exactly one instance: the
//      mutation applied once, never zero times, never twice.
//   2. A replayed token of an applied mutation returns the original
//      reply verbatim (the cached-reply path), not a fresh execution.
//   3. A token older than the dedup window is refused with a structured
//      error instead of silently re-executing.
//   4. Boot ids are fresh per server incarnation — the signal a client
//      uses to know the dedup window is gone.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "core/session.hpp"
#include "schema/standard_schemas.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "support/error.hpp"

namespace herc::server {
namespace {

/// A served in-memory session bound to an ephemeral localhost port.
struct ServedSession {
  core::DesignSession session{schema::make_full_schema()};
  Server server;
  Endpoint bound;

  explicit ServedSession(ServeOptions options = {})
      : server(session, options) {
    bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();
  }
  ~ServedSession() { server.stop(); }
};

/// Occurrences of `needle` in `haystack` (the instance count of a
/// fixed-width unique name in a browse listing).
std::size_t count_in(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// Connects raw, consumes the server hello, delivers exactly `bytes`,
/// then dies abruptly — a client killed mid-send.
void send_partial_and_die(const Endpoint& endpoint, const std::string& bytes) {
  Socket sock = connect_to(endpoint, 2'000);
  Frame hello;
  ASSERT_TRUE(read_frame(sock.fd(), hello));
  ASSERT_EQ(hello.type, FrameType::kHello);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(sock.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  sock.close();
}

TEST(IdempotencyPropertyTest, KillAtEveryByteThenRetryAppliesExactlyOnce) {
  ServedSession served;
  const std::string kClientId = "prop-client";
  const std::string kBody = "stimuli s\nwave in 0:0 1000:1 2000:0\n";

  // One mutation per cut offset, each with a fixed-width unique name so
  // substring counting in the browse listing is exact.
  const auto name_for = [](std::size_t cut) {
    std::string name = "cut";
    name += static_cast<char>('0' + cut / 100 % 10);
    name += static_cast<char>('0' + cut / 10 % 10);
    name += static_cast<char>('0' + cut % 10);
    return name;
  };

  // Sequence numbers start at 101 so they stay three digits for the
  // whole sweep: with the fixed-width names that keeps every offset's
  // encoded frame the same length.
  const auto seq_for = [](std::size_t cut) {
    return static_cast<std::uint64_t>(101 + cut);
  };
  const auto frame_bytes = [&](std::size_t cut) {
    Frame frame;
    frame.type = FrameType::kTokenCommand;
    frame.payload = encode_token(kClientId, seq_for(cut),
                                 "import Stimuli " + name_for(cut) + "\n" +
                                     kBody);
    return encode_frame(frame);
  };
  const std::size_t frame_size = frame_bytes(0).size();

  Client checker = Client::connect(served.bound);
  // Cut at every offset, including `frame_size` itself: the full frame
  // delivered but the client dead before reading the reply — the one
  // case where the mutation HAS applied and the retry must dedup.
  for (std::size_t cut = 0; cut <= frame_size; ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string bytes = frame_bytes(cut);
    ASSERT_EQ(bytes.size(), frame_size);
    send_partial_and_die(served.bound, bytes.substr(0, cut));

    // The retry: same client id, same sequence, fresh connection.
    Client retry = Client::connect(served.bound);
    retry.send_token(kClientId, seq_for(cut),
                     "import Stimuli " + name_for(cut), kBody);
    const CallResult result = retry.receive();
    ASSERT_TRUE(result.ok()) << result.error;
    retry.close();

    const CallResult browse = checker.call("browse Stimuli");
    ASSERT_TRUE(browse.ok());
    EXPECT_EQ(count_in(browse.output, name_for(cut)), 1u);
  }

  // The whole sweep applied exactly one instance per offset.
  const CallResult browse = checker.call("browse Stimuli");
  ASSERT_TRUE(browse.ok());
  const long rows =
      std::count(browse.output.begin(), browse.output.end(), '\n') - 2;
  EXPECT_EQ(static_cast<std::size_t>(rows), frame_size + 1);
  // On the full-frame cut the retry may run first; the dead connection's
  // copy is then the replay, served once that connection's thread reads
  // its frame.  Once only the checker's connection is left, every dead
  // connection has run its frame.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (served.server.stats().connections_active.load() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Only full-frame deliveries count as duplicates; every shorter cut
  // never reached the interpreter, so its retry was a first execution.
  EXPECT_GE(served.server.stats().replays_served.load(), 1u);
  checker.close();
}

TEST(IdempotencyPropertyTest, ReplayedTokenReturnsTheCachedReplyVerbatim) {
  ServedSession served;
  Client client = Client::connect(served.bound);
  const std::string body = "stimuli s\nwave in 0:0 100:1\n";

  client.send_token("replayer", 1, "import Stimuli dup_probe", body);
  const CallResult original = client.receive();
  ASSERT_TRUE(original.ok()) << original.error;

  // Same token again on a live connection: the dedup window answers.
  client.send_token("replayer", 1, "import Stimuli dup_probe", body);
  const CallResult replay = client.receive();
  EXPECT_TRUE(replay.ok());
  EXPECT_EQ(replay.output, original.output);
  EXPECT_EQ(replay.severity, original.severity);

  const CallResult browse = client.call("browse Stimuli");
  ASSERT_TRUE(browse.ok());
  EXPECT_EQ(count_in(browse.output, "dup_probe"), 1u);
  EXPECT_GE(served.server.stats().dedup_hits.load(), 1u);
  EXPECT_GE(served.server.stats().replays_served.load(), 1u);
  client.close();
}

TEST(IdempotencyPropertyTest, TokenOlderThanTheWindowIsRefusedNotReExecuted) {
  ServeOptions options;
  options.dedup_window = 4;
  ServedSession served(options);
  Client client = Client::connect(served.bound);
  const std::string body = "stimuli s\nwave in 0:0 100:1\n";

  constexpr std::uint64_t kSends = 10;
  for (std::uint64_t seq = 1; seq <= kSends; ++seq) {
    client.send_token("ager", seq,
                      "import Stimuli age_" + std::to_string(seq), body);
    ASSERT_TRUE(client.receive().ok());
  }
  // Seq 1 fell off the 4-deep window long ago: the server can no longer
  // prove it was applied, so it must refuse — silently re-executing
  // would break exactly-once.
  client.send_token("ager", 1, "import Stimuli age_1", body);
  const CallResult stale = client.receive();
  EXPECT_FALSE(stale.ok());
  EXPECT_NE(stale.error.find("outside the dedup window"), std::string::npos)
      << stale.error;

  const CallResult browse = client.call("browse Stimuli");
  ASSERT_TRUE(browse.ok());
  // age_1 still has exactly its original instance ("age_1" is a prefix
  // of "age_10", so subtract that hit), and nothing was re-executed.
  EXPECT_EQ(count_in(browse.output, "age_10"), 1u);
  EXPECT_EQ(count_in(browse.output, "age_1") - count_in(browse.output,
                                                        "age_10"),
            1u);
  client.close();
}

TEST(IdempotencyPropertyTest, EachServerIncarnationHasAFreshBootId) {
  core::DesignSession session{schema::make_full_schema()};
  std::uint64_t first_boot = 0;
  {
    Server server(session);
    const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();
    Client client = Client::connect(bound);
    first_boot = client.server_boot();
    EXPECT_NE(first_boot, 0u);
    EXPECT_EQ(client.role(), "leader");
    EXPECT_FALSE(client.is_replica());
    client.close();
    server.stop();
  }
  Server server(session);
  const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
  server.start();
  Client client = Client::connect(bound);
  EXPECT_NE(client.server_boot(), 0u);
  EXPECT_NE(client.server_boot(), first_boot);
  client.close();
  server.stop();
}

}  // namespace
}  // namespace herc::server
