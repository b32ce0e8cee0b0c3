#include "server/resilient.hpp"

#include <atomic>
#include <chrono>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "cli/interpreter.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace herc::server {

using support::NetError;

namespace {

std::atomic<std::uint64_t> g_client_counter{0};

std::string make_client_id() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const auto ticks = static_cast<std::uint64_t>(now.count());
  std::ostringstream id;
  id << "r" << ::getpid() << "-" << (++g_client_counter) << "-" << std::hex
     << (ticks & 0xffffffULL);
  return id.str();
}

}  // namespace

ResilientClient::ResilientClient(Endpoint leader, ResilientOptions options)
    : leader_(std::move(leader)),
      options_(options),
      client_id_(options.client_id.empty() ? make_client_id()
                                           : options.client_id),
      backoff_(options.backoff_base_ms, options.backoff_cap_ms,
               // Backoff wants a nonzero seed.
               options.seed != 0 ? options.seed
                                 : support::fnv1a(client_id_) | 1) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

void ResilientClient::set_endpoints(Endpoint leader,
                                    std::vector<Endpoint> replicas) {
  leader_ = std::move(leader);
  replicas_ = std::move(replicas);
}

void ResilientClient::ensure_connected() {
  if (client_.connected()) return;
  Client fresh = Client::connect(leader_, options_.connect_timeout_ms);
  fresh.set_read_timeout(options_.read_timeout_ms);
  const bool first = last_boot_ == 0;
  const bool restarted = !first && fresh.server_boot() != last_boot_;
  if (!first) {
    ++generation_;
    ++reconnects_;
  }
  last_boot_ = fresh.server_boot();
  client_ = std::move(fresh);
  transmitted_ = 0;
  if (restarted) {
    std::size_t lost = 0;
    for (const Pending& p : pending_) {
      if (p.ever_sent) ++lost;
    }
    if (lost > 0) {
      // The new incarnation has no dedup window for our id: replaying
      // those tokens could execute them a second time, and NOT replaying
      // them leaves them maybe-applied.  Surface the honest answer.
      // (Never-transmitted commands are dropped with them: replies are
      // strictly ordered, so they cannot be answered without the lost
      // ones ahead of them.)
      pending_.clear();
      throw NetError("server restarted: the outcome of " +
                     std::to_string(lost) +
                     " unacknowledged command(s) is unknown");
    }
  }
  if (!user_.empty()) {
    // Connection-scoped identity: re-establish before any replayed or new
    // command so mutations keep the right creating user.
    const CallResult applied = client_.call("session user " + user_);
    (void)applied;
  }
  for (Pending& p : pending_) {
    if (p.ever_sent) ++replays_;
    p.ever_sent = true;  // before the write: a torn write may still deliver
    client_.send_token(client_id_, p.seq, p.command, p.body);
  }
  transmitted_ = pending_.size();
}

void ResilientClient::send(std::string_view command, std::string_view body) {
  const cli::Command parsed = cli::Interpreter::parse(command);
  if (connection_command(parsed.args) == ConnectionCommand::kUser) {
    user_ = parsed.args[2];
  }
  Pending p;
  p.seq = ++seq_;
  p.command.assign(command);
  p.body.assign(body);
  p.read = parsed.access() == cli::CommandAccess::kRead;
  pending_.push_back(std::move(p));
  if (!client_.connected()) return;  // receive() will connect and replay
  try {
    pending_.back().ever_sent = true;  // before the write, see above
    client_.send_token(client_id_, pending_.back().seq, command, body);
    ++transmitted_;
  } catch (const NetError&) {
    client_.close();
    transmitted_ = 0;  // receive() reconnects and replays the whole queue
  }
}

CallResult ResilientClient::receive() {
  if (pending_.empty()) throw NetError("receive: nothing pending");
  std::string last_error = "not connected";
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (abort_ != nullptr && abort_->load()) break;
    try {
      ensure_connected();
      for (std::size_t i = transmitted_; i < pending_.size(); ++i) {
        pending_[i].ever_sent = true;  // before the write, see above
        client_.send_token(client_id_, pending_[i].seq, pending_[i].command,
                           pending_[i].body);
      }
      transmitted_ = pending_.size();
      CallResult result = client_.receive();
      pending_.pop_front();
      if (transmitted_ > 0) --transmitted_;
      backoff_.reset();
      return result;
    } catch (const NetError& error) {
      if (pending_.empty()) throw;  // outcome-unknown: nothing to retry
      last_error = error.what();
      client_.close();
      transmitted_ = 0;
      if (pending_.size() == 1 && pending_.front().read &&
          !replicas_.empty()) {
        CallResult from_replica;
        if (read_from_replica(pending_.front().command,
                              pending_.front().body, &last_error,
                              &from_replica)) {
          pending_.clear();
          return from_replica;
        }
      }
      if (attempt + 1 < options_.max_attempts) backoff_.sleep(abort_);
    }
  }
  throw NetError("gave up after " + std::to_string(options_.max_attempts) +
                 " attempt(s): " + last_error);
}

CallResult ResilientClient::call(std::string_view command,
                                 std::string_view body) {
  if (!pending_.empty()) {
    throw NetError("call: " + std::to_string(pending_.size()) +
                   " pipelined replies outstanding; receive() them first");
  }
  send(command, body);
  return receive();
}

bool ResilientClient::read_from_replica(std::string_view command,
                                        std::string_view body,
                                        std::string* error,
                                        CallResult* out) {
  for (const Endpoint& endpoint : replicas_) {
    if (abort_ != nullptr && abort_->load()) break;
    try {
      Client replica = Client::connect(endpoint, options_.connect_timeout_ms);
      replica.set_read_timeout(options_.read_timeout_ms);
      *out = replica.call(command, body);
      ++failovers_;
      return true;
    } catch (const NetError& replica_error) {
      *error += "; replica " + endpoint.describe() + ": " +
                replica_error.what();
    }
  }
  return false;
}

}  // namespace herc::server
