#include "sim/netfault.hpp"

#include <cerrno>
#include <chrono>

#include <sys/socket.h>

#include "support/error.hpp"

namespace herc::sim {

using server::Endpoint;
using server::Socket;

namespace {

/// Writes all of `len`, swallowing the peer-vanished errors (the pump
/// just ends).  False = the link is dead.
bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

struct FaultProxy::Link {
  Socket client;  ///< the accepted (front) side
  Socket server;  ///< the dialed (target) side
  /// Cut once `forwarded_to_server` reaches this; 0 = unlimited.  Atomic:
  /// `set_drop_after` re-arms live links from the control thread.
  std::atomic<std::uint64_t> budget{0};
  std::atomic<std::uint64_t> forwarded_to_server{0};
  std::atomic<bool> dead{false};
  std::atomic<bool> stalled{false};
  std::atomic<bool> half_closed{false};
  std::atomic<int> pumps_done{0};
  std::thread up, down;

  /// Idempotent kill: both directions shut down, pumps unblock.
  void kill() {
    dead.store(true);
    client.shutdown_both();
    server.shutdown_both();
  }
};

FaultProxy::FaultProxy(Endpoint target) : target_(std::move(target)) {
  front_.kind = Endpoint::Kind::kTcp;
  front_.host = "127.0.0.1";
  front_.port = 0;
  listener_ = server::listen_on(front_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

FaultProxy::~FaultProxy() {
  stopping_.store(true);
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  close_all_links();
  std::scoped_lock lock(links_mutex_);
  for (auto& link : links_) {
    if (link->up.joinable()) link->up.join();
    if (link->down.joinable()) link->down.join();
  }
  links_.clear();
}

Endpoint FaultProxy::target() const {
  std::scoped_lock lock(target_mutex_);
  return target_;
}

void FaultProxy::set_target(Endpoint target) {
  std::scoped_lock lock(target_mutex_);
  target_ = std::move(target);
}

void FaultProxy::set_drop_after(std::uint64_t bytes) {
  drop_after_.store(bytes);
  if (bytes == 0) return;
  std::scoped_lock lock(links_mutex_);
  for (auto& link : links_) {
    if (link->pumps_done.load() >= 2 || link->dead.load()) continue;
    link->budget.store(link->forwarded_to_server.load() + bytes);
  }
}

void FaultProxy::half_close_live() {
  std::scoped_lock lock(links_mutex_);
  for (auto& link : links_) {
    if (link->pumps_done.load() >= 2 || link->dead.load()) continue;
    link->half_closed.store(true);
    // FIN toward the client only: its reads see EOF mid-reply while its
    // writes keep flowing — the asymmetric half of a real network death.
    if (link->client.valid()) ::shutdown(link->client.fd(), SHUT_WR);
  }
}

void FaultProxy::heal() {
  delay_ms_.store(0);
  drop_after_.store(0);
  partitioned_.store(false);
  std::scoped_lock lock(links_mutex_);
  for (auto& link : links_) {
    link->budget.store(0);  // disarm any pending drop
    // A stalled or half-closed link is a zombie either way — close it so
    // both endpoints finally observe the failure and can reconnect.
    if (link->stalled.load() || link->half_closed.load()) link->kill();
  }
}

std::size_t FaultProxy::live_connections() const {
  std::scoped_lock lock(links_mutex_);
  std::size_t live = 0;
  for (const auto& link : links_) {
    if (link->pumps_done.load() < 2) ++live;
  }
  return live;
}

void FaultProxy::accept_loop() {
  while (!stopping_.load()) {
    std::string peer;
    Socket client = server::accept_from(listener_, &peer);
    if (!client.valid()) break;  // listener shut down
    reap_finished();
    Socket upstream;
    try {
      upstream = server::connect_to(target(), 2'000);
    } catch (const support::NetError&) {
      continue;  // target down: the client sees an immediate close
    }
    auto link = std::make_unique<Link>();
    link->client = std::move(client);
    link->server = std::move(upstream);
    link->budget.store(drop_after_.load());
    accepted_.fetch_add(1);
    Link* raw = link.get();
    // Registered before its pumps run: a fault injected as soon as a call
    // on this link is answered must find the link.
    std::scoped_lock lock(links_mutex_);
    link->up = std::thread([this, raw] { pump(*raw, true); });
    link->down = std::thread([this, raw] { pump(*raw, false); });
    links_.push_back(std::move(link));
  }
}

void FaultProxy::pump(Link& link, bool toward_server) {
  const int src = toward_server ? link.client.fd() : link.server.fd();
  const int dst = toward_server ? link.server.fd() : link.client.fd();
  char buf[4096];
  while (!stopping_.load() && !link.dead.load()) {
    const ssize_t n = ::recv(src, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    // Black hole: hold the bytes (and everything after them) until the
    // partition heals or heal() kills the link.
    while (partitioned_.load() && !stopping_.load() && !link.dead.load()) {
      link.stalled.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (stopping_.load() || link.dead.load()) break;
    const int delay = delay_ms_.load();
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    std::size_t to_send = static_cast<std::size_t>(n);
    bool cut = false;
    const std::uint64_t budget = toward_server ? link.budget.load() : 0;
    if (budget > 0) {
      const std::uint64_t done = link.forwarded_to_server.load();
      const std::uint64_t left = budget > done ? budget - done : 0;
      if (static_cast<std::uint64_t>(n) >= left) {
        to_send = static_cast<std::size_t>(left);
        cut = true;  // the drop lands here — possibly mid-frame
      }
    }
    if (toward_server) link.forwarded_to_server.fetch_add(to_send);
    if (!send_all(dst, buf, to_send)) break;
    if (cut) {
      cut_.fetch_add(1);
      break;
    }
  }
  link.kill();
  link.pumps_done.fetch_add(1);
}

void FaultProxy::reap_finished() {
  std::scoped_lock lock(links_mutex_);
  for (auto it = links_.begin(); it != links_.end();) {
    if ((*it)->pumps_done.load() >= 2) {
      if ((*it)->up.joinable()) (*it)->up.join();
      if ((*it)->down.joinable()) (*it)->down.join();
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
}

void FaultProxy::close_all_links() {
  std::scoped_lock lock(links_mutex_);
  for (auto& link : links_) link->kill();
}

}  // namespace herc::sim
