// Leader-side replication: tails the open store's journal and streams it
// to subscribed followers.
//
// `JournalShipper` sits at the junction of two interfaces:
//
//   - `history::ChangeSubscriber`: it subscribes to the store's change
//     feed, which hands it each journaled frame and each rebase
//     synchronously from the mutation path (under the server's exclusive
//     session lock), and fans each out to per-follower bounded queues —
//     the mutation never blocks on a slow follower.
//   - `server::ReplicationHub`: the server calls `subscribe` under the
//     exclusive lock (so the bootstrap is position-atomic with the live
//     stream) and then pumps `next_frame` to the follower's socket from
//     the connection's pump thread.
//
// Bootstrap decides between two shapes: a follower whose position lies
// inside the current epoch's journal gets the missing frames re-read from
// the journal file (cheap catch-up); anything else — no position, a
// stale epoch, an impossible seq — gets a full snapshot of the live
// database.  A follower claiming a position from a *future* epoch is
// refused outright: that is a fenced stale leader (or a follower of one)
// trying to re-attach, and serving it would split-brain the store.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "core/session.hpp"
#include "replica/replication.hpp"
#include "server/server.hpp"
#include "storage/store.hpp"

namespace herc::replica {

struct ShipperOptions {
  /// Frames a follower may have queued before it is dropped (it
  /// reconnects and resyncs).  Bounds leader memory against a stalled
  /// follower without ever blocking the mutation path.
  std::size_t max_queued_frames = 8192;
};

class JournalShipper final : public server::ReplicationHub,
                             public history::ChangeSubscriber {
 public:
  /// Subscribes to the change feed of `session`'s open store.  The session
  /// (and its store) must outlive the shipper; a session without an open
  /// store is served too (subscriptions are refused until one is open at
  /// construction time).
  explicit JournalShipper(core::DesignSession& session,
                          ShipperOptions options = {});
  ~JournalShipper() override;

  JournalShipper(const JournalShipper&) = delete;
  JournalShipper& operator=(const JournalShipper&) = delete;

  // ---- server::ReplicationHub ------------------------------------------------

  [[nodiscard]] bool subscribe(std::uint64_t conn_id, const std::string& peer,
                               std::string_view position,
                               std::string* error) override;
  [[nodiscard]] bool next_frame(std::uint64_t conn_id,
                                server::Frame& frame) override;
  void ack(std::uint64_t conn_id, std::string_view payload) override;
  void unsubscribe(std::uint64_t conn_id) override;
  [[nodiscard]] std::string render_followers(bool json) const override;
  void close_all() override;

  // ---- the store's change feed (under the exclusive session lock) -----------

  void on_change(const history::Change& change) override;
  /// Every rebase ships as a checkpoint: the follower compacts with it.
  void on_rebase(std::uint64_t epoch, bool replaced) override;
  /// Queues journal frame `seq` of `epoch` for every follower.
  void on_frame(std::uint64_t epoch, std::uint64_t seq,
                std::string_view payload);

  [[nodiscard]] std::size_t follower_count() const;
  /// Followers dropped because their queue overflowed.
  [[nodiscard]] std::uint64_t overflows() const { return overflows_; }
  /// Subscriptions refused for claiming a future epoch (fenced leaders).
  [[nodiscard]] std::uint64_t fenced_subscribes() const { return fenced_; }
  /// Subscribes whose tail checksum disproved prefix equality (the
  /// follower held a frame this leader's journal never kept — a torn tail
  /// it streamed complete before the crash) and were answered with a
  /// snapshot resync instead of a backlog.
  [[nodiscard]] std::uint64_t divergent_subscribes() const {
    return divergent_;
  }

 private:
  struct Follower {
    std::string peer;
    std::deque<server::Frame> queue;
    StreamPosition acked;
    bool closed = false;
  };

  /// Records the leader's position, then queues the frame `make` builds
  /// (only if anyone follows) for every follower, closing any that is full.
  template <class MakeFrame>
  void fan_out(std::uint64_t epoch, std::uint64_t seq, MakeFrame make);

  core::DesignSession& session_;
  ShipperOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool closing_ = false;
  std::map<std::uint64_t, Follower> followers_;

  /// Mirrors of the store's position, written under the exclusive session
  /// lock, read lock-free by `render_followers` (the `stats` path).
  std::atomic<std::uint64_t> leader_epoch_{0};
  std::atomic<std::uint64_t> leader_seq_{0};
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> fenced_{0};
  std::atomic<std::uint64_t> divergent_{0};
};

}  // namespace herc::replica
