#include "replica/shipper.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "schema/schema_io.hpp"
#include "support/envelope.hpp"
#include "support/text.hpp"

namespace herc::replica {

using server::Frame;
using server::FrameType;

JournalShipper::JournalShipper(core::DesignSession& session,
                               ShipperOptions options)
    : session_(session), options_(options) {
  if (options_.max_queued_frames == 0) options_.max_queued_frames = 1;
  storage::DurableHistory* store = session_.storage();
  if (store != nullptr) {
    leader_epoch_.store(store->epoch(), std::memory_order_relaxed);
    leader_seq_.store(store->journal_seq(), std::memory_order_relaxed);
    store->subscribe(*this);
  }
}

JournalShipper::~JournalShipper() {
  storage::DurableHistory* store = session_.storage();
  if (store != nullptr) store->unsubscribe(*this);
}

bool JournalShipper::subscribe(std::uint64_t conn_id, const std::string& peer,
                               std::string_view position,
                               std::string* error) {
  storage::DurableHistory* store = session_.storage();
  if (store == nullptr) {
    *error = "replication: the leader has no open store";
    return false;
  }
  SubscribeInfo info;
  try {
    info = decode_subscribe_info(position);
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
  const std::optional<StreamPosition>& pos = info.position;
  const std::uint64_t cur_epoch = store->epoch();
  const std::uint64_t cur_seq = store->journal_seq();

  if (pos.has_value() && pos->epoch > cur_epoch) {
    // The follower has seen an epoch this leader never reached: the
    // cluster moved on (a follower was promoted and bumped the epoch).
    // This leader is fenced — refusing here is what makes the demoted
    // ex-leader's world provably un-serveable.
    fenced_.fetch_add(1, std::memory_order_relaxed);
    *error = "fenced: follower position is at epoch " +
             std::to_string(pos->epoch) + " but this leader is at epoch " +
             std::to_string(cur_epoch) +
             "; this leader is stale and must not be followed";
    return false;
  }

  // Catch-up from the store's journal when the follower's position lies
  // inside the current epoch; a full snapshot otherwise.
  std::vector<Frame> bootstrap;
  bool backlog_ok = false;
  if (pos.has_value() && pos->epoch == cur_epoch && pos->seq <= cur_seq) {
    try {
      const std::vector<std::string> records = store->read_journal_records();
      if (records.size() >= cur_seq) {
        // Seq equality alone cannot prove the follower's history is a
        // prefix of ours: after a crash tore our journal tail, a follower
        // that streamed the torn frame complete sits at the same seq on a
        // different history — a backlog would silently diverge it forever.
        // The follower's tail checksum (of its last applied frame) must
        // match our record at seq-1; a mismatch earns a snapshot resync.
        bool tail_matches = true;
        if (info.tail_checksum.has_value() && pos->seq > 0) {
          tail_matches =
              pos->seq <= records.size() &&
              support::envelope_checksum(records[pos->seq - 1]) ==
                  *info.tail_checksum;
          if (!tail_matches) {
            divergent_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (tail_matches) {
          for (std::uint64_t seq = pos->seq; seq < cur_seq; ++seq) {
            bootstrap.push_back(
                {FrameType::kJournal,
                 encode_journal(cur_epoch, seq, records[seq])});
          }
          backlog_ok = true;
        }
      }
    } catch (const std::exception&) {
      backlog_ok = false;  // fall through to a snapshot
    }
  }
  if (!backlog_ok) {
    SnapshotShipment snapshot;
    snapshot.epoch = cur_epoch;
    snapshot.seq = cur_seq;
    snapshot.schema_text = schema::write_schema(session_.schema());
    snapshot.image = session_.db().save();
    bootstrap.push_back({FrameType::kSnapshot, encode_snapshot(snapshot)});
  }

  leader_epoch_.store(cur_epoch, std::memory_order_relaxed);
  leader_seq_.store(cur_seq, std::memory_order_relaxed);
  {
    std::scoped_lock lock(mutex_);
    if (closing_) {
      *error = "replication: the server is shutting down";
      return false;
    }
    Follower& follower = followers_[conn_id];
    follower.peer = peer;
    follower.queue.clear();
    follower.closed = false;
    follower.acked = pos.value_or(StreamPosition{cur_epoch, 0});
    for (Frame& frame : bootstrap) {
      follower.queue.push_back(std::move(frame));
    }
  }
  cv_.notify_all();
  return true;
}

bool JournalShipper::next_frame(std::uint64_t conn_id, Frame& frame) {
  std::unique_lock lock(mutex_);
  while (true) {
    auto it = followers_.find(conn_id);
    if (it == followers_.end()) return false;
    Follower& follower = it->second;
    if (!follower.queue.empty()) {
      frame = std::move(follower.queue.front());
      follower.queue.pop_front();
      return true;
    }
    if (follower.closed || closing_) return false;
    cv_.wait(lock);
  }
}

void JournalShipper::ack(std::uint64_t conn_id, std::string_view payload) {
  StreamPosition pos;
  try {
    pos = decode_ack(payload);
  } catch (const std::exception&) {
    return;  // a malformed progress report is ignorable, not fatal
  }
  std::scoped_lock lock(mutex_);
  auto it = followers_.find(conn_id);
  if (it != followers_.end()) it->second.acked = pos;
}

void JournalShipper::unsubscribe(std::uint64_t conn_id) {
  {
    std::scoped_lock lock(mutex_);
    followers_.erase(conn_id);
  }
  cv_.notify_all();
}

template <class MakeFrame>
void JournalShipper::fan_out(std::uint64_t epoch, std::uint64_t seq,
                             MakeFrame make) {
  leader_epoch_.store(epoch, std::memory_order_relaxed);
  leader_seq_.store(seq, std::memory_order_relaxed);
  std::scoped_lock lock(mutex_);
  if (followers_.empty()) return;
  const Frame frame = make();
  for (auto& [id, follower] : followers_) {
    if (follower.closed) continue;
    if (follower.queue.size() >= options_.max_queued_frames) {
      // Never block the mutation path on a stalled follower: end its
      // stream; it reconnects and resyncs from its acked position.
      follower.closed = true;
      overflows_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    follower.queue.push_back(frame);
  }
  cv_.notify_all();
}

void JournalShipper::on_frame(std::uint64_t epoch, std::uint64_t seq,
                              std::string_view payload) {
  fan_out(epoch, seq + 1, [&] {
    return Frame{FrameType::kJournal, encode_journal(epoch, seq, payload)};
  });
}

void JournalShipper::on_change(const history::Change& change) {
  on_frame(change.epoch, change.seq, change.bytes);
}

void JournalShipper::on_rebase(std::uint64_t epoch, bool /*replaced*/) {
  fan_out(epoch, 0, [epoch] {
    return Frame{FrameType::kCheckpoint, encode_checkpoint(epoch)};
  });
}

std::string JournalShipper::render_followers(bool json) const {
  const std::uint64_t epoch = leader_epoch_.load(std::memory_order_relaxed);
  const std::uint64_t seq = leader_seq_.load(std::memory_order_relaxed);
  std::scoped_lock lock(mutex_);
  std::ostringstream out;
  if (json) {
    out << "[";
    bool first = true;
    for (const auto& [id, follower] : followers_) {
      if (!first) out << ",";
      first = false;
      const bool same_epoch = follower.acked.epoch == epoch;
      out << "{\"id\":" << id << ",\"peer\":\"" << support::json_escape(follower.peer)
          << "\",\"acked_epoch\":" << follower.acked.epoch
          << ",\"acked_seq\":" << follower.acked.seq << ",\"lag_frames\":";
      if (same_epoch && seq >= follower.acked.seq) {
        out << (seq - follower.acked.seq);
      } else {
        out << -1;  // catching up across a checkpoint; frames incomparable
      }
      out << "}";
    }
    out << "]";
    return out.str();
  }
  out << "followers: " << followers_.size() << " (leader at " << epoch << ":"
      << seq << ")\n";
  for (const auto& [id, follower] : followers_) {
    out << "  follower #" << id << " (" << follower.peer << "): acked "
        << follower.acked.epoch << ":" << follower.acked.seq;
    if (follower.acked.epoch == epoch && seq >= follower.acked.seq) {
      out << ", lag " << (seq - follower.acked.seq) << " frame(s)";
    } else {
      out << ", resyncing across a checkpoint";
    }
    out << "\n";
  }
  return out.str();
}

void JournalShipper::close_all() {
  {
    std::scoped_lock lock(mutex_);
    closing_ = true;
    for (auto& [id, follower] : followers_) follower.closed = true;
  }
  cv_.notify_all();
}

std::size_t JournalShipper::follower_count() const {
  std::scoped_lock lock(mutex_);
  return followers_.size();
}

}  // namespace herc::replica
