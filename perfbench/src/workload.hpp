// The benchmark's workloads: each one's pre-built store and the command
// stream each of its designers sends.
//
// Everything here is a pure function of the workload, the seed and the
// designer's index.  A designer's next command may use what the server
// answered to its own earlier commands (the ids of its own imports, a
// browse cursor), and those answers depend only on the seed too: no
// command ever names data another designer wrote.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "history/query_planner.hpp"
#include "schema/task_schema.hpp"

namespace perfbench {

enum class Workload { kEdit, kBrowse, kRuns };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// Closed-loop connections driving the server (one designer each).
inline constexpr int kClients = 3;
/// Emulated tool time per task of every `runs` flow (`run ... latency=`).
/// Zero: the tools take their own CPU time.  An emulated tool sleeps, and
/// while every designer waits on a sleeping run the virtual CPUs go idle;
/// how fast an idle virtual CPU wakes again depends on what the host ran
/// before, and moved every latency of the workload by up to 2x between
/// runs of the same code (README.md, "Steadiness").
inline constexpr int kRunLatencyMs = 0;

/// The class a command is timed under.  Reads and writes follow
/// `cli::command_access`; `run` is a write there but is reported apart.
enum class OpClass { kRead, kWrite, kRun };

/// A paged browse in structured form: the same predicates the server's
/// interpreter parses from the line, kept for the history-layer replay.
struct BrowseSpec {
  std::string entity;
  std::string keyword;
  std::string user;
  std::optional<std::uint32_t> uses;
  std::optional<std::int64_t> from;
  std::optional<std::int64_t> to;
  std::size_t limit = 20;
  /// Cursor of the page to resume after; nullopt for a first page.
  std::optional<std::string> after;

  [[nodiscard]] std::string line() const;
  [[nodiscard]] herc::history::QueryFilter filter(
      const herc::schema::TaskSchema& schema) const;
};

struct Op {
  std::string line;
  std::string body;
  OpClass cls = OpClass::kRead;
  std::optional<BrowseSpec> browse;
  /// Set for imports: the instance name (unique per designer and round;
  /// a version re-import repeats its original's name) and entity.
  std::string import_name;
  std::string import_entity;
  /// A follow-up page: sent only when the previous page returned a cursor.
  bool follows_cursor = false;
};

/// What the pre-built history holds, as far as command streams need it.
struct Preload {
  std::size_t instances = 0;
  /// Records written after the store's checkpoint, replayed on open.
  std::size_t journal_tail = 0;
  std::int64_t first_micros = 0;
  std::int64_t tick_micros = 0;
  std::vector<std::uint32_t> netlists;
  std::vector<std::uint32_t> stimuli;
  std::vector<std::uint32_t> models;
  std::vector<std::uint32_t> simulators;
  std::vector<std::uint32_t> perfs;
  /// Stimuli many Performances were simulated with (forward chaining).
  std::vector<std::uint32_t> hubs;

  /// Creation stamp of the instance with `id`.
  [[nodiscard]] std::int64_t created(std::uint32_t id) const {
    return first_micros + static_cast<std::int64_t>(id) * tick_micros;
  }
};

/// Name tokens a few pre-loaded netlists carry (the keyword filters).
[[nodiscard]] const std::vector<std::string>& keywords();
/// Pre-loaded users owning a small share of the history (user filters).
[[nodiscard]] const std::vector<std::string>& rare_users();

/// History size of workload `w` (`tiny` for the test suite's smoke runs).
[[nodiscard]] std::size_t history_size(Workload w, bool tiny);

/// Builds the pre-loaded store for (`w`, `seed`) in the empty directory
/// `dir`: snapshot, a journal tail, and a saved index image, all synced.
Preload build_store(Workload w, std::uint64_t seed, std::size_t instances,
                    const std::string& dir);

/// One designer's endless command stream.
class OpStream {
 public:
  OpStream(Workload w, const Preload& preload, std::uint64_t seed,
           int client);

  /// The next command to send, placeholders resolved.
  [[nodiscard]] Op next();
  /// Feeds back the server's answer to `op` (import ids, page cursors).
  void observe(const Op& op, const std::string& output);

 private:
  void refill();
  void edit_round();
  void browse_round();
  void runs_round();
  [[nodiscard]] std::uint64_t rand();
  [[nodiscard]] std::uint32_t pick(const std::vector<std::uint32_t>& pool);
  [[nodiscard]] std::string fresh_name();

  Workload workload_;
  const Preload* pre_;
  int client_;
  std::uint64_t rng_;
  std::uint64_t round_ = 0;
  std::uint64_t names_ = 0;
  std::deque<Op> pending_;
  /// This designer's imports (entity, name), for version re-imports.
  std::vector<std::pair<std::string, std::string>> mine_;
  /// Ids the server assigned to this round's imports ({i0}, {i1}, ...).
  std::vector<std::uint32_t> ids_;
  std::optional<std::string> cursor_;
};

}  // namespace perfbench
