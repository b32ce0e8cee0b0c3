#include "sim/trace.hpp"
#include "support/text.hpp"

#include <cctype>
#include <stdexcept>

namespace herc::sim {

namespace {

/// The same xorshift the storage property test uses: tiny, seedable,
/// identical across platforms (std::mt19937 would also do, but this keeps
/// trace bytes stable under library changes).
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

// Known-good payloads for the full schema's Fig. 1 inputs (the same
// shapes the server smoke script imports): they parse, simulate and
// produce Performance, so a trace run exercises the real tool path.
constexpr const char* kNetlistBody =
    "netlist inverter\n"
    "input in\n"
    "output out\n"
    "nmos mn g=in d=out s=GND model=nch value=1\n"
    "pmos mp g=in d=out s=VDD model=pch value=1\n";

constexpr const char* kModelsBody =
    "models standard\n"
    "model nch type=nmos resistance=10 threshold=0.6\n"
    "model pch type=pmos resistance=20 threshold=0.6\n";

std::string waves_body(std::uint64_t& rng) {
  const std::uint64_t half = 500 + next_rand(rng) % 2000;
  return "stimuli sw\nwave in 0:0 " + std::to_string(half) + ":1 " +
         std::to_string(2 * half) + ":0\n";
}

/// The kind of one round; profiles are weighted mixes of these.
enum class RoundKind {
  kDesign,    // import Fig. 1 inputs, build the simulate flow, run, browse
  kQueries,   // one import, then history/browser/catalog reads
  kVersions,  // re-import the same name (version edits), annotate, stale
  kPlans,     // build a flow, publish it as a plan, rebuild from the plan
  kFaulty,    // a design round whose run arms a fault seed
  kSlow,      // a design round run with artificial task latency
  kBrowse,    // Fig. 9 listing load: filtered/paginated browses, chaining
};

struct Mix {
  RoundKind kind;
  unsigned weight;
};

const std::vector<Mix>& profile_mix(const std::string& profile) {
  static const std::vector<Mix> kDesignMix = {{RoundKind::kDesign, 55},
                                              {RoundKind::kQueries, 20},
                                              {RoundKind::kVersions, 10},
                                              {RoundKind::kPlans, 10},
                                              {RoundKind::kSlow, 5}};
  static const std::vector<Mix> kQueriesMix = {{RoundKind::kQueries, 70},
                                               {RoundKind::kDesign, 10},
                                               {RoundKind::kVersions, 10},
                                               {RoundKind::kPlans, 10}};
  static const std::vector<Mix> kVersionsMix = {{RoundKind::kVersions, 55},
                                                {RoundKind::kQueries, 20},
                                                {RoundKind::kDesign, 15},
                                                {RoundKind::kPlans, 10}};
  static const std::vector<Mix> kFaultsMix = {{RoundKind::kFaulty, 45},
                                              {RoundKind::kDesign, 20},
                                              {RoundKind::kQueries, 20},
                                              {RoundKind::kVersions, 10},
                                              {RoundKind::kSlow, 5}};
  static const std::vector<Mix> kMixedMix = {{RoundKind::kQueries, 35},
                                             {RoundKind::kDesign, 25},
                                             {RoundKind::kVersions, 15},
                                             {RoundKind::kPlans, 10},
                                             {RoundKind::kFaulty, 10},
                                             {RoundKind::kSlow, 5}};
  // The writer quarter of the "replicas" profile: import-heavy, no fault
  // seeds — replication lag, not failure records, is what it measures.
  static const std::vector<Mix> kReplicasMix = {{RoundKind::kDesign, 50},
                                                {RoundKind::kVersions, 20},
                                                {RoundKind::kQueries, 15},
                                                {RoundKind::kPlans, 10},
                                                {RoundKind::kSlow, 5}};
  // The "browse" profile hammers the Fig. 9 listing path the secondary
  // indexes serve: keyword/date/user filters, limit-paginated pages and
  // one-hop chaining, against data a design minority keeps growing.
  static const std::vector<Mix> kBrowseMix = {{RoundKind::kBrowse, 55},
                                              {RoundKind::kQueries, 15},
                                              {RoundKind::kDesign, 15},
                                              {RoundKind::kVersions, 10},
                                              {RoundKind::kPlans, 5}};
  if (profile == "design") return kDesignMix;
  if (profile == "queries") return kQueriesMix;
  if (profile == "versions") return kVersionsMix;
  if (profile == "faults") return kFaultsMix;
  if (profile == "mixed") return kMixedMix;
  if (profile == "replicas") return kReplicasMix;
  if (profile == "browse") return kBrowseMix;
  throw std::invalid_argument(
      "unknown trace profile '" + profile +
      "' (design|queries|versions|faults|mixed|replicas|browse)");
}

RoundKind pick_kind(const std::vector<Mix>& mix, std::uint64_t& rng) {
  unsigned total = 0;
  for (const Mix& m : mix) total += m.weight;
  auto roll = static_cast<unsigned>(next_rand(rng) % total);
  for (const Mix& m : mix) {
    if (roll < m.weight) return m.kind;
    roll -= m.weight;
  }
  return mix.front().kind;
}

TraceOp op(std::string line, std::string body = "") {
  TraceOp o;
  o.line = std::move(line);
  o.body = std::move(body);
  return o;
}

TraceOp import_op(const std::string& entity, const std::string& name,
                  std::string body, bool tracked) {
  TraceOp o;
  o.line = "import " + entity + " " + name + (body.empty() ? " \"\"" : "");
  o.body = std::move(body);
  o.tracked_import = tracked;
  // Always record the name: version re-imports are untracked for the
  // durability invariants but still count toward the exactly-once
  // instance-count check (each issue adds one browse row).
  o.import_name = name;
  return o;
}

/// Imports the four simulate-flow inputs with round-scoped names and
/// builds the Fig. 1 flow `f` over them; the node numbering (0 goal,
/// 1 Simulator, 3 Stimuli, 4 DeviceModels, 5 EditedNetlist) is fixed by
/// the full schema's expansion of Performance.
void emit_simulate_flow(TraceRound& round, const std::string& stem,
                        const std::string& flow, std::uint64_t& rng) {
  round.ops.push_back(
      import_op("EditedNetlist", stem + "_0", kNetlistBody, true));
  round.ops.push_back(
      import_op("DeviceModels", stem + "_1", kModelsBody, true));
  round.ops.push_back(import_op("Stimuli", stem + "_2", waves_body(rng), true));
  round.ops.push_back(import_op("Simulator", stem + "_3", "", true));
  round.ops.push_back(op("flow new " + flow + " goal Performance"));
  round.ops.push_back(op("flow expand " + flow + " 0"));
  round.ops.push_back(op("flow expand " + flow + " 2"));
  round.ops.push_back(op("flow bind " + flow + " 1 {i3}"));
  round.ops.push_back(op("flow bind " + flow + " 3 {i2}"));
  round.ops.push_back(op("flow bind " + flow + " 4 {i1}"));
  round.ops.push_back(op("flow bind " + flow + " 5 {i0}"));
}

TraceRound design_round(const std::string& stem, const std::string& flow,
                        const std::string& user, std::uint64_t& rng) {
  TraceRound round;
  emit_simulate_flow(round, stem, flow, rng);
  const std::uint64_t variant = next_rand(rng) % 10;
  std::string run = "run " + flow;
  if (variant < 3) run += " parallel";
  if (variant >= 8) run += " reuse";
  round.ops.push_back(op(run));
  round.ops.push_back(op("browse Performance user=" + user));
  return round;
}

TraceRound queries_round(const std::string& stem, const std::string& user,
                         std::uint64_t& rng) {
  TraceRound round;
  round.ops.push_back(import_op("Stimuli", stem + "_0", waves_body(rng), true));
  const std::vector<std::string> pool = {
      "browse Stimuli user=" + user,
      "history {i0}",
      "versions {i0}",
      "uses {i0}",
      "stale {i0}",
      "entities",
      "plans",
      "runs",
      "failures",
      "find Stimuli",
  };
  const std::size_t n = 4 + next_rand(rng) % 4;
  for (std::size_t i = 0; i < n; ++i) {
    round.ops.push_back(op(pool[next_rand(rng) % pool.size()]));
  }
  return round;
}

TraceRound versions_round(const std::string& stem, const std::string& user,
                          std::uint64_t& rng) {
  TraceRound round;
  const std::string name = stem + "_0";
  round.ops.push_back(import_op("Stimuli", name, waves_body(rng), true));
  // Version edits: re-importing the same name bumps the version chain;
  // only the first import is durability-tracked (one name, one fact).
  const std::size_t edits = 1 + next_rand(rng) % 3;
  for (std::size_t e = 0; e < edits; ++e) {
    round.ops.push_back(import_op("Stimuli", name, waves_body(rng), false));
  }
  round.ops.push_back(op("versions {i0}"));
  round.ops.push_back(op("annotate {i0} " + name + " swarm version edit"));
  round.ops.push_back(op("stale {i0}"));
  round.ops.push_back(op("browse Stimuli user=" + user));
  return round;
}

TraceRound plans_round(const std::string& flow) {
  TraceRound round;
  round.ops.push_back(op("flow new " + flow + " goal Performance"));
  round.ops.push_back(op("flow expand " + flow + " 0"));
  round.ops.push_back(op("flow expand " + flow + " 2"));
  round.ops.push_back(op("flow save-plan " + flow));
  // Plan-based start (§3.4): rebuild from the published plan.  The plan
  // catalog is process-local state, so a rebuild racing a server restart
  // may legitimately miss it.
  TraceOp rebuild = op("flow new " + flow + "p plan goal:Performance");
  rebuild.may_fail = true;
  round.ops.push_back(rebuild);
  TraceOp show = op("flow show " + flow + "p");
  show.may_fail = true;
  round.ops.push_back(show);
  round.ops.push_back(op("plans"));
  return round;
}

TraceRound faulty_round(const std::string& stem, const std::string& flow,
                        std::uint64_t seed, std::uint64_t& rng) {
  TraceRound round;
  emit_simulate_flow(round, stem, flow, rng);
  // Arm a per-run deterministic fault plan; continue+retries keeps the
  // run record closing on its own (failed tasks become failure records,
  // not an aborted run).
  TraceOp run = op("run " + flow + " continue retries=1 faults=" +
                   std::to_string(seed | 1));
  run.may_fail = true;
  round.ops.push_back(run);
  round.ops.push_back(op("failures"));
  return round;
}

/// A round for a read-only client (the "replicas" profile's follower-
/// pinned readers): catalog, browser and history sweeps with no imports,
/// so every op is read-classified and a replica will serve it.
TraceRound reader_round(const std::string& user, std::uint64_t& rng) {
  TraceRound round;
  const std::vector<std::string> pool = {
      "browse EditedNetlist",
      "browse Stimuli",
      "browse Performance",
      "browse DeviceModels user=" + user,
      "entities",
      "plans",
      "runs",
      "failures",
      "find Stimuli",
      "find EditedNetlist",
  };
  const std::size_t n = 6 + next_rand(rng) % 6;
  for (std::size_t i = 0; i < n; ++i) {
    round.ops.push_back(op(pool[next_rand(rng) % pool.size()]));
  }
  return round;
}

/// A Fig. 9 listing round: two imports to keep the browsers non-empty,
/// then filtered, date-limited and limit-paginated listings plus one-hop
/// chaining ("which Performances used this netlist").  Exercises every
/// planner access path — keyword (the round stem is one indexable token),
/// user, date, type — and the paged cursor protocol over the wire.
TraceRound browse_round(const std::string& stem, const std::string& user,
                        std::uint64_t& rng) {
  TraceRound round;
  round.ops.push_back(import_op("Stimuli", stem + "_0", waves_body(rng), true));
  round.ops.push_back(
      import_op("EditedNetlist", stem + "_1", kNetlistBody, true));
  const std::vector<std::string> pool = {
      "browse Stimuli keyword=" + stem,
      "browse Stimuli user=" + user + " limit=5",
      "browse EditedNetlist keyword=" + stem + " limit=3",
      "browse EditedNetlist limit=4",
      "browse Performance from=1 limit=8",
      "browse Stimuli from=0 limit=6",
      "browse Performance user=" + user + " limit=8",
      "browse Performance uses={i1}",
      "uses {i0}",
      "history {i1}",
  };
  const std::size_t n = 5 + next_rand(rng) % 4;
  for (std::size_t i = 0; i < n; ++i) {
    round.ops.push_back(op(pool[next_rand(rng) % pool.size()]));
  }
  return round;
}

TraceRound slow_round(const std::string& stem, const std::string& flow,
                      std::uint64_t& rng) {
  TraceRound round;
  emit_simulate_flow(round, stem, flow, rng);
  // Artificial task latency holds the run in flight so chaos events have
  // something to interrupt; cancellation mid-run is an expected outcome.
  TraceOp run = op("run " + flow + " parallel latency=" +
                   std::to_string(20 + 20 * (next_rand(rng) % 3)));
  run.may_fail = true;
  round.ops.push_back(run);
  return round;
}

}  // namespace

std::size_t Trace::total_ops() const {
  std::size_t n = 0;
  for (const TraceClient& c : clients) {
    for (const TraceRound& r : c.rounds) n += r.ops.size();
  }
  return n;
}

const std::vector<std::string>& profile_names() {
  static const std::vector<std::string> kNames = {
      "design", "queries", "versions", "faults",
      "mixed",  "replicas", "browse"};
  return kNames;
}

Trace make_trace(const std::string& profile, std::size_t clients,
                 std::size_t rounds, std::uint64_t seed) {
  const std::vector<Mix>& mix = profile_mix(profile);
  Trace trace;
  trace.profile = profile;
  trace.seed = seed;
  trace.clients.reserve(clients);
  for (std::size_t ci = 0; ci < clients; ++ci) {
    TraceClient client;
    client.user = "swarm_c" + std::to_string(ci);
    client.index = ci;
    // In the replicas profile three clients in four are read-only; the
    // driver pins them to follower replicas while the writers (every
    // fourth, including client 0) drive the leader.
    client.reader = profile == "replicas" && ci % 4 != 0;
    // Per-client stream: independent of every other client's, so a trace
    // replays identically whatever the thread interleaving.
    std::uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + ci * 0xbf58476d1ce4e5b9ULL + 1;
    next_rand(rng);
    if (client.reader) {
      for (std::size_t ri = 0; ri < rounds; ++ri) {
        client.rounds.push_back(reader_round(client.user, rng));
      }
      trace.clients.push_back(std::move(client));
      continue;
    }
    for (std::size_t ri = 0; ri < rounds; ++ri) {
      const RoundKind kind = pick_kind(mix, rng);
      const std::string stem =
          support::numbered("sw_c", ci) + support::numbered("_r", ri);
      const std::string flow =
          support::numbered("f", ci) + support::numbered("_", ri);
      switch (kind) {
        case RoundKind::kDesign:
          client.rounds.push_back(design_round(stem, flow, client.user, rng));
          break;
        case RoundKind::kQueries:
          client.rounds.push_back(queries_round(stem, client.user, rng));
          break;
        case RoundKind::kVersions:
          client.rounds.push_back(versions_round(stem, client.user, rng));
          break;
        case RoundKind::kPlans:
          client.rounds.push_back(plans_round(flow));
          break;
        case RoundKind::kFaulty:
          client.rounds.push_back(
              faulty_round(stem, flow, next_rand(rng), rng));
          break;
        case RoundKind::kSlow:
          client.rounds.push_back(slow_round(stem, flow, rng));
          break;
        case RoundKind::kBrowse:
          client.rounds.push_back(browse_round(stem, client.user, rng));
          break;
      }
    }
    trace.clients.push_back(std::move(client));
  }
  return trace;
}

TraceRound make_fault_round(const std::string& stem, const std::string& flow,
                            std::uint64_t fault_seed) {
  std::uint64_t rng = fault_seed * 0x9e3779b97f4a7c15ULL + 1;
  TraceRound round = faulty_round(stem, flow, fault_seed, rng);
  // Chaos data must stay invisible to the survivor snapshot.
  for (TraceOp& op : round.ops) {
    op.tracked_import = false;
    op.import_name.clear();
  }
  return round;
}

bool is_swarm_name(const std::string& name) {
  // sw_c<digits>_r<digits>_<digits>
  std::size_t at = 0;
  const auto digits = [&]() {
    const std::size_t start = at;
    while (at < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[at])) != 0) {
      ++at;
    }
    return at > start;
  };
  if (name.rfind("sw_c", 0) != 0) return false;
  at = 4;
  if (!digits()) return false;
  if (at + 1 >= name.size() || name[at] != '_' || name[at + 1] != 'r') {
    return false;
  }
  at += 2;
  if (!digits()) return false;
  if (at >= name.size() || name[at] != '_') return false;
  ++at;
  if (!digits()) return false;
  return at == name.size();
}

std::size_t swarm_name_client(const std::string& name) {
  std::size_t value = 0;
  for (std::size_t at = 4;
       at < name.size() && std::isdigit(static_cast<unsigned char>(name[at]));
       ++at) {
    value = value * 10 + static_cast<std::size_t>(name[at] - '0');
  }
  return value;
}

}  // namespace herc::sim
