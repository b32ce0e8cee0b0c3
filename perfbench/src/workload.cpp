#include "workload.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "core/session.hpp"
#include "history/history_db.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/store.hpp"
#include "support/clock.hpp"

namespace perfbench {

namespace {

using herc::data::InstanceId;

/// 2020-01-01 UTC: pre-built histories lie in the past, so instances the
/// server stamps with the wall clock always sort after them.
constexpr std::int64_t kFirstMicros = 1577836800000000LL;
constexpr std::int64_t kTickMicros = 1000;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

// Fig. 1 inputs that parse and simulate, so every `runs` flow produces
// its Performance through the real tool path.
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

std::string waves_body(std::uint64_t half) {
  return "stimuli sw\nwave in 0:0 " + std::to_string(half) + ":1 " +
         std::to_string(2 * half) + ":0\n";
}

/// A netlist-like payload of at least `size` bytes, unique to `name`.
std::string sized_payload(const std::string& name, std::size_t size) {
  std::string body = "netlist " + name + "\n";
  for (std::size_t k = 0; body.size() < size; ++k) {
    body += "add nand g" + std::to_string(k) + " a b y\n";
  }
  return body;
}

/// Letters no keyword contains: generated names can never match a
/// keyword filter over the pre-built history.
constexpr std::string_view kNameAlphabet = "bghjknoqvwyz";

/// Longest version line in a pre-built history.
constexpr std::uint32_t kMaxVersion = 6;

/// Grows the history one seeded instance at a time.  The mix: netlist
/// imports (a few carrying a keyword token), netlist edits that continue
/// a version line, Stimuli and DeviceModels imports, and Performances
/// derived from a recent netlist and a hub Stimuli by a Simulator.
class Grower {
 public:
  Grower(herc::history::HistoryDb& db, Preload& pre, std::uint64_t seed)
      : db_(&db),
        pre_(pre),
        rng_(splitmix(seed) | 1),
        netlist_(db.schema().require("EditedNetlist")),
        stimuli_(db.schema().require("Stimuli")),
        models_(db.schema().require("DeviceModels")),
        simulator_(db.schema().require("Simulator")),
        perf_(db.schema().require("Performance")),
        circuit_(db.schema().require("Circuit")) {}

  void fixtures(std::size_t hubs) {
    for (int k = 0; k < 4; ++k) {
      pre_.simulators.push_back(import(simulator_, "sim" + std::to_string(k),
                                       "", "u0"));
      pre_.models.push_back(
          import(models_, "models" + std::to_string(k), kModelsBody, "u0"));
    }
    for (std::size_t k = 0; k < hubs; ++k) {
      const std::uint32_t id = import(stimuli_, "hub" + std::to_string(k),
                                      waves_body(500 + k), "u0");
      pre_.hubs.push_back(id);
      pre_.stimuli.push_back(id);
    }
  }

  /// Continues on `db` (the same history, moved into a store).
  void grow_to(std::size_t n, herc::history::HistoryDb& db) {
    db_ = &db;
    while (db_->size() < n) step();
  }

 private:
  std::uint64_t rand() { return xorshift(rng_); }

  std::string user() {
    if (rand() % 4000 == 0) return rare_users()[rand() % rare_users().size()];
    return "u" + std::to_string(rand() % 32);
  }

  std::uint32_t import(herc::schema::EntityTypeId type, const std::string& name,
                       const std::string& payload, const std::string& user) {
    return check(db_->import_instance(type, name, payload, user));
  }

  std::uint32_t record(const herc::history::RecordRequest& req) {
    return check(db_->record(req));
  }

  /// Every stamp must follow the clock's fixed tick: op streams compute
  /// date windows from ids alone.
  std::uint32_t check(InstanceId id) {
    if (db_->instance(id).created.micros() != pre_.created(id.value())) {
      throw std::logic_error("pre-built history: irregular creation stamp");
    }
    return id.value();
  }

  void step() {
    const auto i = static_cast<std::uint32_t>(db_->size());
    const std::uint64_t r = rand() % 1000;
    if (r < 80 && !recent_.empty()) {
      // A simulation: compose the Circuit, then simulate it.
      herc::history::RecordRequest circuit;
      circuit.type = circuit_;
      circuit.name = "c" + std::to_string(i);
      circuit.user = user();
      circuit.derivation.inputs = {
          InstanceId(pre_.models[rand() % pre_.models.size()]),
          InstanceId(recent_[rand() % recent_.size()])};
      circuit.derivation.input_roles = {"", ""};
      circuit.derivation.task = "compose";
      herc::history::RecordRequest perf;
      perf.type = perf_;
      perf.name = "perf" + std::to_string(i);
      perf.user = circuit.user;
      perf.derivation.tool =
          InstanceId(pre_.simulators[rand() % pre_.simulators.size()]);
      perf.derivation.inputs = {
          InstanceId(record(circuit)),
          InstanceId(pre_.hubs[rand() % pre_.hubs.size()])};
      perf.derivation.input_roles = {"", ""};
      perf.derivation.task = "Simulator";
      pre_.perfs.push_back(record(perf));
    } else if (r < 160) {
      pre_.stimuli.push_back(import(stimuli_, "s" + std::to_string(i),
                                    waves_body(500 + rand() % 16), user()));
    } else if (r < 175) {
      pre_.models.push_back(
          import(models_, "m" + std::to_string(i), kModelsBody, user()));
    } else if (r < 255 && !recent_.empty() &&
               db_->instance(InstanceId(recent_[r % recent_.size()]))
                       .version < kMaxVersion) {
      // Version lines stay short, so chaining queries stay bounded.
      const std::uint32_t parent = recent_[r % recent_.size()];
      herc::history::RecordRequest req;
      req.type = netlist_;
      req.name = db_->instance(InstanceId(parent)).name;
      req.user = user();
      req.derivation.inputs = {InstanceId(parent)};
      req.derivation.input_roles = {"seed"};
      req.derivation.task = "CircuitEditor";
      remember(record(req));
    } else {
      std::string name = "n" + std::to_string(i);
      if (rand() % 2000 == 0) {
        name += "_" + keywords()[rand() % keywords().size()];
      }
      remember(import(netlist_, name, "", user()));
    }
  }

  void remember(std::uint32_t netlist) {
    pre_.netlists.push_back(netlist);
    if (recent_.size() < 64) {
      recent_.push_back(netlist);
    } else {
      recent_[rand() % recent_.size()] = netlist;
    }
  }

  herc::history::HistoryDb* db_;
  Preload& pre_;
  std::uint64_t rng_;
  herc::schema::EntityTypeId netlist_, stimuli_, models_, simulator_, perf_,
      circuit_;
  std::vector<std::uint32_t> recent_;
};

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "edit") return Workload::kEdit;
  if (name == "browse") return Workload::kBrowse;
  if (name == "runs") return Workload::kRuns;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kEdit:
      return "edit";
    case Workload::kBrowse:
      return "browse";
    case Workload::kRuns:
      return "runs";
  }
  return "?";
}

const std::vector<std::string>& keywords() {
  static const std::vector<std::string> kWords = {
      "alu", "fir", "dsp", "adc", "pll", "sram", "uart", "mux"};
  return kWords;
}

const std::vector<std::string>& rare_users() {
  static const std::vector<std::string> kUsers = {"r0", "r1", "r2", "r3",
                                                  "r4", "r5", "r6", "r7"};
  return kUsers;
}

std::size_t history_size(Workload w, bool tiny) {
  if (w == Workload::kBrowse) return tiny ? 20'000 : 1'000'000;
  return tiny ? 3'000 : 100'000;
}

std::string BrowseSpec::line() const {
  std::string out = "browse " + entity;
  if (!keyword.empty()) out += " keyword=" + keyword;
  if (!user.empty()) out += " user=" + user;
  if (uses) out += " uses=i" + std::to_string(*uses);
  if (from) out += " from=" + std::to_string(*from);
  if (to) out += " to=" + std::to_string(*to);
  out += " limit=" + std::to_string(limit);
  if (after) out += " after=" + *after;
  return out;
}

herc::history::QueryFilter BrowseSpec::filter(
    const herc::schema::TaskSchema& schema) const {
  herc::history::QueryFilter q;
  q.type = schema.require(entity);
  q.keyword = keyword;
  q.user = user;
  if (uses) q.uses = InstanceId(*uses);
  if (from) q.from = herc::support::Timestamp(*from);
  if (to) q.to = herc::support::Timestamp(*to);
  return q;
}

Preload build_store(Workload w, std::uint64_t seed, std::size_t instances,
                    const std::string& dir) {
  Preload pre;
  pre.instances = instances;
  pre.journal_tail = instances / 50;
  pre.first_micros = kFirstMicros;
  pre.tick_micros = kTickMicros;

  herc::core::DesignSession session(
      herc::schema::make_full_schema(), "bench",
      std::make_unique<herc::support::ManualClock>(kFirstMicros, kTickMicros));
  Grower grower(session.db(), pre,
                seed * 0x100000001B3ULL + static_cast<std::uint64_t>(w));
  grower.fixtures(std::max<std::size_t>(4, instances / 25'000));
  grower.grow_to(instances - pre.journal_tail, session.db());

  // The checkpoint writes the snapshot; the tail then goes through the
  // journal, so opening the store replays it.  Syncing once at the end
  // replaces the per-append policy the server itself uses.
  herc::storage::StoreOptions options;
  options.journal.sync = herc::storage::SyncPolicy::kNone;
  session.open_storage(dir, options);
  grower.grow_to(instances, session.db());
  session.storage()->sync();
  return pre;  // the session's destructor saves the index image
}

OpStream::OpStream(Workload w, const Preload& preload, std::uint64_t seed,
                   int client)
    : workload_(w),
      pre_(&preload),
      client_(client),
      rng_(splitmix(seed ^ splitmix(0xC0FFEEULL + static_cast<std::uint64_t>(
                                                      client))) |
           1) {}

std::uint64_t OpStream::rand() { return xorshift(rng_); }

std::uint32_t OpStream::pick(const std::vector<std::uint32_t>& pool) {
  return pool[rand() % pool.size()];
}

std::string OpStream::fresh_name() {
  std::string name = "w";
  name += kNameAlphabet[static_cast<std::size_t>(client_)];
  std::uint64_t k = names_++;
  do {
    name += kNameAlphabet[k % kNameAlphabet.size()];
    k /= kNameAlphabet.size();
  } while (k > 0);
  return name;
}

Op OpStream::next() {
  for (;;) {
    if (pending_.empty()) refill();
    Op op = std::move(pending_.front());
    pending_.pop_front();
    if (op.follows_cursor) {
      if (!cursor_) continue;  // the listing ended on the previous page
      op.browse->after = *cursor_;
      op.line = op.browse->line();
    }
    for (std::size_t k = 0; k < ids_.size(); ++k) {
      const std::string slot = "{i" + std::to_string(k) + "}";
      for (std::size_t at = op.line.find(slot); at != std::string::npos;
           at = op.line.find(slot)) {
        op.line.replace(at, slot.size(), "i" + std::to_string(ids_[k]));
      }
    }
    if (op.line.find("{i") != std::string::npos) {
      throw std::logic_error("op stream: unresolved import slot in '" +
                             op.line + "'");
    }
    return op;
  }
}

void OpStream::observe(const Op& op, const std::string& output) {
  if (!op.import_name.empty()) {
    const std::size_t at = output.find("imported i");
    if (at == std::string::npos) {
      throw std::runtime_error("import reply without an id: " + output);
    }
    ids_.push_back(
        static_cast<std::uint32_t>(std::stoul(output.substr(at + 10))));
  }
  if (op.browse) {
    const std::size_t at = output.find("  next: ");
    if (at == std::string::npos) {
      cursor_.reset();
    } else {
      const std::size_t eol = output.find('\n', at);
      cursor_ = output.substr(at + 8, eol == std::string::npos
                                          ? std::string::npos
                                          : eol - at - 8);
    }
  }
}

void OpStream::refill() {
  ++round_;
  ids_.clear();
  cursor_.reset();
  switch (workload_) {
    case Workload::kEdit:
      edit_round();
      break;
    case Workload::kBrowse:
      browse_round();
      break;
    case Workload::kRuns:
      runs_round();
      break;
  }
}

namespace {

Op read_op(std::string line) {
  Op op;
  op.line = std::move(line);
  return op;
}

Op write_op(std::string line) {
  Op op;
  op.line = std::move(line);
  op.cls = OpClass::kWrite;
  return op;
}

Op import_op(const std::string& entity, const std::string& name,
             std::string body) {
  Op op = write_op("import " + entity + " " + name +
                   (body.empty() ? " \"\"" : ""));
  op.body = std::move(body);
  op.import_name = name;
  op.import_entity = entity;
  return op;
}

Op browse_op(BrowseSpec spec) {
  Op op = read_op(spec.line());
  op.browse = std::move(spec);
  return op;
}

/// The next page of the listing the previous op started.
Op next_page(const BrowseSpec& first) {
  Op op = browse_op(first);
  op.follows_cursor = true;
  return op;
}

}  // namespace

void OpStream::edit_round() {
  const std::uint64_t r = rand() % 100;
  static const char* const kEntities[] = {"EditedNetlist", "Stimuli",
                                          "DeviceModels"};
  if (r < 50) {
    // A new design object, or a new version of one of this designer's,
    // then a point read of what was just written.
    std::string entity;
    std::string name;
    if (r < 35 || mine_.empty()) {
      entity = kEntities[rand() % 3];
      name = fresh_name();
      mine_.emplace_back(entity, name);
    } else {
      std::tie(entity, name) = mine_[rand() % mine_.size()];
    }
    pending_.push_back(
        import_op(entity, name, sized_payload(name, 32 + rand() % 224)));
    BrowseSpec spec;
    spec.entity = entity;
    spec.keyword = name;
    spec.limit = 5;
    pending_.push_back(browse_op(spec));
  } else if (r < 65) {
    // Annotate a pre-built netlist from this designer's third of them.
    std::uint32_t id = pick(pre_->netlists);
    id -= id % kClients;
    id += static_cast<std::uint32_t>(client_);
    if (id >= pre_->instances) id = pick(pre_->netlists);
    pending_.push_back(write_op("annotate i" + std::to_string(id) + " " +
                                fresh_name() + " revised by designer"));
    pending_.push_back(read_op("history i" + std::to_string(id)));
  } else if (r < 75) {
    // Build the simulate flow over pre-built inputs and publish it.
    const std::string f = "f" + std::to_string(round_);
    pending_.push_back(read_op("flow new " + f + " goal Performance"));
    pending_.push_back(read_op("flow expand " + f + " 0"));
    pending_.push_back(read_op("flow expand " + f + " 2"));
    pending_.push_back(read_op("flow bind " + f + " 1 i" +
                               std::to_string(pick(pre_->simulators))));
    pending_.push_back(read_op("flow bind " + f + " 3 i" +
                               std::to_string(pick(pre_->stimuli))));
    pending_.push_back(read_op("flow bind " + f + " 4 i" +
                               std::to_string(pick(pre_->models))));
    pending_.push_back(read_op("flow bind " + f + " 5 i" +
                               std::to_string(pick(pre_->netlists))));
    pending_.push_back(write_op("flow save-plan " + f));
  } else {
    pending_.push_back(
        read_op("payload i" + std::to_string(pick(pre_->stimuli))));
    pending_.push_back(
        read_op("versions i" + std::to_string(pick(pre_->netlists))));
  }
}

void OpStream::browse_round() {
  const std::uint64_t r = rand() % 100;
  if (r < 5) {
    // DeviceModels are never browsed here, so these imports keep the
    // indexes live without moving any listing the designers page through.
    pending_.push_back(
        import_op("DeviceModels", fresh_name(), kModelsBody));
    return;
  }
  if (r >= 88) {
    const std::uint64_t k = rand() % 3;
    if (k == 0) {
      pending_.push_back(
          read_op("trace i" + std::to_string(pick(pre_->perfs)) +
                  " backward"));
    } else if (k == 1) {
      pending_.push_back(
          read_op("history i" + std::to_string(pick(pre_->perfs))));
    } else {
      pending_.push_back(
          read_op("uses i" + std::to_string(pick(pre_->netlists))));
    }
    return;
  }
  BrowseSpec spec;
  spec.limit = 20;
  if (r < 25) {
    spec.entity = "EditedNetlist";
    spec.keyword = keywords()[rand() % keywords().size()];
  } else if (r < 45) {
    spec.entity = "EditedNetlist";
    spec.user = rare_users()[rand() % rare_users().size()];
  } else if (r < 60) {
    // A creation-date window of about 0.05% of the history.
    const std::size_t width = std::max<std::size_t>(pre_->instances / 2000, 20);
    const std::uint64_t start = rand() % (pre_->instances - width);
    spec.entity = "EditedNetlist";
    spec.from = pre_->created(static_cast<std::uint32_t>(start));
    spec.to = pre_->created(static_cast<std::uint32_t>(start + width));
  } else if (r < 75) {
    spec.entity = rand() % 2 == 0 ? "Stimuli" : "Performance";
    spec.to = pre_->created(
        static_cast<std::uint32_t>(rand() % pre_->instances));
  } else {
    spec.entity = "Performance";
    spec.uses = pick(pre_->hubs);
  }
  pending_.push_back(browse_op(spec));
  const std::uint64_t more = rand() % 3;
  for (std::uint64_t p = 0; p < more; ++p) pending_.push_back(next_page(spec));
}

void OpStream::runs_round() {
  if (client_ == 0) {
    // Import the Fig. 1 inputs, build the simulate flow over them, run it.
    pending_.push_back(
        import_op("EditedNetlist", fresh_name(), kNetlistBody));
    pending_.push_back(import_op("DeviceModels", fresh_name(), kModelsBody));
    pending_.push_back(
        import_op("Stimuli", fresh_name(), waves_body(500 + rand() % 2000)));
    pending_.push_back(import_op("Simulator", fresh_name(), ""));
    const std::string f = "rf" + std::to_string(round_);
    pending_.push_back(read_op("flow new " + f + " goal Performance"));
    pending_.push_back(read_op("flow expand " + f + " 0"));
    pending_.push_back(read_op("flow expand " + f + " 2"));
    pending_.push_back(read_op("flow bind " + f + " 1 {i3}"));
    pending_.push_back(read_op("flow bind " + f + " 3 {i2}"));
    pending_.push_back(read_op("flow bind " + f + " 4 {i1}"));
    pending_.push_back(read_op("flow bind " + f + " 5 {i0}"));
    Op run = write_op("run " + f + " parallel latency=" +
                      std::to_string(kRunLatencyMs));
    run.cls = OpClass::kRun;
    pending_.push_back(std::move(run));
    return;
  }
  // The two other designers read pre-built data while runs are in flight.
  if (rand() % 100 < 40) {
    BrowseSpec spec;
    spec.entity = "Performance";
    spec.limit = 20;
    spec.to = pre_->created(
        static_cast<std::uint32_t>(rand() % pre_->instances));
    pending_.push_back(browse_op(spec));
    const std::uint64_t more = 1 + rand() % 2;
    for (std::uint64_t p = 0; p < more; ++p) {
      pending_.push_back(next_page(spec));
    }
    return;
  }
  pending_.push_back(
      read_op("payload i" + std::to_string(pick(pre_->stimuli))));
  pending_.push_back(read_op("history i" + std::to_string(pick(pre_->perfs))));
  pending_.push_back(
      read_op("versions i" + std::to_string(pick(pre_->netlists))));
}

}  // namespace perfbench
