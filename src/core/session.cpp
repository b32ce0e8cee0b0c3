#include "core/session.hpp"

#include <future>

#include "schema/schema_io.hpp"
#include "support/error.hpp"
#include "support/text.hpp"
#include "tools/fault_injection.hpp"
#include "tools/standard_tools.hpp"

namespace herc::core {

using graph::NodeId;
using graph::TaskGraph;

namespace {

/// Per-invocation misbehavior probability when a run arms a fault seed
/// (`run ... faults=SEED`).  With one retry a task fails only when two
/// consecutive invocations both fault (~6%): plenty of failure records
/// under load, but most runs still complete.
constexpr double kSeededFaultProbability = 0.25;

}  // namespace

void DesignSession::require_writable(std::string_view what) const {
  if (replica_ != nullptr) {
    throw support::HistoryError("read-only replica: '" + std::string(what) +
                                "' mutates the design history; run it on "
                                "the leader");
  }
}

DesignSession::DesignSession(schema::TaskSchema schema, std::string user,
                             std::unique_ptr<support::Clock> clock)
    : schema_(std::move(schema)),
      user_(std::move(user)),
      clock_(clock ? std::move(clock)
                   : std::make_unique<support::SystemClock>()) {
  tools::install_standard_compose_checks(schema_);
  db_ = std::make_unique<history::HistoryDb>(schema_, *clock_);
  registry_ = std::make_unique<tools::ToolRegistry>(schema_);
  tools::register_standard_tools(*registry_);
  flow_catalog_ = std::make_unique<catalog::FlowCatalog>(schema_);
  executor_ = std::make_unique<exec::Executor>(*db_, *registry_);
}

TaskGraph DesignSession::task_from_goal(std::string_view entity) {
  return catalog::start_from_goal(schema_, schema_.require(entity));
}

catalog::ToolStart DesignSession::task_from_tool(std::string_view tool) {
  return catalog::start_from_tool(schema_, schema_.require(tool));
}

catalog::DataStart DesignSession::task_from_data(data::InstanceId instance) {
  return catalog::start_from_data(schema_, db(), instance);
}

TaskGraph DesignSession::task_from_plan(std::string_view flow_name) {
  return catalog::start_from_plan(*flow_catalog_, flow_name);
}

data::InstanceId DesignSession::import_data(std::string_view entity,
                                            std::string_view name,
                                            std::string_view payload,
                                            std::string_view comment) {
  require_writable("import");
  return db().import_instance(schema_.require(entity), name, payload, user_,
                              comment);
}

void DesignSession::extend_schema(std::string_view fragment) {
  require_writable("schema extend");
  schema::extend_schema(schema_, fragment);
}

exec::ExecResult DesignSession::with_executor(
    std::uint64_t seed,
    const std::function<exec::ExecResult(exec::Executor&)>& body) {
  if (seed == 0) return body(*executor_);
  tools::FaultInjectingRegistry faulty(*registry_, seed);
  faulty.inject_random(kSeededFaultProbability, tools::FaultKind::kThrow);
  exec::Executor faulted(db(), faulty);
  faulted.set_cancel_flag(cancel_);
  return body(faulted);
}

exec::ExecResult DesignSession::run(const TaskGraph& flow,
                                    exec::ExecOptions options) {
  require_writable("run");
  if (options.user == "designer") options.user = user_;
  return with_executor(options.fault.seed, [&](exec::Executor& executor) {
    return executor.run(flow, options);
  });
}

exec::ExecResult DesignSession::run_goal(const TaskGraph& flow, NodeId goal,
                                         exec::ExecOptions options) {
  require_writable("run");
  if (options.user == "designer") options.user = user_;
  return with_executor(options.fault.seed, [&](exec::Executor& executor) {
    return executor.run_goal(flow, goal, options);
  });
}

exec::ExecResult DesignSession::resume_run(std::uint64_t run_id) {
  require_writable("resume");
  // A run that armed a fault seed resumes under the same plan (the seed is
  // in the run record), so its failure semantics — not just its task list —
  // replay deterministically.
  const history::RunRecord* run = db().find_run(run_id);
  return with_executor(run != nullptr ? run->seed : 0,
                       [&](exec::Executor& executor) {
                         return executor.resume(run_id);
                       });
}

void DesignSession::set_cancel_flag(const std::atomic<bool>* cancel) {
  cancel_ = cancel;
  executor_->set_cancel_flag(cancel);
}

history::HistoryDb::SealSweep DesignSession::seal_open_runs(
    std::string_view reason) {
  // A replica's open runs mirror the leader's live runs; sealing them
  // locally would diverge the replicated history.
  if (replica_ != nullptr) return {};
  const history::HistoryDb::SealSweep sweep = db().seal_open_runs(reason);
  if (storage_) storage_->sync();
  return sweep;
}

DesignSession::~DesignSession() {
  // Best-effort index save for teardown paths that skip `close_storage`
  // (a serving process exiting): a failure just costs a rebuild next open.
  if (storage_ && indexes_) {
    try {
      indexes_->save(storage_->dir(), storage_->epoch(),
                     storage_->journal_seq());
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
  drop_indexes();
}

void DesignSession::drop_indexes() {
  storage::DurableHistory* store = replica_ ? replica_ : storage_.get();
  if (indexes_ && store != nullptr) store->unsubscribe(*indexes_);
  indexes_.reset();
}

InstanceBrowser DesignSession::browse(std::string_view entity) const {
  return InstanceBrowser(db(), schema_.require(entity), indexes_.get());
}

void DesignSession::annotate(data::InstanceId id, std::string_view name,
                             std::string_view comment) {
  require_writable("annotate");
  db().annotate(id, name, comment);
}

std::string DesignSession::render_task_window(const TaskGraph& flow) const {
  std::string out =
      "Task window: flow '" + flow.name() + "' (schema " +
      schema_.name() + ")\n";
  for (const NodeId n : flow.nodes()) {
    const graph::Node& node = flow.node(n);
    std::string line = "  [" + std::to_string(n.value()) + "] ";
    line += schema_.entity_name(node.type);
    if (!node.label.empty()) line += " '" + node.label + "'";
    if (!node.bound.empty()) {
      line += " {";
      for (std::size_t i = 0; i < node.bound.size(); ++i) {
        if (i != 0) line += ",";
        const data::InstanceId inst = node.bound[i];
        const std::string& name = db().contains(inst)
                                      ? db().instance(inst).name
                                      : std::string();
        line += name.empty() ? "i" + std::to_string(inst.value()) : name;
      }
      line += "}";
    }
    const auto& deps = flow.deps(n);
    if (!deps.empty()) {
      line += " <-";
      for (const graph::DepEdge& e : deps) {
        line += " ";
        line += schema::to_string(e.kind);
        line += ":" + std::to_string(e.target.value());
        if (e.optional) line += "?";
      }
    } else if (node.bound.empty()) {
      line += "  (unbound leaf)";
    }
    out += line + "\n";
  }
  const auto unbound = flow.unbound_leaves();
  out += unbound.empty() ? "  status: runnable\n"
                         : "  status: " + std::to_string(unbound.size()) +
                               " unbound leaves\n";
  return out;
}

namespace {
constexpr std::string_view kSectionPrefix = "@section ";
}  // namespace

std::string DesignSession::save() const {
  std::string out;
  out += "@section user\n" + user_ + "\n";
  out += "@section schema\n" + schema::write_schema(schema_);
  out += "@section history\n" + db().save();
  out += "@section flows\n" + flow_catalog_->save_all();
  return out;
}

storage::RecoveryReport DesignSession::open_storage(
    const std::string& dir, storage::StoreOptions options) {
  require_writable("open");
  // Leading from a follower's store would sweep its leader's live runs.
  if (storage::is_replica_store(dir)) {
    throw support::HistoryError(
        "store '" + dir + "' is a replica store; run `herc promote " + dir +
        "` before leading from it, or serve it with --replicate-from");
  }
  drop_indexes();  // they follow the store we are about to replace
  // The index image reads no database, so it is parsed while the store
  // replays its snapshot; the checks against the store come after.
  std::future<index::HistoryIndexes::LoadedImage> image =
      std::async(std::launch::async,
                 [dir] { return index::HistoryIndexes::load_image(dir); });
  auto store = std::make_unique<storage::DurableHistory>(schema_, *clock_,
                                                         dir, options);
  history::HistoryDb& current = db();
  if (store->db().size() == 0 && current.size() > 0) {
    store->adopt(std::move(current));
  } else if (store->db().size() > 0 && current.size() > 0) {
    throw support::HistoryError(
        "store '" + dir + "' already holds a history and so does this "
        "session; open the store from a fresh session");
  }
  storage_ = std::move(store);
  db_.reset();
  executor_ = std::make_unique<exec::Executor>(storage_->db(), *registry_);
  executor_->set_cancel_flag(cancel_);
  indexes_ = std::make_unique<index::HistoryIndexes>(storage_->db());
  index_open_ = indexes_->open(image.get(), storage_->epoch(),
                               storage_->take_journal_records());
  storage_->subscribe(*indexes_);
  return storage_->recovery();
}

void DesignSession::checkpoint_storage() {
  require_writable("checkpoint");
  if (!storage_) {
    throw support::HistoryError("no durable store is open");
  }
  storage_->checkpoint();
  if (indexes_) {
    indexes_->save(storage_->dir(), storage_->epoch(),
                   storage_->journal_seq());
  }
}

void DesignSession::close_storage() {
  if (!storage_) return;
  if (indexes_) {
    try {
      indexes_->save(storage_->dir(), storage_->epoch(),
                     storage_->journal_seq());
    } catch (...) {  // NOLINT(bugprone-empty-catch)
      // Closing must not fail for an unsaveable index; next open rebuilds.
    }
  }
  // First, so that a final sync that fails leaves the session as it was.
  db_ = storage_->release();
  drop_indexes();
  storage_.reset();
  executor_ = std::make_unique<exec::Executor>(*db_, *registry_);
  executor_->set_cancel_flag(cancel_);
}

void DesignSession::attach_replica(storage::DurableHistory* store) {
  drop_indexes();
  replica_ = store;
  if (store != nullptr) {
    indexes_ = std::make_unique<index::HistoryIndexes>(store->db());
    indexes_->rebuild();
    store->subscribe(*indexes_);
  }
}

std::unique_ptr<DesignSession> DesignSession::load(
    std::string_view text, std::unique_ptr<support::Clock> clock) {
  std::string user = "designer";
  std::string schema_text;
  std::string history_text;
  std::string flows_text;
  std::string* current = nullptr;
  for (const std::string& line : support::split(text, '\n')) {
    if (line.rfind(kSectionPrefix, 0) == 0) {
      const std::string_view section =
          support::trim(std::string_view(line).substr(kSectionPrefix.size()));
      if (section == "user") {
        current = &user;
        user.clear();
      } else if (section == "schema") {
        current = &schema_text;
      } else if (section == "history") {
        current = &history_text;
      } else if (section == "flows") {
        current = &flows_text;
      } else {
        throw support::ParseError("session file: unknown section '" +
                                  std::string(section) + "'");
      }
      continue;
    }
    if (current == nullptr) {
      if (support::trim(line).empty()) continue;
      throw support::ParseError("session file: content before any section");
    }
    *current += line + "\n";
  }

  auto session = std::make_unique<DesignSession>(
      schema::parse_schema(schema_text),
      std::string(support::trim(user)), std::move(clock));
  session->db_ = std::make_unique<history::HistoryDb>(
      history::HistoryDb::load(session->schema_, *session->clock_,
                               history_text));
  session->flow_catalog_ = std::make_unique<catalog::FlowCatalog>(
      catalog::FlowCatalog::load_all(session->schema_, flows_text));
  session->executor_ =
      std::make_unique<exec::Executor>(*session->db_, *session->registry_);
  return session;
}

}  // namespace herc::core
