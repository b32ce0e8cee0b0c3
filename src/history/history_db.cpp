#include "history/history_db.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "support/error.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

namespace herc::history {

using data::InstanceId;
using schema::EntityTypeId;
using support::HistoryError;

std::size_t RunRecord::tasks_finished() const {
  std::size_t n = 0;
  for (const RunTask& t : tasks) {
    if (t.finished) ++n;
  }
  return n;
}

HistoryDb::HistoryDb(const schema::TaskSchema& schema, support::Clock& clock)
    : schema_(&schema), clock_(&clock) {}

HistoryDb& HistoryDb::operator=(HistoryDb&& other) noexcept {
  if (this == &other) return *this;
  schema_ = other.schema_;
  clock_ = other.clock_;
  blobs_ = std::move(other.blobs_);
  instances_ = std::move(other.instances_);
  used_by_ = std::move(other.used_by_);
  runs_ = std::move(other.runs_);
  // listener_ and observers_ deliberately kept: the assignment swaps the
  // image out from under whoever is watching this object (a store's
  // in-place install).  The store stays attached, and observers need to
  // know their derived state is now stale.
  for (HistoryObserver* obs : observers_) obs->on_reset();
  return *this;
}

void HistoryDb::add_observer(HistoryObserver* observer) {
  if (observer == nullptr) {
    throw HistoryError("add_observer: null observer");
  }
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    throw HistoryError("add_observer: observer already attached");
  }
  observers_.push_back(observer);
}

void HistoryDb::remove_observer(HistoryObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void HistoryDb::emit(std::string_view lines) {
  if (listener_ != nullptr) listener_->on_mutation(lines);
  for (HistoryObserver* obs : observers_) obs->on_lines(lines);
}

void HistoryDb::check_id(InstanceId id) const {
  if (!id.valid() || id.index() >= instances_.size()) {
    throw HistoryError("unknown instance id");
  }
}

EntityTypeId HistoryDb::root_type(EntityTypeId t) const {
  EntityTypeId cur = t;
  while (schema_->entity(cur).parent.valid()) {
    cur = schema_->entity(cur).parent;
  }
  return cur;
}

InstanceId HistoryDb::import_instance(EntityTypeId type,
                                      std::string_view name,
                                      std::string_view payload,
                                      std::string_view user,
                                      std::string_view comment) {
  RecordRequest request;
  request.type = type;
  request.name = std::string(name);
  request.user = std::string(user);
  request.comment = std::string(comment);
  request.payload = std::string(payload);
  request.derivation.task = "import";
  return record(request);
}

InstanceId HistoryDb::record(const RecordRequest& request) {
  if (schema_->is_abstract(request.type)) {
    throw HistoryError("cannot instantiate abstract entity '" +
                       schema_->entity_name(request.type) + "'");
  }
  if (request.derivation.inputs.size() !=
      request.derivation.input_roles.size()) {
    throw HistoryError("derivation inputs and roles differ in length");
  }
  if (request.derivation.tool.valid()) check_id(request.derivation.tool);
  for (const InstanceId in : request.derivation.inputs) check_id(in);

  Instance inst;
  inst.id = InstanceId(static_cast<std::uint32_t>(instances_.size()));
  inst.type = request.type;
  inst.name = request.name;
  inst.user = request.user;
  inst.comment = request.comment;
  inst.created = clock_->now();
  const std::size_t blobs_before = blobs_.size();
  inst.blob = blobs_.put(request.payload);
  const bool new_blob = blobs_.size() > blobs_before;
  inst.status = request.status;
  inst.derivation = request.derivation;

  // Version numbering: an editing task (input of the same root entity type,
  // §4.2) continues its input's lineage.  A failed edit produced nothing,
  // so it must not occupy a slot in the version tree (or supersede its
  // input): failure records always stay at version 1.
  if (inst.ok()) {
    const EntityTypeId self_root = root_type(request.type);
    for (const InstanceId in : request.derivation.inputs) {
      if (root_type(instances_[in.index()].type) == self_root) {
        inst.version = instances_[in.index()].version + 1;
        break;
      }
    }
  }

  // Maintain the forward index.
  used_by_.emplace_back();
  if (inst.derivation.tool.valid()) {
    used_by_[inst.derivation.tool.index()].push_back(inst.id);
  }
  for (const InstanceId in : inst.derivation.inputs) {
    // A tool doubling as an input would be indexed twice; dedupe.
    auto& vec = used_by_[in.index()];
    if (vec.empty() || vec.back() != inst.id) vec.push_back(inst.id);
  }

  instances_.push_back(std::move(inst));
  if (observed()) {
    // One mutation = one journal entry: the (possibly new) blob plus the
    // instance line, applied atomically on recovery.
    std::string lines;
    if (new_blob) {
      lines += blobs_.record_line(instances_.back().blob);
      lines += '\n';
    }
    lines += instance_line(instances_.back());
    lines += '\n';
    emit(lines);
  }
  return instances_.back().id;
}

void HistoryDb::annotate(InstanceId id, std::string_view name,
                         std::string_view comment) {
  check_id(id);
  instances_[id.index()].name = std::string(name);
  instances_[id.index()].comment = std::string(comment);
  if (observed()) {
    support::RecordWriter w("annot");
    w.field(id.value());
    w.field(name);
    w.field(comment);
    emit(w.str() + "\n");
  }
}

void HistoryDb::quarantine(InstanceId id, std::string_view reason) {
  apply_quarantine(id, reason);
  if (observed()) {
    support::RecordWriter w("quar");
    w.field(id.value());
    w.field(reason);
    emit(w.str() + "\n");
  }
}

void HistoryDb::apply_quarantine(InstanceId id, std::string_view reason) {
  check_id(id);
  Instance& inst = instances_[id.index()];
  if (!inst.ok()) {
    throw HistoryError("instance i" + std::to_string(id.value()) +
                       " is not an OK record; only OK instances can be "
                       "quarantined");
  }
  inst.status = InstanceStatus::kQuarantined;
  if (!inst.comment.empty()) inst.comment += ' ';
  inst.comment += "[quarantined: " + std::string(reason) + "]";
}

// ---- run log ---------------------------------------------------------------

RunRecord& HistoryDb::run_ref(std::uint64_t id) {
  if (id >= runs_.size()) {
    throw HistoryError("unknown run #" + std::to_string(id));
  }
  return runs_[static_cast<std::size_t>(id)];
}

const RunRecord* HistoryDb::find_run(std::uint64_t id) const {
  if (id >= runs_.size()) return nullptr;
  return &runs_[static_cast<std::size_t>(id)];
}

std::vector<const RunRecord*> HistoryDb::open_runs() const {
  std::vector<const RunRecord*> out;
  for (const RunRecord& run : runs_) {
    if (run.open()) out.push_back(&run);
  }
  return out;
}

std::vector<InstanceId> HistoryDb::partial_products() const {
  // Union coverage over ALL runs (closed runs keep their lists): a later
  // completed run's products must never be mistaken for an earlier
  // crashed run's partials.
  bool any_open = false;
  std::unordered_set<std::uint32_t> covered;
  for (const RunRecord& run : runs_) {
    if (run.open()) any_open = true;
    for (const InstanceId id : run.covered) covered.insert(id.value());
  }
  std::vector<InstanceId> out;
  if (!any_open) return out;
  std::unordered_set<std::uint32_t> reported;
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    const RunRecord& run = runs_[r];
    if (!run.open()) continue;
    // Sweep only the run's own window.  Runs execute sequentially, so the
    // next run's begin bounds it even when no seal frame survived; the
    // seal recovery journals bounds work recorded in later sessions.
    std::size_t end = run.sealed() ? run.sweep_end : instances_.size();
    if (r + 1 < runs_.size()) {
      end = std::min<std::size_t>(end, runs_[r + 1].db_size_at_begin);
    }
    end = std::min(end, instances_.size());
    for (std::size_t i = run.db_size_at_begin; i < end; ++i) {
      const Instance& inst = instances_[i];
      // Imports are designer-supplied, not task products; failure records
      // and already-quarantined instances are invisible anyway.
      if (!inst.ok() || inst.derivation.is_import()) continue;
      if (covered.contains(inst.id.value())) continue;
      if (reported.insert(inst.id.value()).second) out.push_back(inst.id);
    }
  }
  return out;
}

std::string HistoryDb::run_begin_line(const RunRecord& run) {
  support::RecordWriter w("runb");
  w.field(static_cast<std::int64_t>(run.id));
  w.field(run.flow_name);
  w.field(run.goal);
  w.field(run.goal_node);
  w.field(run.user);
  w.field(run.options);
  w.field(static_cast<std::int64_t>(run.seed));
  w.field(run.db_size_at_begin);
  w.field(run.flow_text);
  return w.str();
}

std::uint64_t HistoryDb::begin_run(RunRecord run) {
  run.id = runs_.size();
  run.db_size_at_begin = static_cast<std::uint32_t>(instances_.size());
  run.outcome.clear();
  run.tasks.clear();
  run.covered.clear();
  const std::string line = run_begin_line(run);
  const std::uint64_t id = run.id;
  apply_run_begin(std::move(run));
  if (observed()) emit(line + "\n");
  return id;
}

void HistoryDb::apply_run_begin(RunRecord run) {
  if (run.id != runs_.size()) {
    throw HistoryError("history file: run records out of order");
  }
  runs_.push_back(std::move(run));
}

void HistoryDb::run_task_started(std::uint64_t run, std::string_view key) {
  apply_task_started(run, key);
  if (observed()) {
    support::RecordWriter w("tstart");
    w.field(static_cast<std::int64_t>(run));
    w.field(key);
    emit(w.str() + "\n");
  }
}

void HistoryDb::apply_task_started(std::uint64_t run, std::string_view key) {
  run_ref(run).tasks.push_back(RunTask{std::string(key), false, ""});
}

void HistoryDb::run_task_covered(
    std::uint64_t run, const std::vector<InstanceId>& produced) {
  apply_task_covered(run, produced);
  if (observed()) {
    support::RecordWriter w("tcover");
    w.field(static_cast<std::int64_t>(run));
    w.field(static_cast<std::uint32_t>(produced.size()));
    for (const InstanceId id : produced) w.field(id.value());
    emit(w.str() + "\n");
  }
}

void HistoryDb::apply_task_covered(
    std::uint64_t run, const std::vector<InstanceId>& produced) {
  RunRecord& record = run_ref(run);
  for (const InstanceId id : produced) {
    check_id(id);
    record.covered.push_back(id);
  }
}

void HistoryDb::run_task_finished(std::uint64_t run, std::string_view key,
                                  std::string_view status) {
  apply_task_finished(run, key, status);
  if (observed()) {
    support::RecordWriter w("tfin");
    w.field(static_cast<std::int64_t>(run));
    w.field(key);
    w.field(status);
    emit(w.str() + "\n");
  }
}

void HistoryDb::apply_task_finished(std::uint64_t run, std::string_view key,
                                    std::string_view status) {
  for (RunTask& task : run_ref(run).tasks) {
    if (!task.finished && task.key == key) {
      task.finished = true;
      task.status = std::string(status);
      return;
    }
  }
  throw HistoryError("run #" + std::to_string(run) + ": task '" +
                     std::string(key) + "' finished without starting");
}

void HistoryDb::seal_run(std::uint64_t run) {
  if (run_ref(run).sealed()) return;
  const auto sweep_end = static_cast<std::uint32_t>(instances_.size());
  apply_run_seal(run, sweep_end);
  if (observed()) {
    support::RecordWriter w("runseal");
    w.field(static_cast<std::int64_t>(run));
    w.field(sweep_end);
    emit(w.str() + "\n");
  }
}

void HistoryDb::apply_run_seal(std::uint64_t run, std::uint32_t sweep_end) {
  run_ref(run).sweep_end = sweep_end;
}

HistoryDb::SealSweep HistoryDb::seal_open_runs(std::string_view reason) {
  SealSweep sweep;
  // Collect ids first: quarantine and seal mutate the records (and notify
  // the listener) while `open_runs` hands out pointers into `runs_`.
  std::vector<std::uint64_t> open_ids;
  std::vector<bool> was_sealed;
  for (const RunRecord* run : open_runs()) {
    open_ids.push_back(run->id);
    was_sealed.push_back(run->sealed());
  }
  sweep.open = open_ids.size();
  if (open_ids.empty()) return sweep;
  for (const data::InstanceId id : partial_products()) {
    quarantine(id, reason);
    ++sweep.quarantined;
  }
  for (std::size_t i = 0; i < open_ids.size(); ++i) {
    seal_run(open_ids[i]);
    if (!was_sealed[i]) ++sweep.sealed;
  }
  return sweep;
}

void HistoryDb::end_run(std::uint64_t run, std::string_view outcome) {
  apply_run_end(run, outcome);
  if (observed()) {
    support::RecordWriter w("rune");
    w.field(static_cast<std::int64_t>(run));
    w.field(outcome);
    emit(w.str() + "\n");
  }
}

void HistoryDb::apply_run_end(std::uint64_t run, std::string_view outcome) {
  RunRecord& record = run_ref(run);
  if (!record.open()) {
    throw HistoryError("run #" + std::to_string(run) + " already ended ('" +
                       record.outcome + "')");
  }
  if (outcome.empty()) {
    throw HistoryError("run outcome must be non-empty");
  }
  record.outcome = std::string(outcome);
  // The flow is only needed to resume an open run; keep closed runs cheap.
  record.flow_text.clear();
  record.flow_text.shrink_to_fit();
}

bool HistoryDb::contains(InstanceId id) const {
  return id.valid() && id.index() < instances_.size();
}

const Instance& HistoryDb::instance(InstanceId id) const {
  check_id(id);
  return instances_[id.index()];
}

const std::string& HistoryDb::payload(InstanceId id) const {
  return blobs_.get(instance(id).blob);
}

std::vector<InstanceId> HistoryDb::all() const {
  std::vector<InstanceId> out;
  out.reserve(instances_.size());
  for (const Instance& inst : instances_) out.push_back(inst.id);
  return out;
}

std::vector<InstanceId> HistoryDb::instances_of(EntityTypeId type,
                                                bool include_subtypes,
                                                bool include_failures) const {
  std::vector<InstanceId> out;
  for (const Instance& inst : instances_) {
    if (!inst.ok() && !include_failures) continue;
    const bool match = include_subtypes
                           ? schema_->is_ancestor_or_self(type, inst.type)
                           : inst.type == type;
    if (match) out.push_back(inst.id);
  }
  return out;
}

std::vector<InstanceId> HistoryDb::failures() const {
  std::vector<InstanceId> out;
  for (const Instance& inst : instances_) {
    if (!inst.ok()) out.push_back(inst.id);
  }
  return out;
}

std::vector<InstanceId> HistoryDb::derived_from(InstanceId id) const {
  const Instance& inst = instance(id);
  std::vector<InstanceId> out;
  if (inst.derivation.tool.valid()) out.push_back(inst.derivation.tool);
  for (const InstanceId in : inst.derivation.inputs) out.push_back(in);
  return out;
}

std::vector<InstanceId> HistoryDb::derivation_closure(InstanceId id) const {
  check_id(id);
  std::vector<InstanceId> order;
  std::unordered_set<std::uint32_t> seen{id.value()};
  std::deque<InstanceId> queue{id};
  while (!queue.empty()) {
    const InstanceId cur = queue.front();
    queue.pop_front();
    for (const InstanceId next : derived_from(cur)) {
      if (seen.insert(next.value()).second) {
        order.push_back(next);
        queue.push_back(next);
      }
    }
  }
  return order;
}

std::vector<InstanceId> HistoryDb::used_by(InstanceId id) const {
  check_id(id);
  return used_by_[id.index()];
}

std::vector<InstanceId> HistoryDb::dependent_closure(InstanceId id) const {
  check_id(id);
  std::vector<InstanceId> order;
  std::unordered_set<std::uint32_t> seen{id.value()};
  std::deque<InstanceId> queue{id};
  while (!queue.empty()) {
    const InstanceId cur = queue.front();
    queue.pop_front();
    for (const InstanceId next : used_by_[cur.index()]) {
      if (seen.insert(next.value()).second) {
        order.push_back(next);
        queue.push_back(next);
      }
    }
  }
  return order;
}

std::optional<InstanceId> HistoryDb::edit_parent(InstanceId id) const {
  const Instance& inst = instance(id);
  // A failed edit never entered the version tree, so it neither has an edit
  // parent nor supersedes anything.
  if (!inst.ok()) return std::nullopt;
  const EntityTypeId self_root = root_type(inst.type);
  for (const InstanceId in : inst.derivation.inputs) {
    if (root_type(instances_[in.index()].type) == self_root) return in;
  }
  return std::nullopt;
}

std::vector<InstanceId> HistoryDb::edit_children(InstanceId id) const {
  check_id(id);
  std::vector<InstanceId> out;
  for (const InstanceId dep : used_by_[id.index()]) {
    const auto parent = edit_parent(dep);
    if (parent && *parent == id) out.push_back(dep);
  }
  return out;
}

bool HistoryDb::superseded(InstanceId id) const {
  return !edit_children(id).empty();
}

bool HistoryDb::is_stale(InstanceId id) const {
  return !stale_inputs(id).empty();
}

std::vector<InstanceId> HistoryDb::stale_inputs(InstanceId id) const {
  // A superseded ancestor only makes `id` stale when none of its edit
  // successors participates in the derivation: an edit's own parent is
  // "superseded" by the very version the derivation already uses.
  const std::vector<InstanceId> closure = derivation_closure(id);
  std::unordered_set<std::uint32_t> in_closure{id.value()};
  for (const InstanceId anc : closure) in_closure.insert(anc.value());
  std::vector<InstanceId> out;
  for (const InstanceId anc : closure) {
    const std::vector<InstanceId> children = edit_children(anc);
    if (children.empty()) continue;
    const bool replaced_within = std::any_of(
        children.begin(), children.end(), [&](InstanceId child) {
          return in_closure.contains(child.value());
        });
    if (!replaced_within) out.push_back(anc);
  }
  return out;
}

std::optional<InstanceId> HistoryDb::find_existing(
    EntityTypeId type, InstanceId tool,
    const std::vector<InstanceId>& inputs) const {
  std::vector<InstanceId> want = inputs;
  std::sort(want.begin(), want.end());
  // Walk the forward index of the narrowest anchor (the tool when present,
  // else the first input) rather than the whole table.
  std::vector<InstanceId> candidates;
  if (tool.valid()) {
    candidates = used_by(tool);
  } else if (!inputs.empty()) {
    candidates = used_by(inputs.front());
  } else {
    return std::nullopt;
  }
  for (const InstanceId cand : candidates) {
    const Instance& inst = instances_[cand.index()];
    // Memoization must treat failed outputs as absent: a recorded failure
    // never satisfies "has this task been performed yet?".
    if (!inst.ok()) continue;
    if (inst.type != type) continue;
    if (inst.derivation.tool != tool) continue;
    std::vector<InstanceId> have = inst.derivation.inputs;
    std::sort(have.begin(), have.end());
    if (have == want) return cand;
  }
  return std::nullopt;
}

std::string HistoryDb::instance_line(const Instance& inst) const {
  support::RecordWriter w("inst");
  w.field(inst.id.value());
  w.field(schema_->entity_name(inst.type));
  w.field(inst.name);
  w.field(inst.user);
  w.field(inst.created.micros());
  w.field(inst.comment);
  w.field(blobs_.key(inst.blob));
  w.field(inst.version);
  w.field(static_cast<std::uint32_t>(inst.status));
  w.field(inst.derivation.task);
  w.field(inst.derivation.tool.valid()
              ? static_cast<std::int64_t>(inst.derivation.tool.value())
              : static_cast<std::int64_t>(-1));
  w.field(static_cast<std::uint32_t>(inst.derivation.inputs.size()));
  for (std::size_t i = 0; i < inst.derivation.inputs.size(); ++i) {
    w.field(inst.derivation.inputs[i].value());
    w.field(inst.derivation.input_roles[i]);
  }
  return w.str();
}

std::string HistoryDb::save() const {
  std::string out = blobs_.save();
  for (const Instance& inst : instances_) {
    out += instance_line(inst);
    out += '\n';
  }
  // Run log: the same frame kinds the journal carries, re-emitted so a
  // snapshot/load round-trip reproduces the run state exactly (an open
  // run stays resumable across a checkpoint).
  for (const RunRecord& run : runs_) {
    out += run_begin_line(run);
    out += '\n';
    for (const RunTask& task : run.tasks) {
      out += support::RecordWriter("tstart")
                 .field(static_cast<std::int64_t>(run.id))
                 .field(task.key)
                 .str();
      out += '\n';
    }
    if (!run.covered.empty()) {
      support::RecordWriter w("tcover");
      w.field(static_cast<std::int64_t>(run.id));
      w.field(static_cast<std::uint32_t>(run.covered.size()));
      for (const InstanceId id : run.covered) w.field(id.value());
      out += w.str();
      out += '\n';
    }
    for (const RunTask& task : run.tasks) {
      if (!task.finished) continue;
      out += support::RecordWriter("tfin")
                 .field(static_cast<std::int64_t>(run.id))
                 .field(task.key)
                 .field(task.status)
                 .str();
      out += '\n';
    }
    if (run.sealed()) {
      out += support::RecordWriter("runseal")
                 .field(static_cast<std::int64_t>(run.id))
                 .field(run.sweep_end)
                 .str();
      out += '\n';
    }
    if (!run.open()) {
      out += support::RecordWriter("rune")
                 .field(static_cast<std::int64_t>(run.id))
                 .field(run.outcome)
                 .str();
      out += '\n';
    }
  }
  return out;
}

void HistoryDb::apply_saved_line(std::string_view line) {
  if (support::trim(line).empty()) return;
  support::RecordReader rec(line);
  if (rec.kind() == "blob") {
    const std::string key = rec.next_string();
    const std::string payload = rec.next_string();
    blobs_.restore(key, payload);
  } else if (rec.kind() == "inst") {
    Instance inst;
    inst.id = InstanceId(rec.next_uint32());
    if (inst.id.index() != instances_.size()) {
      throw HistoryError("history file: instance records out of order");
    }
    inst.type = schema_->require(rec.next_string());
    inst.name = rec.next_string();
    inst.user = rec.next_string();
    inst.created = support::Timestamp(rec.next_int64());
    inst.comment = rec.next_string();
    const std::optional<data::BlobRef> blob = blobs_.find(rec.next_string());
    if (!blob) {
      throw HistoryError("history file: instance references missing blob");
    }
    inst.blob = *blob;
    inst.version = rec.next_uint32();
    const std::uint32_t status = rec.next_uint32();
    if (status > static_cast<std::uint32_t>(InstanceStatus::kQuarantined)) {
      throw HistoryError("history file: unknown instance status");
    }
    inst.status = static_cast<InstanceStatus>(status);
    inst.derivation.task = rec.next_string();
    const std::int64_t tool = rec.next_int64();
    if (tool >= 0) {
      inst.derivation.tool = InstanceId(static_cast<std::uint32_t>(tool));
    }
    const std::uint32_t n_inputs = rec.next_uint32();
    for (std::uint32_t i = 0; i < n_inputs; ++i) {
      inst.derivation.inputs.push_back(InstanceId(rec.next_uint32()));
      inst.derivation.input_roles.push_back(rec.next_string());
    }
    used_by_.emplace_back();
    if (inst.derivation.tool.valid()) {
      check_id(inst.derivation.tool);
      used_by_[inst.derivation.tool.index()].push_back(inst.id);
    }
    for (const InstanceId in : inst.derivation.inputs) {
      check_id(in);
      auto& vec = used_by_[in.index()];
      if (vec.empty() || vec.back() != inst.id) vec.push_back(inst.id);
    }
    instances_.push_back(std::move(inst));
  } else if (rec.kind() == "annot") {
    const InstanceId id(rec.next_uint32());
    check_id(id);
    instances_[id.index()].name = rec.next_string();
    instances_[id.index()].comment = rec.next_string();
  } else if (rec.kind() == "runb") {
    RunRecord run;
    run.id = static_cast<std::uint64_t>(rec.next_int64());
    run.flow_name = rec.next_string();
    run.goal = rec.next_string();
    run.goal_node = rec.next_int64();
    run.user = rec.next_string();
    run.options = rec.next_string();
    run.seed = static_cast<std::uint64_t>(rec.next_int64());
    run.db_size_at_begin = rec.next_uint32();
    run.flow_text = rec.next_string();
    apply_run_begin(std::move(run));
  } else if (rec.kind() == "tstart") {
    const auto run = static_cast<std::uint64_t>(rec.next_int64());
    apply_task_started(run, rec.next_string());
  } else if (rec.kind() == "tcover") {
    const auto run = static_cast<std::uint64_t>(rec.next_int64());
    const std::uint32_t count = rec.next_uint32();
    std::vector<InstanceId> produced;
    produced.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      produced.push_back(InstanceId(rec.next_uint32()));
    }
    apply_task_covered(run, produced);
  } else if (rec.kind() == "tfin") {
    const auto run = static_cast<std::uint64_t>(rec.next_int64());
    const std::string key = rec.next_string();
    apply_task_finished(run, key, rec.next_string());
  } else if (rec.kind() == "runseal") {
    const auto run = static_cast<std::uint64_t>(rec.next_int64());
    apply_run_seal(run, rec.next_uint32());
  } else if (rec.kind() == "rune") {
    const auto run = static_cast<std::uint64_t>(rec.next_int64());
    apply_run_end(run, rec.next_string());
  } else if (rec.kind() == "quar") {
    const InstanceId id(rec.next_uint32());
    apply_quarantine(id, rec.next_string());
  } else {
    throw HistoryError("history file: unknown record '" +
                       std::string(rec.kind()) + "'");
  }
  // Observers see replayed records too (a throw above skips this, so only
  // applied records are observed).  The listener is never notified here:
  // it owns the journal these lines came from.
  if (!observers_.empty()) {
    std::string terminated(line);
    terminated += '\n';
    for (HistoryObserver* obs : observers_) obs->on_lines(terminated);
  }
}

HistoryDb HistoryDb::load(const schema::TaskSchema& schema,
                          support::Clock& clock, std::string_view text) {
  HistoryDb db(schema, clock);
  for (const std::string_view line : support::Lines(text)) {
    db.apply_saved_line(line);
  }
  return db;
}

}  // namespace herc::history
