#include "history/history_db.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <unordered_set>

#include "support/error.hpp"
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

void RunRecord::save_to(std::string& out) const {
  encode(static_cast<const RunBeginRecord&>(*this), out);
  for (const RunTask& task : tasks) encode(TaskStartRecord{id, task.key}, out);
  if (!covered.empty()) encode(TaskCoverRecord{id, covered}, out);
  for (const RunTask& task : tasks) {
    if (task.finished) encode(TaskFinishRecord{id, task.key, task.status}, out);
  }
  if (sealed()) encode(RunSealRecord{id, sweep_end}, out);
  if (!open()) encode(RunEndRecord{id, outcome}, out);
}

namespace {

RunRecord& run_of(std::vector<RunRecord>& runs, std::uint64_t id) {
  if (id >= runs.size()) {
    throw HistoryError("unknown run #" + std::to_string(id));
  }
  return runs[static_cast<std::size_t>(id)];
}

}  // namespace

void fold(std::vector<RunRecord>& runs, RunBeginRecord&& r) {
  if (r.id != runs.size()) {
    throw HistoryError("history file: run records out of order");
  }
  RunRecord run;
  static_cast<RunBeginRecord&>(run) = std::move(r);
  runs.push_back(std::move(run));
}

void fold(std::vector<RunRecord>& runs, TaskStartRecord&& r) {
  run_of(runs, r.run).tasks.push_back(RunTask{std::move(r.key), false, ""});
}

void fold(std::vector<RunRecord>& runs, TaskCoverRecord&& r) {
  RunRecord& run = run_of(runs, r.run);
  run.covered.insert(run.covered.end(), r.produced.begin(), r.produced.end());
}

void fold(std::vector<RunRecord>& runs, TaskFinishRecord&& r) {
  for (RunTask& task : run_of(runs, r.run).tasks) {
    if (!task.finished && task.key == r.key) {
      task.finished = true;
      task.status = std::move(r.status);
      return;
    }
  }
  throw HistoryError("run #" + std::to_string(r.run) + ": task '" + r.key +
                     "' finished without starting");
}

void fold(std::vector<RunRecord>& runs, RunSealRecord&& r) {
  run_of(runs, r.run).sweep_end = r.sweep_end;
}

void fold(std::vector<RunRecord>& runs, RunEndRecord&& r) {
  RunRecord& run = run_of(runs, r.run);
  if (!run.open()) {
    throw HistoryError("run #" + std::to_string(r.run) + " already ended ('" +
                       run.outcome + "')");
  }
  if (r.outcome.empty()) {
    throw HistoryError("run outcome must be non-empty");
  }
  run.outcome = std::move(r.outcome);
  // The flow is only needed to resume an open run; keep closed runs cheap.
  run.flow_text.clear();
  run.flow_text.shrink_to_fit();
}

SweepWindow sweep_window(const std::vector<RunRecord>& runs, std::size_t r,
                         std::size_t table_size) {
  const RunRecord& run = runs[r];
  std::size_t end = run.sealed()
                        ? std::min<std::size_t>(run.sweep_end, table_size)
                        : table_size;
  if (r + 1 < runs.size()) {
    end = std::min<std::size_t>(end, runs[r + 1].db_size_at_begin);
  }
  return SweepWindow{run.db_size_at_begin,
                     std::max<std::size_t>(run.db_size_at_begin, end)};
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
  // listener_ deliberately kept: the assignment swaps the image out from
  // under the store journaling this object (its in-place install), and
  // the store stays attached.
  return *this;
}

void HistoryDb::commit(Record record) {
  if (listener_ == nullptr) {
    apply(std::move(record));
    return;
  }
  apply(Record(record));
  listener_->on_mutation(std::span<const Record>(&record, 1));
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

  const InstanceId id = inst.id;
  instances_.push_back(std::move(inst));
  link_newest();
  if (listener_ != nullptr) {
    // One mutation = one journal entry: the (possibly new) blob plus the
    // instance, applied atomically on recovery.
    const Instance& added = instances_.back();
    std::array<Record, 2> records{BlobRecord{}, instance_record(added)};
    if (new_blob) {
      records[0] = BlobRecord{blobs_.key(added.blob), request.payload};
    }
    listener_->on_mutation(
        std::span<const Record>(records).subspan(new_blob ? 0 : 1));
  }
  return id;
}

void HistoryDb::link_newest() {
  const Instance& inst = instances_.back();
  used_by_.emplace_back();
  if (inst.derivation.tool.valid()) {
    used_by_[inst.derivation.tool.index()].push_back(inst.id);
  }
  for (const InstanceId in : inst.derivation.inputs) {
    // A tool doubling as an input would be indexed twice; dedupe.
    auto& vec = used_by_[in.index()];
    if (vec.empty() || vec.back() != inst.id) vec.push_back(inst.id);
  }
}

void HistoryDb::annotate(InstanceId id, std::string_view name,
                         std::string_view comment) {
  commit(AnnotateRecord{id, std::string(name), std::string(comment)});
}

void HistoryDb::quarantine(InstanceId id, std::string_view reason) {
  commit(QuarantineRecord{id, std::string(reason)});
}

// ---- run log ---------------------------------------------------------------

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
    if (!runs_[r].open()) continue;
    const SweepWindow window = sweep_window(runs_, r, instances_.size());
    for (std::size_t i = window.begin; i < window.end; ++i) {
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

std::uint64_t HistoryDb::begin_run(RunRecord run) {
  run.id = runs_.size();
  run.db_size_at_begin = static_cast<std::uint32_t>(instances_.size());
  // The progress fields are sliced off: a run starts with none.
  commit(RunBeginRecord(std::move(run)));
  return runs_.back().id;
}

void HistoryDb::run_task_started(std::uint64_t run, std::string_view key) {
  commit(TaskStartRecord{run, std::string(key)});
}

void HistoryDb::run_task_covered(std::uint64_t run,
                                 const std::vector<InstanceId>& produced) {
  commit(TaskCoverRecord{run, produced});
}

void HistoryDb::run_task_finished(std::uint64_t run, std::string_view key,
                                  std::string_view status) {
  commit(TaskFinishRecord{run, std::string(key), std::string(status)});
}

void HistoryDb::seal_run(std::uint64_t run) {
  if (run_of(runs_, run).sealed()) return;
  commit(RunSealRecord{run, static_cast<std::uint32_t>(instances_.size())});
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
  commit(RunEndRecord{run, std::string(outcome)});
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

InstanceRecord HistoryDb::instance_record(const Instance& inst) const {
  return InstanceRecord{inst.id,      schema_->entity_name(inst.type),
                        inst.name,    inst.user,
                        inst.created, inst.comment,
                        blobs_.key(inst.blob), inst.version,
                        inst.status,  inst.derivation};
}

std::string HistoryDb::save() const {
  std::string out;
  const std::vector<data::BlobKey>& keys = blobs_.keys();
  for (std::uint32_t r = 0; r < keys.size(); ++r) {
    encode(BlobRecord{keys[r], blobs_.get(data::BlobRef(r))}, out);
  }
  for (const Instance& inst : instances_) encode(instance_record(inst), out);
  // Run log: the same records the journal carries, so a snapshot/load
  // round trip reproduces the run state exactly (an open run stays
  // resumable across a checkpoint).
  for (const RunRecord& run : runs_) run.save_to(out);
  return out;
}

void HistoryDb::apply_saved_line(std::string_view line) {
  if (support::trim(line).empty()) return;
  apply(decode(line));
}

void HistoryDb::apply(Record&& record) {
  if (const auto* cover = std::get_if<TaskCoverRecord>(&record)) {
    for (const InstanceId id : cover->produced) check_id(id);
  }
  std::visit(
      [this](auto&& r) {
        using R = decltype(r);
        if constexpr (requires { fold(runs_, std::forward<R>(r)); }) {
          fold(runs_, std::forward<R>(r));
        } else {
          apply(std::forward<R>(r));
        }
      },
      std::move(record));
}

void HistoryDb::apply(BlobRecord&& r) { blobs_.restore(r.key, r.payload); }

void HistoryDb::apply(InstanceRecord&& r) {
  if (r.id.index() != instances_.size()) {
    throw HistoryError("history file: instance records out of order");
  }
  const std::optional<data::BlobRef> blob = blobs_.find(r.blob);
  if (!blob) {
    throw HistoryError("history file: instance references missing blob");
  }
  if (r.derivation.tool.valid()) check_id(r.derivation.tool);
  for (const InstanceId in : r.derivation.inputs) check_id(in);
  const EntityTypeId type = schema_->require(r.type);
  // Every check is done: build the instance in place.
  Instance& inst = instances_.emplace_back();
  inst.id = r.id;
  inst.type = type;
  inst.name = std::move(r.name);
  inst.user = std::move(r.user);
  inst.created = r.created;
  inst.comment = std::move(r.comment);
  inst.blob = *blob;
  inst.version = r.version;
  inst.status = r.status;
  inst.derivation = std::move(r.derivation);
  link_newest();
}

void HistoryDb::apply(AnnotateRecord&& r) {
  check_id(r.id);
  instances_[r.id.index()].name = std::move(r.name);
  instances_[r.id.index()].comment = std::move(r.comment);
}

void HistoryDb::apply(QuarantineRecord&& r) {
  check_id(r.id);
  Instance& inst = instances_[r.id.index()];
  if (!inst.ok()) {
    throw HistoryError("instance i" + std::to_string(r.id.value()) +
                       " is not an OK record; only OK instances can be "
                       "quarantined");
  }
  inst.status = InstanceStatus::kQuarantined;
  if (!inst.comment.empty()) inst.comment += ' ';
  inst.comment += "[quarantined: " + r.reason + "]";
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
