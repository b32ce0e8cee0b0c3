// A history whose instances repeat their users, task labels and role
// lists, and a copy of every field of its instances that owns its texts:
// what the compact instance table's tests build and read back after the
// table, and its text pool, changed hands.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "history/history_db.hpp"
#include "support/text.hpp"

namespace herc::testpool {

using data::InstanceId;
using history::HistoryDb;
using history::InstanceStatus;
using history::RecordRequest;

/// Imports, edits from two designers under one task label and one role
/// list, a composite, a failure record, an annotation and a quarantine.
inline void fill(HistoryDb& db) {
  const schema::TaskSchema& schema = db.schema();
  const InstanceId editor =
      db.import_instance(schema.require("CircuitEditor"), "ed", "", "ada");
  const InstanceId sim =
      db.import_instance(schema.require("Simulator"), "sim", "", "ada");
  const InstanceId st = db.import_instance(schema.require("Stimuli"), "st",
                                           "w", "bob", "a kept wave");
  const InstanceId first = db.import_instance(
      schema.require("EditedNetlist"), "n0", "v0", "bob");
  InstanceId last = first;
  for (int v = 1; v <= 6; ++v) {
    RecordRequest edit;
    edit.type = schema.require("EditedNetlist");
    edit.name = support::numbered("n", v);
    edit.user = v % 2 == 0 ? "ada" : "bob";
    edit.payload = support::numbered("v", v);
    edit.derivation.tool = editor;
    edit.derivation.inputs = {last};
    edit.derivation.input_roles = {"seed"};
    edit.derivation.task = "CircuitEditor";
    last = db.record(edit);
  }
  RecordRequest compose;
  compose.type = schema.require("Circuit");
  compose.name = "c";
  compose.user = "ada";
  compose.derivation.inputs = {last, st};
  compose.derivation.input_roles = {"", ""};
  compose.derivation.task = "compose";
  const InstanceId circuit = db.record(compose);
  RecordRequest failed;
  failed.type = schema.require("Performance");
  failed.name = "p";
  failed.user = "bob";
  failed.comment = "simulator crashed";
  failed.status = InstanceStatus::kFailed;
  failed.derivation.tool = sim;
  failed.derivation.inputs = {circuit, st};
  failed.derivation.input_roles = {"circuit", "stimuli"};
  failed.derivation.task = "Simulator";
  db.record(failed);
  RecordRequest ran = failed;
  ran.comment.clear();
  ran.status = InstanceStatus::kOk;
  ran.payload = "perf";
  const InstanceId perf = db.record(ran);
  db.annotate(first, "n0 renamed", "the first netlist");
  db.quarantine(perf, "crash sweep");
}

/// One instance's fields, each text copied out of its pool.
struct Fields {
  std::string type;
  std::string name;
  std::string user;
  std::int64_t created = 0;
  std::string comment;
  std::string payload;
  std::uint32_t version = 0;
  InstanceStatus status = InstanceStatus::kOk;
  InstanceId tool;
  std::vector<InstanceId> inputs;
  std::vector<std::string> roles;
  std::string task;

  bool operator==(const Fields&) const = default;
};

inline std::vector<Fields> fields_of(const HistoryDb& db) {
  std::vector<Fields> out;
  for (const InstanceId id : db.all()) {
    const history::Instance& inst = db.instance(id);
    const history::PooledDerivation& d = inst.derivation;
    out.push_back(Fields{db.schema().entity_name(inst.type),
                         std::string(inst.name.get()), inst.user,
                         inst.created.micros(),
                         std::string(inst.comment.get()), db.payload(id),
                         inst.version, inst.status, d.tool,
                         std::vector<InstanceId>(d.inputs.begin(),
                                                 d.inputs.end()),
                         d.input_roles, d.task});
  }
  return out;
}

}  // namespace herc::testpool
