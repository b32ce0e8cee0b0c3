#include "history/record_codec.hpp"

#include "support/error.hpp"
#include "support/record.hpp"

namespace herc::history {

using data::InstanceId;
using support::HistoryError;
using support::RecordReader;
using support::RecordWriter;

namespace {

[[noreturn]] void fail(std::string_view kind, const std::string& what) {
  throw HistoryError("record '" + std::string(kind) + "': " + what);
}

InstanceId next_id(RecordReader& rec) {
  const std::uint32_t value = rec.next_uint32();
  if (value == InstanceId::kInvalid) {
    fail(rec.kind(), "instance id out of range");
  }
  return InstanceId(value);
}

/// A derivation tool: an instance id, or -1 for none.
InstanceId next_tool(RecordReader& rec) {
  const std::int64_t value = rec.next_int64();
  if (value == -1) return InstanceId();
  if (value < 0 || value >= InstanceId::kInvalid) {
    fail(rec.kind(), "tool id out of range");
  }
  return InstanceId(static_cast<std::uint32_t>(value));
}

/// Run ids are unsigned but written as signed 64-bit numbers.
std::uint64_t next_run(RecordReader& rec) {
  const std::int64_t value = rec.next_int64();
  if (value < 0) fail(rec.kind(), "run id out of range");
  return static_cast<std::uint64_t>(value);
}

std::int64_t run_field(std::uint64_t run) {
  return static_cast<std::int64_t>(run);
}

/// Each kind's spelling, in `RecordKind` order.
constexpr std::string_view kKinds[std::variant_size_v<Record>] = {
    "blob",   "inst",   "annot", "quar",    "runb",
    "tstart", "tcover", "tfin",  "runseal", "rune"};

/// Decodes `rec`'s fields into `record`, built in place.
void decode_fields(RecordReader& rec, Record& record) {
  const RecordKind kind = kind_of(rec.kind());
  if (kind == RecordKind::kBlob) {
    auto& r = record.emplace<BlobRecord>();
    r.key = rec.next_string();
    r.payload = rec.next_string();
    return;
  }
  if (kind == RecordKind::kInstance) {
    auto& r = record.emplace<InstanceRecord>();
    r.id = next_id(rec);
    r.type = rec.next_string();
    r.name = rec.next_string();
    r.user = rec.next_string();
    r.created = support::Timestamp(rec.next_int64());
    r.comment = rec.next_string();
    r.blob = rec.next_string();
    r.version = rec.next_uint32();
    const std::uint32_t status = rec.next_uint32();
    if (status > static_cast<std::uint32_t>(InstanceStatus::kQuarantined)) {
      fail(rec.kind(), "unknown instance status " + std::to_string(status));
    }
    r.status = static_cast<InstanceStatus>(status);
    r.derivation.task = rec.next_string();
    r.derivation.tool = next_tool(rec);
    // No reserve: the count is untrusted until its fields are read.
    const std::uint32_t inputs = rec.next_uint32();
    for (std::uint32_t i = 0; i < inputs; ++i) {
      r.derivation.inputs.push_back(next_id(rec));
      r.derivation.input_roles.push_back(rec.next_string());
    }
    return;
  }
  if (kind == RecordKind::kAnnotate) {
    auto& r = record.emplace<AnnotateRecord>();
    r.id = next_id(rec);
    r.name = rec.next_string();
    r.comment = rec.next_string();
    return;
  }
  if (kind == RecordKind::kQuarantine) {
    auto& r = record.emplace<QuarantineRecord>();
    r.id = next_id(rec);
    r.reason = rec.next_string();
    return;
  }
  if (kind == RecordKind::kRunBegin) {
    auto& r = record.emplace<RunBeginRecord>();
    r.id = next_run(rec);
    r.flow_name = rec.next_string();
    r.goal = rec.next_string();
    r.goal_node = rec.next_int64();
    r.user = rec.next_string();
    r.options = rec.next_string();
    // Written as the signed number with the same bits.
    r.seed = static_cast<std::uint64_t>(rec.next_int64());
    r.db_size_at_begin = rec.next_uint32();
    r.flow_text = rec.next_string();
    return;
  }
  if (kind == RecordKind::kTaskStart) {
    auto& r = record.emplace<TaskStartRecord>();
    r.run = next_run(rec);
    r.key = rec.next_string();
    return;
  }
  if (kind == RecordKind::kTaskCover) {
    auto& r = record.emplace<TaskCoverRecord>();
    r.run = next_run(rec);
    const std::uint32_t count = rec.next_uint32();
    for (std::uint32_t i = 0; i < count; ++i) {
      r.produced.push_back(next_id(rec));
    }
    return;
  }
  if (kind == RecordKind::kTaskFinish) {
    auto& r = record.emplace<TaskFinishRecord>();
    r.run = next_run(rec);
    r.key = rec.next_string();
    r.status = rec.next_string();
    return;
  }
  if (kind == RecordKind::kRunSeal) {
    auto& r = record.emplace<RunSealRecord>();
    r.run = next_run(rec);
    r.sweep_end = rec.next_uint32();
    return;
  }
  if (kind == RecordKind::kRunEnd) {
    auto& r = record.emplace<RunEndRecord>();
    r.run = next_run(rec);
    r.outcome = rec.next_string();
  }
}

struct Encoder {
  std::string operator()(const BlobRecord& r) const {
    return RecordWriter("blob").field(r.key).field(r.payload).str();
  }
  std::string operator()(const InstanceRecord& r) const {
    const Derivation& d = r.derivation;
    if (d.inputs.size() != d.input_roles.size()) {
      fail("inst", "derivation inputs and roles differ in length");
    }
    RecordWriter w("inst");
    w.field(r.id.value());
    w.field(r.type);
    w.field(r.name);
    w.field(r.user);
    w.field(r.created.micros());
    w.field(r.comment);
    w.field(r.blob);
    w.field(r.version);
    w.field(static_cast<std::uint32_t>(r.status));
    w.field(d.task);
    w.field(d.tool.valid() ? static_cast<std::int64_t>(d.tool.value())
                           : std::int64_t{-1});
    w.field(static_cast<std::uint32_t>(d.inputs.size()));
    for (std::size_t i = 0; i < d.inputs.size(); ++i) {
      w.field(d.inputs[i].value());
      w.field(d.input_roles[i]);
    }
    return w.str();
  }
  std::string operator()(const AnnotateRecord& r) const {
    return RecordWriter("annot")
        .field(r.id.value())
        .field(r.name)
        .field(r.comment)
        .str();
  }
  std::string operator()(const QuarantineRecord& r) const {
    return RecordWriter("quar").field(r.id.value()).field(r.reason).str();
  }
  std::string operator()(const RunBeginRecord& r) const {
    RecordWriter w("runb");
    w.field(run_field(r.id));
    w.field(r.flow_name);
    w.field(r.goal);
    w.field(r.goal_node);
    w.field(r.user);
    w.field(r.options);
    w.field(static_cast<std::int64_t>(r.seed));
    w.field(r.db_size_at_begin);
    w.field(r.flow_text);
    return w.str();
  }
  std::string operator()(const TaskStartRecord& r) const {
    return RecordWriter("tstart").field(run_field(r.run)).field(r.key).str();
  }
  std::string operator()(const TaskCoverRecord& r) const {
    RecordWriter w("tcover");
    w.field(run_field(r.run));
    w.field(static_cast<std::uint32_t>(r.produced.size()));
    for (const InstanceId id : r.produced) w.field(id.value());
    return w.str();
  }
  std::string operator()(const TaskFinishRecord& r) const {
    return RecordWriter("tfin")
        .field(run_field(r.run))
        .field(r.key)
        .field(r.status)
        .str();
  }
  std::string operator()(const RunSealRecord& r) const {
    return RecordWriter("runseal")
        .field(run_field(r.run))
        .field(r.sweep_end)
        .str();
  }
  std::string operator()(const RunEndRecord& r) const {
    return RecordWriter("rune").field(run_field(r.run)).field(r.outcome).str();
  }
};

}  // namespace

void encode(const Record& record, std::string& out) {
  out += std::visit(Encoder{}, record);
  out += '\n';
}

RecordKind kind_of(std::string_view line) {
  // An unescaped '|' ends the kind, as `RecordReader` reads it.
  const std::string_view kind = line.substr(0, line.find('|'));
  for (std::size_t k = 0; k < std::size(kKinds); ++k) {
    if (kind == kKinds[k]) return static_cast<RecordKind>(k);
  }
  throw HistoryError("history file: unknown record '" + std::string(kind) +
                     "'");
}

Record decode(std::string_view line) {
  // Declared outside the try block, so the record is built in place in
  // the caller's object rather than moved there.
  Record record;
  try {
    RecordReader rec(line);
    decode_fields(rec, record);
    if (!rec.exhausted()) fail(rec.kind(), "surplus fields");
  } catch (const support::ParseError& e) {
    // A malformed field is a malformed history record.
    throw HistoryError(e.what());
  }
  return record;
}

}  // namespace herc::history
