// The history record codec: the on-disk format pinned by literal lines,
// decode/encode round trips, the field-range refusals every reader now
// shares, the kind read that skips a line's fields, a seeded property
// test that any truncated or bit-flipped line either decodes or throws,
// and replay's in-place reading of `inst` lines held to `decode` plus
// `apply_record`: the same verdict on damaged lines, the same bytes on
// clean ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "data/blob_store.hpp"
#include "history/history_db.hpp"
#include "history/record_codec.hpp"
#include "property_seed.hpp"
#include "schema/standard_schemas.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::history {
namespace {

using data::InstanceId;
using support::HistoryError;

/// One line per kind, written by the format's writers as they stood before
/// the codec existed: escaped `|` (`\p`), `\` (`\\`) and newline (`\n`), an
/// empty payload, an import, an instance with a tool and two inputs, a
/// quarantined instance, a seed above INT64_MAX (written negative), and a
/// full-flow run (goal node -1).
const std::vector<std::string> kLiterals = {
    R"(blob|a9abb54ee8a693b0|bin:spice)",
    R"(blob|d3012c42376167ff|a\pb\\c\nd)",
    R"(blob|14650fb0739d0383|)",
    R"(inst|0|Simulator|spice|ada|1577836800000000||a9abb54ee8a693b0|1|0|import|-1|0)",
    R"(inst|1|EditedNetlist|low\ppass\\filter\nv2|ada|1577836800001000|first \p cut|d3012c42376167ff|1|0|import|-1|0)",
    R"(inst|3|Performance|perf|ada|1577836800003000||55d94d7160627aca|1|0|Simulator|0|2|1|circuit|2|stimuli)",
    R"(inst|3|Performance|perf|ada|1577836800003000|[quarantined: crash \p recovery]|55d94d7160627aca|1|3|Simulator|0|2|1|circuit|2|stimuli)",
    R"(annot|1|low\ppass|line1\nline2 \\ end)",
    R"(quar|3|crash \p recovery)",
    R"(runb|0|sim\pflow|Performance|2|ada|opts\p1|-81985529216486896|3|flow\pf\nnode\p0)",
    R"(runb|1|f||-1|bob||0|4|flow\pf)",
    R"(tstart|0|2:Performance)",
    R"(tcover|0|2|3|2)",
    R"(tfin|0|2:Performance|ok)",
    R"(runseal|0|4)",
    R"(rune|0|complete)",
};

/// The mutation stream and `save()` image of the session in
/// `write_literal_session`, as the same writers produced them.
const std::string kJournal = R"(blob|a9abb54ee8a693b0|bin:spice
inst|0|Simulator|spice|ada|1577836800000000||a9abb54ee8a693b0|1|0|import|-1|0
blob|d3012c42376167ff|a\pb\\c\nd
inst|1|EditedNetlist|low\ppass\\filter\nv2|ada|1577836800001000|first \p cut|d3012c42376167ff|1|0|import|-1|0
blob|14650fb0739d0383|
inst|2|Stimuli|waves|bob|1577836800002000||14650fb0739d0383|1|0|import|-1|0
runb|0|sim\pflow|Performance|2|ada|opts\p1|-81985529216486896|3|flow\pf\nnode\p0
tstart|0|2:Performance
blob|55d94d7160627aca|delay=3
inst|3|Performance|perf|ada|1577836800003000||55d94d7160627aca|1|0|Simulator|0|2|1|circuit|2|stimuli
tcover|0|2|3|2
tfin|0|2:Performance|ok
runseal|0|4
rune|0|complete
annot|1|low\ppass|line1\nline2 \\ end
quar|3|crash \p recovery
runb|1|f||-1|bob||0|4|flow\pf
)";

const std::string kImage = R"(blob|a9abb54ee8a693b0|bin:spice
blob|d3012c42376167ff|a\pb\\c\nd
blob|14650fb0739d0383|
blob|55d94d7160627aca|delay=3
inst|0|Simulator|spice|ada|1577836800000000||a9abb54ee8a693b0|1|0|import|-1|0
inst|1|EditedNetlist|low\ppass|ada|1577836800001000|line1\nline2 \\ end|d3012c42376167ff|1|0|import|-1|0
inst|2|Stimuli|waves|bob|1577836800002000||14650fb0739d0383|1|0|import|-1|0
inst|3|Performance|perf|ada|1577836800003000|[quarantined: crash \p recovery]|55d94d7160627aca|1|3|Simulator|0|2|1|circuit|2|stimuli
runb|0|sim\pflow|Performance|2|ada|opts\p1|-81985529216486896|3|
tstart|0|2:Performance
tcover|0|2|3|2
tfin|0|2:Performance|ok
runseal|0|4
rune|0|complete
runb|1|f||-1|bob||0|4|flow\pf
)";

/// `record`'s line, without its '\n'.
std::string line_of(const Record& record) {
  std::string line;
  encode(record, line);
  EXPECT_EQ(line.back(), '\n');
  line.pop_back();
  return line;
}

/// Records every mutation's lines in order.
class Capture : public MutationListener {
 public:
  void on_mutation(std::span<const Record> records) override {
    for (const Record& record : records) encode(record, text);
  }
  std::string text;
};

/// Every mutator once, with field values that exercise each escape.
void write_literal_session(HistoryDb& db, const schema::TaskSchema& s) {
  const InstanceId sim =
      db.import_instance(s.require("Simulator"), "spice", "bin:spice", "ada");
  const InstanceId net =
      db.import_instance(s.require("EditedNetlist"), "low|pass\\filter\nv2",
                         "a|b\\c\nd", "ada", "first | cut");
  const InstanceId st =
      db.import_instance(s.require("Stimuli"), "waves", "", "bob");
  RunRecord run;
  run.flow_name = "sim|flow";
  run.goal = "Performance";
  run.goal_node = 2;
  run.user = "ada";
  run.options = "opts|1";
  run.seed = 0xfedcba9876543210ULL;
  run.flow_text = "flow|f\nnode|0";
  const std::uint64_t r = db.begin_run(run);
  db.run_task_started(r, "2:Performance");
  RecordRequest req;
  req.type = s.require("Performance");
  req.name = "perf";
  req.user = "ada";
  req.payload = "delay=3";
  req.derivation.tool = sim;
  req.derivation.inputs = {net, st};
  req.derivation.input_roles = {"circuit", "stimuli"};
  req.derivation.task = "Simulator";
  const InstanceId perf = db.record(req);
  db.run_task_covered(r, {perf, st});
  db.run_task_finished(r, "2:Performance", "ok");
  db.seal_run(r);
  db.end_run(r, "complete");
  db.annotate(net, "low|pass", "line1\nline2 \\ end");
  db.quarantine(perf, "crash | recovery");
  RunRecord full;
  full.flow_name = "f";
  full.user = "bob";
  full.flow_text = "flow|f";
  db.begin_run(full);
}

TEST(RecordCodecTest, HistoryDbWritesTheLiteralFormat) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1577836800000000, 1000);
  HistoryDb db(schema, clock);
  Capture capture;
  db.attach_listener(&capture);
  write_literal_session(db, schema);
  EXPECT_EQ(capture.text, kJournal);
  EXPECT_EQ(db.save(), kImage);

  // Both texts replay to the same database.
  support::ManualClock clock2(0, 1);
  EXPECT_EQ(HistoryDb::load(schema, clock2, kJournal).save(), kImage);
  EXPECT_EQ(HistoryDb::load(schema, clock2, kImage).save(), kImage);
}

TEST(RecordCodecTest, EveryLiteralDecodesAndEncodesBack) {
  for (const std::string& line : kLiterals) {
    SCOPED_TRACE(line);
    const Record record = decode(line);
    EXPECT_EQ(line_of(record), line);
    std::string appended = "x\n";
    encode(record, appended);
    EXPECT_EQ(appended, "x\n" + line + "\n");
  }
}

TEST(RecordCodecTest, LiteralFieldsDecodeToTheirValues) {
  const auto blob = std::get<BlobRecord>(decode(kLiterals[1]));
  EXPECT_EQ(blob.key, "d3012c42376167ff");
  EXPECT_EQ(blob.payload, "a|b\\c\nd");
  EXPECT_EQ(blob.key, data::BlobStore::key_for(blob.payload));

  const auto imported = std::get<InstanceRecord>(decode(kLiterals[4]));
  EXPECT_EQ(imported.id, InstanceId(1));
  EXPECT_EQ(imported.type, "EditedNetlist");
  EXPECT_EQ(imported.name, "low|pass\\filter\nv2");
  EXPECT_EQ(imported.comment, "first | cut");
  EXPECT_EQ(imported.created.micros(), 1577836800001000);
  EXPECT_TRUE(imported.derivation.is_import());

  const auto derived = std::get<InstanceRecord>(decode(kLiterals[6]));
  EXPECT_EQ(derived.status, InstanceStatus::kQuarantined);
  EXPECT_EQ(derived.derivation.task, "Simulator");
  EXPECT_EQ(derived.derivation.tool, InstanceId(0));
  EXPECT_EQ(derived.derivation.inputs,
            (std::vector<InstanceId>{InstanceId(1), InstanceId(2)}));
  EXPECT_EQ(derived.derivation.input_roles,
            (std::vector<std::string>{"circuit", "stimuli"}));

  const auto begin = std::get<RunBeginRecord>(decode(kLiterals[9]));
  EXPECT_EQ(begin.flow_name, "sim|flow");
  EXPECT_EQ(begin.seed, 0xfedcba9876543210ULL);
  EXPECT_EQ(begin.db_size_at_begin, 3u);
  EXPECT_EQ(begin.flow_text, "flow|f\nnode|0");
  EXPECT_EQ(std::get<RunBeginRecord>(decode(kLiterals[10])).goal_node, -1);

  const auto cover = std::get<TaskCoverRecord>(decode(kLiterals[12]));
  EXPECT_EQ(cover.produced,
            (std::vector<InstanceId>{InstanceId(3), InstanceId(2)}));
  EXPECT_EQ(std::get<RunSealRecord>(decode(kLiterals[14])).sweep_end, 4u);
}

TEST(RecordCodecTest, BlobPersistenceRoundTripAndCorruption) {
  // Payloads with the field separator, a newline and nothing at all.
  std::string text;
  for (const std::string payload : {"a|b\nc", ""}) {
    encode(BlobRecord{data::BlobStore::key_for(payload), payload}, text);
  }
  EXPECT_EQ(text, "blob|" + data::BlobStore::key_for("a|b\nc") +
                      "|a\\pb\\nc\nblob|" + data::BlobStore::key_for("") +
                      "|\n");
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(0, 1);
  const HistoryDb back = HistoryDb::load(schema, clock, text);
  EXPECT_EQ(back.blobs().size(), 2u);
  EXPECT_EQ(back.save(), text);
  // Tampering with a payload breaks the content hash.
  std::string corrupt = text;
  corrupt.replace(corrupt.find("a\\pb"), 4, "a\\pX");
  EXPECT_THROW((void)HistoryDb::load(schema, clock, corrupt), HistoryError);
}

TEST(RecordCodecTest, OutOfRangeAndMalformedFieldsAreRefused) {
  const std::vector<std::string> refused = {
      // A negative derivation input, and an input id no instance can have.
      "inst|1|D|n|u|5||k|1|0|derive|0|1|-1|role",
      "inst|1|D|n|u|5||k|1|0|derive|0|1|4294967295|role",
      // A tool is an id or -1, nothing else.
      "inst|1|D|n|u|5||k|1|0|derive|-2|0",
      "inst|1|D|n|u|5||k|1|0|derive|4294967295|0",
      // Unknown status, too few inputs for the count, a surplus field.
      "inst|1|D|n|u|5||k|1|7|derive|-1|0",
      "inst|1|D|n|u|5||k|1|0|derive|-1|2|0|role",
      "inst|1|D|n|u|5||k|1|0|derive|-1|0|extra",
      "runseal|0|-3",
      "runseal|-1|3",
      "tcover|0|2|3",
      "tcover|0|1|-3",
      "annot|x|name|comment",
      "quar|-1|reason",
      "rune|0",
      "mystery|field",
  };
  for (const std::string& line : refused) {
    SCOPED_TRACE(line);
    EXPECT_THROW((void)decode(line), HistoryError);
  }
}

TEST(RecordCodecTest, KindOfReadsEveryKindAsDecodeDoes) {
  // Every kind appears among the literals; each line's kind, read without
  // its fields, is the alternative `decode` builds.
  std::vector<bool> seen(std::variant_size_v<Record>, false);
  for (const std::string& line : kLiterals) {
    SCOPED_TRACE(line);
    const auto kind = static_cast<std::size_t>(kind_of(line));
    EXPECT_EQ(kind, decode(line).index());
    seen.at(kind) = true;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
            static_cast<std::ptrdiff_t>(seen.size()));
}

TEST(RecordCodecTest, KindOfSkipsFieldsButRefusesATruncatedKind) {
  // Cut inside its fields, a line still has its kind, though it no longer
  // decodes; cut inside the kind, or to nothing, it has none.
  const std::string line = kLiterals[3];  // an `inst` line
  for (std::size_t cut = 4; cut <= line.size(); ++cut) {
    EXPECT_EQ(kind_of(line.substr(0, cut)), RecordKind::kInstance) << cut;
  }
  EXPECT_THROW((void)decode(line.substr(0, 12)), HistoryError);
  for (std::size_t cut = 0; cut < 4; ++cut) {
    EXPECT_THROW((void)kind_of(line.substr(0, cut)), HistoryError) << cut;
  }
}

TEST(RecordCodecTest, KindOfRefusesAnUnknownKind) {
  for (const std::string line : {"mystery|field", "Inst|0", "run|0", "blobs"}) {
    SCOPED_TRACE(line);
    try {
      (void)kind_of(line);
      ADD_FAILURE() << "expected an unknown-kind error";
    } catch (const HistoryError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown record"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RecordCodecTest, MutatedLinesDecodeOrThrow) {
  // Every truncation of every literal, and seeded bit flips: each mutant
  // either decodes — and then re-encodes to a line that decodes to the
  // same encoding — or throws a history or parse error.  Nothing else
  // (no crash, no other exception, no unbounded allocation).
  const std::uint64_t seed = testprop::base_seed(0x5eed'c0de'c0decULL);
  SCOPED_TRACE(testprop::seed_note(seed));
  std::mt19937_64 rng(seed);
  std::size_t decoded = 0;
  std::size_t refused = 0;
  const auto check = [&](const std::string& line) {
    try {
      const std::string once = line_of(decode(line));
      EXPECT_EQ(line_of(decode(once)), once) << line;
      ++decoded;
    } catch (const HistoryError&) {
      ++refused;
    } catch (const support::ParseError&) {
      ++refused;
    }
  };
  for (const std::string& line : kLiterals) {
    for (std::size_t cut = 1; cut < line.size(); ++cut) {
      check(line.substr(0, cut));
    }
    for (int flip = 0; flip < 500; ++flip) {
      std::string mutant = line;
      const std::size_t flips = 1 + rng() % 3;
      for (std::size_t f = 0; f < flips; ++f) {
        mutant[rng() % mutant.size()] ^= static_cast<char>(1u << (rng() % 8));
      }
      check(mutant);
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(refused, 0u);
}

/// Blobs for every key the `inst` lines below name, and instances 0-2 for
/// their tools and inputs.
const std::string kReplayBase = R"(blob|a9abb54ee8a693b0|bin:spice
blob|d3012c42376167ff|a\pb\\c\nd
blob|14650fb0739d0383|
blob|55d94d7160627aca|delay=3
inst|0|Simulator|spice|ada|1577836800000000||a9abb54ee8a693b0|1|0|import|-1|0
inst|1|EditedNetlist|net|ada|1577836800001000||d3012c42376167ff|1|0|import|-1|0
inst|2|Stimuli|waves|bob|1577836800002000||14650fb0739d0383|1|0|import|-1|0
)";

/// What applying one line to a fresh `kReplayBase` database comes to: the
/// exception's type and message, or the database it leaves.
template <class Apply>
std::string outcome(const schema::TaskSchema& schema, const Apply& apply) {
  support::ManualClock clock(0, 1);
  HistoryDb db = HistoryDb::load(schema, clock, kReplayBase);
  try {
    apply(db);
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return "applied:\n" + db.save();
}

std::string joined(const std::vector<std::string>& fields) {
  std::string line;
  for (const std::string& field : fields) {
    if (!line.empty()) line += '|';
    line += field;
  }
  return line;
}

TEST(RecordCodecTest, ReplayAndDecodeThenApplyAgreeOnEveryDamagedInstLine) {
  // Replay reads an `inst` line in place; `decode` plus `apply_record`
  // builds the owning record first.  Every damage to a line that fits
  // the database gets one verdict from both: the same exception and
  // message, or the same database.
  const schema::TaskSchema schema = schema::make_fig1_schema();
  const std::vector<std::string> fields = support::split(
      "inst|3|Performance|perf|ada|1577836800003000||55d94d7160627aca|1|0|"
      "Simulator|0|2|1|circuit|2|stimuli",
      '|');
  std::vector<std::string> lines{joined(fields), joined(fields) + "|x"};
  for (std::size_t cut = 1; cut < fields.size(); ++cut) {
    std::vector<std::string> cut_fields = fields;
    cut_fields.erase(cut_fields.begin() + static_cast<std::ptrdiff_t>(cut));
    lines.push_back(joined(cut_fields));
  }
  // id, created, version, status, tool, input count, both input ids
  for (const std::size_t at : {1, 5, 8, 9, 11, 12, 13, 15}) {
    for (const char* value : {"x", "-2", "4294967296", "4", "4294967295"}) {
      std::vector<std::string> bent = fields;
      bent[at] = value;
      lines.push_back(joined(bent));
    }
  }
  // Fields that decode but do not fit: an unknown entity and blob.
  for (const auto& [at, value] :
       {std::pair<std::size_t, const char*>{2, "Nowhere"},
        {7, "0000000000000000"}}) {
    std::vector<std::string> bent = fields;
    bent[at] = value;
    lines.push_back(joined(bent));
  }
  const auto agree = [&](const std::string& line) {
    SCOPED_TRACE(line);
    const std::string replayed = outcome(
        schema, [&](HistoryDb& db) { db.apply_saved_line(line); });
    const std::string decoded = outcome(
        schema, [&](HistoryDb& db) { db.apply_record(decode(line)); });
    EXPECT_EQ(replayed, decoded);
    return replayed.starts_with("applied");
  };
  std::size_t applied = 0;
  for (const std::string& line : lines) applied += agree(line) ? 1 : 0;
  // The clean line, each creation stamp and the two in-range versions
  // apply; every other line is refused.
  EXPECT_EQ(applied, 7u);

  // Seeded bit flips anywhere in the line, the kind included.
  const std::uint64_t seed = testprop::base_seed(0x5eed'1e57'a991ULL);
  SCOPED_TRACE(testprop::seed_note(seed));
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutant = lines.front();
    for (std::size_t f = 1 + rng() % 3; f > 0; --f) {
      mutant[rng() % mutant.size()] ^= static_cast<char>(1u << (rng() % 8));
    }
    (void)agree(mutant);
  }
}

TEST(RecordCodecTest, EscapedInstLinesReplayByteForByte) {
  // A `\` in any text field, or none, with 0-3 inputs: replayed in place,
  // every line comes back out of `save()` as it went in.
  const schema::TaskSchema schema = schema::make_fig1_schema();
  const std::vector<std::string> texts = {"plain", "a|b", "two\nlines",
                                          "back\\slash", "|\n\\"};
  std::string image = kReplayBase;
  std::uint32_t id = 3;
  for (std::uint32_t inputs = 0; inputs <= 3; ++inputs) {
    for (const std::string& text : texts) {
      InstanceRecord r;
      r.id = InstanceId(id++);
      r.type = "Performance";
      r.name = "name " + text;
      r.user = text + " user";
      r.created = support::Timestamp(1577836800004000 + id);
      r.comment = text;
      r.blob = "55d94d7160627aca";
      r.derivation.task = "task " + text;
      if (inputs > 0) r.derivation.tool = InstanceId(0);
      for (std::uint32_t i = 0; i < inputs; ++i) {
        r.derivation.inputs.push_back(InstanceId(i));
        r.derivation.input_roles.push_back(text + support::numbered(" r", i));
      }
      encode(r, image);
    }
  }
  for (const std::string_view escape : {"\\p", "\\n", "\\\\"}) {
    EXPECT_NE(image.find(escape), std::string::npos) << escape;
  }
  support::ManualClock clock(0, 1);
  const HistoryDb db = HistoryDb::load(schema, clock, image);
  EXPECT_EQ(db.size(), id);
  EXPECT_EQ(db.save(), image);
  EXPECT_EQ(db.instance(InstanceId(4)).name, "name a|b");
  EXPECT_EQ(db.instance(InstanceId(id - 1)).derivation.input_roles.get(),
            (std::vector<std::string>{"|\n\\ r0", "|\n\\ r1",
                                      "|\n\\ r2"}));
}

}  // namespace
}  // namespace herc::history
