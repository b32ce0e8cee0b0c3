// The history record codec: the on-disk format pinned by literal lines,
// decode/encode round trips, the field-range refusals every reader now
// shares, and a seeded property test that any truncated or bit-flipped
// line either decodes or throws.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "data/blob_store.hpp"
#include "history/history_db.hpp"
#include "history/record_codec.hpp"
#include "property_seed.hpp"
#include "schema/standard_schemas.hpp"
#include "support/error.hpp"

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
  void on_mutation(std::string_view lines) override { text += lines; }
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

}  // namespace
}  // namespace herc::history
