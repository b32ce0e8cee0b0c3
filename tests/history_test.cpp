// Design-history database semantics (§3.3, §4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "history/history_db.hpp"
#include "pooled_texts.hpp"
#include "property_seed.hpp"
#include "schema/standard_schemas.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::history {
namespace {

using data::InstanceId;
using support::HistoryError;

class HistoryTest : public ::testing::Test {
 protected:
  HistoryTest()
      : schema_(schema::make_fig1_schema()),
        clock_(100, 10),
        db_(schema_, clock_) {}

  /// Shorthand: record an instance of `type` derived from tool+inputs.
  InstanceId derive(const char* type, InstanceId tool,
                    std::vector<InstanceId> inputs,
                    const char* payload = "x") {
    RecordRequest request;
    request.type = schema_.require(type);
    request.name = std::string(type);
    request.user = "t";
    request.payload = payload;
    request.derivation.tool = tool;
    request.derivation.inputs = std::move(inputs);
    request.derivation.input_roles.assign(request.derivation.inputs.size(),
                                          "");
    request.derivation.task = "test";
    return db_.record(request);
  }

  schema::TaskSchema schema_;
  support::ManualClock clock_;
  HistoryDb db_;
};

TEST_F(HistoryTest, ImportAndLookup) {
  const InstanceId id = db_.import_instance(
      schema_.require("Stimuli"), "step", "wave...", "sutton", "a comment");
  EXPECT_EQ(db_.size(), 1u);
  const Instance& inst = db_.instance(id);
  EXPECT_EQ(inst.name, "step");
  EXPECT_EQ(inst.user, "sutton");
  EXPECT_EQ(inst.comment, "a comment");
  EXPECT_EQ(inst.version, 1u);
  EXPECT_TRUE(inst.derivation.is_import());
  EXPECT_EQ(db_.payload(id), "wave...");
  // Timestamps strictly increase.
  const InstanceId id2 =
      db_.import_instance(schema_.require("Stimuli"), "s2", "y", "u");
  EXPECT_LT(db_.instance(id).created, db_.instance(id2).created);
}

TEST_F(HistoryTest, AbstractTypesCannotBeInstantiated) {
  EXPECT_THROW(
      db_.import_instance(schema_.require("Netlist"), "n", "x", "u"),
      HistoryError);
}

TEST_F(HistoryTest, DerivationValidation) {
  RecordRequest bad;
  bad.type = schema_.require("Performance");
  bad.derivation.inputs = {InstanceId(42)};  // unknown instance
  bad.derivation.input_roles = {""};
  EXPECT_THROW(db_.record(bad), HistoryError);
  RecordRequest mismatched;
  mismatched.type = schema_.require("Performance");
  mismatched.derivation.inputs = {};
  mismatched.derivation.input_roles = {"oops"};
  EXPECT_THROW(db_.record(mismatched), HistoryError);
}

TEST_F(HistoryTest, InstancesOfRespectsSubtypes) {
  const InstanceId edited = db_.import_instance(
      schema_.require("EditedNetlist"), "e", "x", "u");
  const InstanceId extracted = db_.import_instance(
      schema_.require("ExtractedNetlist"), "x", "y", "u");
  const auto all = db_.instances_of(schema_.require("Netlist"));
  EXPECT_EQ(all.size(), 2u);
  const auto only_edited =
      db_.instances_of(schema_.require("EditedNetlist"));
  ASSERT_EQ(only_edited.size(), 1u);
  EXPECT_EQ(only_edited[0], edited);
  const auto exact = db_.instances_of(schema_.require("Netlist"),
                                      /*include_subtypes=*/false);
  EXPECT_TRUE(exact.empty());
  (void)extracted;
}

TEST_F(HistoryTest, ChainingQueries) {
  const InstanceId editor =
      db_.import_instance(schema_.require("CircuitEditor"), "ed", "", "u");
  const InstanceId n1 = db_.import_instance(
      schema_.require("EditedNetlist"), "n1", "a", "u");
  const InstanceId n2 = derive("EditedNetlist", editor, {n1}, "b");
  const InstanceId placer =
      db_.import_instance(schema_.require("Placer"), "pl", "", "u");
  const InstanceId layout = derive("PlacedLayout", placer, {n2}, "c");

  // One-step backward (Fig. 10): tool first, then inputs.
  EXPECT_EQ(db_.derived_from(layout),
            (std::vector<InstanceId>{placer, n2}));
  // Transitive backward reaches the original netlist and the editor.
  const auto closure = db_.derivation_closure(layout);
  EXPECT_NE(std::find(closure.begin(), closure.end(), n1), closure.end());
  EXPECT_NE(std::find(closure.begin(), closure.end(), editor),
            closure.end());
  // Forward: n1 -> n2 -> layout.
  EXPECT_EQ(db_.used_by(n1), std::vector<InstanceId>{n2});
  const auto deps = db_.dependent_closure(n1);
  EXPECT_EQ(deps, (std::vector<InstanceId>{n2, layout}));
  // The tool's forward index sees its products.
  EXPECT_EQ(db_.used_by(placer), std::vector<InstanceId>{layout});
}

TEST_F(HistoryTest, TheForwardIndexListsOnlyUsedInstancesAndMovesWithThem) {
  // Only an instance something was derived from holds a list; the others
  // read as one empty list.  The lists move with the table, as a store's
  // install moves a new image into its database.
  support::ManualClock clock2(0, 1);
  auto source = std::make_unique<HistoryDb>(schema_, clock2);
  const InstanceId sim =
      source->import_instance(schema_.require("Simulator"), "sim", "", "u");
  const InstanceId net =
      source->import_instance(schema_.require("EditedNetlist"), "n", "a", "u");
  const InstanceId wave =
      source->import_instance(schema_.require("Stimuli"), "w", "b", "u");
  const InstanceId lone =
      source->import_instance(schema_.require("Stimuli"), "l", "c", "u");
  RecordRequest request;
  request.type = schema_.require("Performance");
  request.user = "u";
  request.derivation.tool = sim;
  request.derivation.inputs = {net, wave};
  request.derivation.input_roles = {"circuit", "stimuli"};
  const InstanceId p1 = source->record(request);
  // An input named twice is listed once.
  request.derivation.inputs = {net, net};
  const InstanceId p2 = source->record(request);
  EXPECT_TRUE(source->used_by(lone).empty());
  EXPECT_TRUE(source->used_by(p1).empty());
  EXPECT_EQ(&source->used_by(lone), &source->used_by(p2));

  (void)db_.import_instance(schema_.require("Stimuli"), "gone", "g", "u");
  db_ = std::move(*source);
  source.reset();
  EXPECT_EQ(db_.used_by(sim), (std::vector<InstanceId>{p1, p2}));
  EXPECT_EQ(db_.used_by(net), (std::vector<InstanceId>{p1, p2}));
  EXPECT_EQ(db_.used_by(wave), std::vector<InstanceId>{p1});
  EXPECT_TRUE(db_.used_by(lone).empty());
  EXPECT_EQ(db_.dependent_closure(wave), std::vector<InstanceId>{p1});
  // A first dependent gives an instance its list.
  const InstanceId edit = derive("Stimuli", InstanceId(), {lone});
  EXPECT_EQ(db_.used_by(lone), std::vector<InstanceId>{edit});
  EXPECT_EQ(db_.used_by(wave), std::vector<InstanceId>{p1});
}

TEST_F(HistoryTest, VersionNumberingFollowsEditLineage) {
  const InstanceId editor =
      db_.import_instance(schema_.require("CircuitEditor"), "ed", "", "u");
  const InstanceId n1 = db_.import_instance(
      schema_.require("EditedNetlist"), "n1", "a", "u");
  const InstanceId n2 = derive("EditedNetlist", editor, {n1}, "b");
  const InstanceId n3 = derive("EditedNetlist", editor, {n2}, "c");
  EXPECT_EQ(db_.instance(n1).version, 1u);
  EXPECT_EQ(db_.instance(n2).version, 2u);
  EXPECT_EQ(db_.instance(n3).version, 3u);
  EXPECT_EQ(db_.edit_parent(n2), n1);
  EXPECT_EQ(db_.edit_children(n1), std::vector<InstanceId>{n2});
  EXPECT_TRUE(db_.superseded(n1));
  EXPECT_FALSE(db_.superseded(n3));
  // Cross-subtype edits continue the lineage (same root entity type).
  const InstanceId extractor =
      db_.import_instance(schema_.require("Extractor"), "ex", "", "u");
  const InstanceId placer =
      db_.import_instance(schema_.require("Placer"), "pl", "", "u");
  const InstanceId layout = derive("PlacedLayout", placer, {n3}, "d");
  const InstanceId extracted =
      derive("ExtractedNetlist", extractor, {layout}, "e");
  // Extraction is NOT an edit of n3: the netlist arrives via a layout.
  EXPECT_EQ(db_.instance(extracted).version, 1u);
  EXPECT_FALSE(db_.edit_parent(extracted).has_value());
}

TEST_F(HistoryTest, StalenessSemantics) {
  const InstanceId editor =
      db_.import_instance(schema_.require("CircuitEditor"), "ed", "", "u");
  const InstanceId sim =
      db_.import_instance(schema_.require("Simulator"), "s", "", "u");
  const InstanceId st =
      db_.import_instance(schema_.require("Stimuli"), "st", "w", "u");
  const InstanceId models = db_.import_instance(
      schema_.require("DeviceModels"), "m", "mm", "u");
  const InstanceId n1 = db_.import_instance(
      schema_.require("EditedNetlist"), "n1", "a", "u");

  RecordRequest compose;
  compose.type = schema_.require("Circuit");
  compose.payload = "cc";
  compose.derivation.inputs = {models, n1};
  compose.derivation.input_roles = {"", ""};
  compose.derivation.task = "compose";
  const InstanceId circuit = db_.record(compose);
  const InstanceId perf = derive("Performance", sim, {circuit, st}, "p");

  EXPECT_FALSE(db_.is_stale(perf));
  // A new netlist version appears.
  const InstanceId n2 = derive("EditedNetlist", editor, {n1}, "b");
  EXPECT_TRUE(db_.is_stale(perf));
  EXPECT_EQ(db_.stale_inputs(perf), std::vector<InstanceId>{n1});
  // The new version itself is fresh: its parent's successor is itself.
  EXPECT_FALSE(db_.is_stale(n2));
  // Imports are never stale.
  EXPECT_FALSE(db_.is_stale(n1));
}

TEST_F(HistoryTest, FindExistingMatchesExactDerivation) {
  const InstanceId sim =
      db_.import_instance(schema_.require("Simulator"), "s", "", "u");
  const InstanceId st =
      db_.import_instance(schema_.require("Stimuli"), "st", "w", "u");
  const InstanceId st2 =
      db_.import_instance(schema_.require("Stimuli"), "st2", "w2", "u");
  const InstanceId models = db_.import_instance(
      schema_.require("DeviceModels"), "m", "mm", "u");
  RecordRequest compose;
  compose.type = schema_.require("Circuit");
  compose.payload = "cc";
  compose.derivation.inputs = {models};
  compose.derivation.input_roles = {""};
  const InstanceId circuit = db_.record(compose);
  const InstanceId perf = derive("Performance", sim, {circuit, st}, "p");

  // Exact match, order-insensitive.
  EXPECT_EQ(db_.find_existing(schema_.require("Performance"), sim,
                              {st, circuit}),
            perf);
  // Different input set, tool, or type: no match.
  EXPECT_FALSE(db_.find_existing(schema_.require("Performance"), sim,
                                 {circuit, st2}));
  EXPECT_FALSE(db_.find_existing(schema_.require("Statistics"), sim,
                                 {circuit, st}));
  EXPECT_FALSE(db_.find_existing(schema_.require("Performance"), st,
                                 {circuit, st}));
}

TEST_F(HistoryTest, AnnotationUpdates) {
  const InstanceId id =
      db_.import_instance(schema_.require("Stimuli"), "old", "w", "u");
  db_.annotate(id, "Low pass filter", "renamed by the designer");
  EXPECT_EQ(db_.instance(id).name, "Low pass filter");
  EXPECT_EQ(db_.instance(id).comment, "renamed by the designer");
}

TEST_F(HistoryTest, BlobSharingAcrossInstances) {
  const InstanceId a =
      db_.import_instance(schema_.require("Stimuli"), "a", "same", "u");
  const InstanceId b =
      db_.import_instance(schema_.require("Stimuli"), "b", "same", "u");
  EXPECT_EQ(db_.instance(a).blob, db_.instance(b).blob);
  EXPECT_EQ(db_.blobs().size(), 1u);
  EXPECT_LT(db_.blobs().bytes_stored(), db_.blobs().bytes_logical());
}

TEST_F(HistoryTest, PersistenceRoundTrip) {
  const InstanceId editor =
      db_.import_instance(schema_.require("CircuitEditor"), "ed", "", "u");
  const InstanceId n1 = db_.import_instance(
      schema_.require("EditedNetlist"), "n1", "a", "u");
  const InstanceId n2 = derive("EditedNetlist", editor, {n1}, "b");
  const std::string text = db_.save();

  support::ManualClock clock2(0, 1);
  const HistoryDb back = HistoryDb::load(schema_, clock2, text);
  EXPECT_EQ(back.size(), db_.size());
  EXPECT_EQ(back.instance(n2).version, 2u);
  EXPECT_EQ(back.instance(n2).derivation.tool, editor);
  EXPECT_EQ(back.payload(n2), "b");
  EXPECT_EQ(back.instance(n1).created, db_.instance(n1).created);
  EXPECT_EQ(back.used_by(n1), std::vector<InstanceId>{n2});
  // Round trip is exact.
  EXPECT_EQ(back.save(), text);

  // So it is with texts that repeat (pooled users, task labels and role
  // lists) and texts that are empty (users, comments, role lists).
  testpool::fill(db_);
  (void)db_.import_instance(schema_.require("Stimuli"), "", "", "");
  const std::string pooled = db_.save();
  support::ManualClock clock3(0, 1);
  const HistoryDb again = HistoryDb::load(schema_, clock3, pooled);
  EXPECT_EQ(again.save(), pooled);
  EXPECT_EQ(testpool::fields_of(again), testpool::fields_of(db_));
}

TEST_F(HistoryTest, AnInstanceTakesAtMost80Bytes) {
  // A history holds every instance in memory, so this bounds the history
  // one server can hold: repeated texts are 8-byte pool handles, and the
  // name, comment and inputs are 8-byte handles to runs of the arena.
  static_assert(std::is_trivially_destructible_v<Instance>);
  EXPECT_LE(sizeof(Instance), 80u);
}

/// Keeps each mutation's records as the saved lines its journal frame
/// would hold.
struct LineRecorder : MutationListener {
  std::vector<std::string> lines;
  void on_mutation(std::span<const Record> records) override {
    for (const Record& record : records) {
      std::string line;
      encode(record, line);
      line.pop_back();  // the '\n'
      lines.push_back(std::move(line));
    }
  }
};

/// A name, comment or reason of 0 bytes up to more than one arena block,
/// holding bytes the record format escapes and bytes above 0x7f.
std::string random_text(std::mt19937_64& rng) {
  static constexpr char kBytes[] = {'a', 'Z', '0',    ' ',    '|',
                                    '\\', '\n', '\x7f', '\x80', '\xff'};
  const std::size_t sizes[] = {0, 0, 1, 3, 12, 200,
                               TextPool::kArenaBlockBytes / 8 + 1};
  std::size_t size = sizes[rng() % std::size(sizes)];
  if (rng() % 40 == 0) size = TextPool::kArenaBlockBytes + rng() % 9;
  std::string text;
  for (std::size_t i = 0; i < size; ++i) {
    text += kBytes[rng() % std::size(kBytes)];
  }
  return text;
}

TEST_F(HistoryTest, ArenaRunsReadBackAfterSaveReplayAndMove) {
  const std::uint64_t seed = testprop::base_seed(29);
  SCOPED_TRACE(testprop::seed_note(seed));
  std::mt19937_64 rng(seed);
  support::ManualClock clock2(0, 1);
  auto source = std::make_unique<HistoryDb>(schema_, clock2);
  LineRecorder journal;
  source->attach_listener(&journal);
  const char* const users[] = {"ada", "bob", ""};
  for (int step = 0; step < 400; ++step) {
    const std::size_t op = rng() % 10;
    if (op < 7 || source->size() == 0) {
      RecordRequest r;
      r.type = schema_.require(op % 2 == 0 ? "Stimuli" : "EditedNetlist");
      r.name = random_text(rng);
      r.user = users[rng() % std::size(users)];
      r.comment = random_text(rng);
      r.payload = support::numbered("p", rng() % 50);
      if (op == 6) r.status = InstanceStatus::kFailed;
      const std::size_t inputs = source->size() == 0 ? 0 : rng() % 6;
      for (std::size_t i = 0; i < inputs; ++i) {
        r.derivation.inputs.push_back(
            InstanceId(static_cast<std::uint32_t>(rng() % source->size())));
        r.derivation.input_roles.push_back(support::numbered("r", i));
      }
      if (source->size() > 0 && rng() % 2 == 0) {
        r.derivation.tool =
            InstanceId(static_cast<std::uint32_t>(rng() % source->size()));
      }
      r.derivation.task = inputs == 0 ? "import" : "Simulator";
      (void)source->record(r);
    } else {
      const InstanceId id(static_cast<std::uint32_t>(rng() % source->size()));
      if (op < 9) {
        source->annotate(id, random_text(rng), random_text(rng));
      } else if (source->instance(id).ok()) {
        source->quarantine(id, random_text(rng));
      }
    }
  }
  const std::vector<testpool::Fields> fields = testpool::fields_of(*source);
  const std::string saved = source->save();

  support::ManualClock clock3(0, 1);
  const HistoryDb loaded = HistoryDb::load(schema_, clock3, saved);
  EXPECT_EQ(testpool::fields_of(loaded), fields);
  EXPECT_EQ(loaded.save(), saved);

  support::ManualClock clock4(0, 1);
  HistoryDb replayed(schema_, clock4);
  for (const std::string& line : journal.lines) replayed.apply_saved_line(line);
  EXPECT_EQ(testpool::fields_of(replayed), fields);

  source->attach_listener(nullptr);
  db_ = std::move(*source);
  source.reset();
  EXPECT_EQ(testpool::fields_of(db_), fields);
  EXPECT_EQ(db_.save(), saved);
}

TEST_F(HistoryTest, InstancesWithTheSameTextShareOnePoolEntry) {
  testpool::fill(db_);
  const Instance& editor = db_.instance(InstanceId(0));  // by ada
  const Instance& sim = db_.instance(InstanceId(1));     // by ada
  const Instance& stimuli = db_.instance(InstanceId(2));  // by bob
  EXPECT_EQ(editor.user, "ada");
  EXPECT_EQ(&editor.user.get(), &sim.user.get());
  EXPECT_EQ(&editor.derivation.task.get(), &sim.derivation.task.get());
  EXPECT_NE(&editor.user.get(), &stimuli.user.get());
  // Two edits under one task label and one role list.
  const Instance& first_edit = db_.instance(InstanceId(4));
  const Instance& last_edit = db_.instance(InstanceId(9));
  EXPECT_EQ(first_edit.derivation.task, "CircuitEditor");
  EXPECT_EQ(first_edit.derivation.input_roles,
            std::vector<std::string>{"seed"});
  EXPECT_EQ(&first_edit.derivation.task.get(),
            &last_edit.derivation.task.get());
  EXPECT_EQ(&first_edit.derivation.input_roles.get(),
            &last_edit.derivation.input_roles.get());
  // Empty texts read as empty.
  EXPECT_TRUE(editor.comment.empty());
  EXPECT_TRUE(editor.derivation.input_roles.get().empty());
  EXPECT_EQ(stimuli.comment, "a kept wave");
}

TEST_F(HistoryTest, TheTextPoolMovesWithTheTable) {
  // Move-assignment is how a store swaps in a new image: the handles of
  // the moved instances must outlive the database they came from.
  support::ManualClock clock2(0, 1);
  auto source = std::make_unique<HistoryDb>(schema_, clock2);
  testpool::fill(*source);
  const std::vector<testpool::Fields> fields = testpool::fields_of(*source);
  const std::string text = source->save();
  (void)db_.import_instance(schema_.require("Stimuli"), "gone", "g", "zed");
  db_ = std::move(*source);
  source.reset();
  EXPECT_EQ(testpool::fields_of(db_), fields);
  EXPECT_EQ(db_.save(), text);
  // A later record finds the moved pool's entries.
  const InstanceId more =
      db_.import_instance(schema_.require("Stimuli"), "more", "m", "ada");
  EXPECT_EQ(&db_.instance(more).user.get(),
            &db_.instance(InstanceId(0)).user.get());
}

TEST_F(HistoryTest, LoadRejectsCorruptInput) {
  support::ManualClock clock2(0, 1);
  EXPECT_THROW(HistoryDb::load(schema_, clock2, "mystery|field"),
               HistoryError);
  // An instance referencing a missing blob.
  EXPECT_THROW(
      HistoryDb::load(schema_, clock2,
                      "inst|0|Stimuli|n|u|5|c|deadbeefdeadbeef|1|import|-1|0"),
      HistoryError);
}

TEST_F(HistoryTest, LoadRejectsBlobHashMismatch) {
  db_.import_instance(schema_.require("Stimuli"), "st", "wave", "u");
  std::string text = db_.save();
  // Tamper with the stored payload but keep the recorded key: the reload
  // must recompute the hash and reject the corrupt record.
  const std::size_t at = text.find("wave");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 4, "wavX");
  support::ManualClock clock2(0, 1);
  EXPECT_THROW(HistoryDb::load(schema_, clock2, text), HistoryError);
}

TEST_F(HistoryTest, RoundTripFailureAndSkippedRecords) {
  const InstanceId sim =
      db_.import_instance(schema_.require("Simulator"), "s", "", "u");
  const InstanceId st =
      db_.import_instance(schema_.require("Stimuli"), "st", "w", "u");
  RecordRequest failed;
  failed.type = schema_.require("Performance");
  failed.name = "p";
  failed.user = "u";
  failed.comment = "simulator crashed";
  failed.status = InstanceStatus::kFailed;
  failed.derivation.tool = sim;
  failed.derivation.inputs = {st};
  failed.derivation.input_roles = {"stimuli"};
  failed.derivation.task = "Simulator";
  const InstanceId f = db_.record(failed);
  RecordRequest skipped = failed;
  skipped.comment = "dependency failed";
  skipped.status = InstanceStatus::kSkipped;
  const InstanceId k = db_.record(skipped);

  support::ManualClock clock2(0, 1);
  const HistoryDb back = HistoryDb::load(schema_, clock2, db_.save());
  EXPECT_EQ(back.save(), db_.save());
  EXPECT_EQ(back.instance(f).status, InstanceStatus::kFailed);
  EXPECT_EQ(back.instance(k).status, InstanceStatus::kSkipped);
  EXPECT_EQ(back.instance(f).comment, "simulator crashed");
  EXPECT_EQ(back.instance(f).derivation.input_roles,
            std::vector<std::string>{"stimuli"});
  EXPECT_EQ(back.failures(), (std::vector<InstanceId>{f, k}));
  // Failure semantics survive the round trip: invisible to listings and
  // memoization, version stays 1.
  EXPECT_TRUE(back.instances_of(schema_.require("Performance")).empty());
  EXPECT_FALSE(
      back.find_existing(schema_.require("Performance"), sim, {st}));
  EXPECT_EQ(back.instance(f).version, 1u);
}

TEST_F(HistoryTest, RoundTripCompositeAndEmptyPayloads) {
  // Empty payloads (the Simulator import) and a composite instance
  // (inputs, no tool) both survive save/load.
  const InstanceId sim =
      db_.import_instance(schema_.require("Simulator"), "s", "", "u");
  const InstanceId models = db_.import_instance(
      schema_.require("DeviceModels"), "m", "mm", "u");
  const InstanceId n1 = db_.import_instance(
      schema_.require("EditedNetlist"), "n1", "", "u");
  RecordRequest compose;
  compose.type = schema_.require("Circuit");
  compose.name = "c";
  compose.user = "u";
  compose.payload = "";
  compose.derivation.inputs = {models, n1};
  compose.derivation.input_roles = {"models", "netlist"};
  compose.derivation.task = "compose";
  const InstanceId circuit = db_.record(compose);

  support::ManualClock clock2(0, 1);
  const HistoryDb back = HistoryDb::load(schema_, clock2, db_.save());
  EXPECT_EQ(back.save(), db_.save());
  EXPECT_EQ(back.payload(sim), "");
  EXPECT_EQ(back.payload(circuit), "");
  // The three empty payloads share one blob.
  EXPECT_EQ(back.instance(sim).blob, back.instance(circuit).blob);
  EXPECT_FALSE(back.instance(circuit).derivation.tool.valid());
  EXPECT_EQ(back.instance(circuit).derivation.inputs,
            (std::vector<InstanceId>{models, n1}));
  EXPECT_EQ(back.derived_from(circuit),
            (std::vector<InstanceId>{models, n1}));
  EXPECT_EQ(back.used_by(models), std::vector<InstanceId>{circuit});
}

TEST_F(HistoryTest, AnnotationsSurviveRoundTrip) {
  const InstanceId st =
      db_.import_instance(schema_.require("Stimuli"), "st", "w", "u");
  db_.annotate(st, "renamed", "why I kept it");
  support::ManualClock clock2(0, 1);
  const HistoryDb back = HistoryDb::load(schema_, clock2, db_.save());
  EXPECT_EQ(back.instance(st).name, "renamed");
  EXPECT_EQ(back.instance(st).comment, "why I kept it");
}

TEST_F(HistoryTest, MutationListenerStreamReproducesDatabase) {
  // The journal contract: encoding every on_mutation record and
  // re-applying the lines one by one rebuilds an identical database.
  class Capture : public MutationListener {
   public:
    void on_mutation(std::span<const Record> records) override {
      for (const Record& record : records) encode(record, log_);
    }
    std::string log_;
  };
  Capture capture;
  db_.attach_listener(&capture);
  const InstanceId editor =
      db_.import_instance(schema_.require("CircuitEditor"), "ed", "t", "u");
  const InstanceId n1 = db_.import_instance(
      schema_.require("EditedNetlist"), "n1", "a", "u");
  derive("EditedNetlist", editor, {n1}, "b");
  db_.annotate(n1, "n1x", "edited");
  db_.attach_listener(nullptr);

  support::ManualClock clock2(0, 1);
  HistoryDb replay(schema_, clock2);
  for (const std::string& line : support::split(capture.log_, '\n')) {
    replay.apply_saved_line(line);
  }
  EXPECT_EQ(replay.save(), db_.save());
  // Replaying through apply_saved_line must not re-notify a listener.
  Capture quiet;
  support::ManualClock clock3(0, 1);
  HistoryDb replay2(schema_, clock3);
  replay2.attach_listener(&quiet);
  for (const std::string& line : support::split(capture.log_, '\n')) {
    replay2.apply_saved_line(line);
  }
  EXPECT_TRUE(quiet.log_.empty());
}

TEST_F(HistoryTest, MoveAssignmentKeepsTheTargetsListener) {
  // A store that installs a new image into its own database in place must
  // stay attached to it: move-assignment replaces the contents and keeps
  // the target's listener.
  class Count : public MutationListener {
   public:
    void on_mutation(std::span<const Record>) override { ++calls_; }
    int calls_ = 0;
  };
  Count target_listener;
  Count source_listener;
  db_.attach_listener(&target_listener);
  support::ManualClock clock2(0, 1);
  HistoryDb source(schema_, clock2);
  source.attach_listener(&source_listener);
  (void)source.import_instance(schema_.require("Stimuli"), "s", "w", "u");
  ASSERT_EQ(source_listener.calls_, 1);

  db_ = std::move(source);
  EXPECT_EQ(db_.listener(), &target_listener);
  EXPECT_EQ(db_.size(), 1u);
  (void)db_.import_instance(schema_.require("Stimuli"), "t", "w", "u");
  EXPECT_EQ(target_listener.calls_, 1);
  EXPECT_EQ(source_listener.calls_, 1);
  db_.attach_listener(nullptr);
}

TEST_F(HistoryTest, ARepeatedPayloadJournalsNoSecondBlobLine) {
  class Capture : public MutationListener {
   public:
    void on_mutation(std::span<const Record> records) override {
      std::string& lines = mutations_.emplace_back();
      for (const Record& record : records) encode(record, lines);
    }
    std::vector<std::string> mutations_;
  };
  Capture capture;
  db_.attach_listener(&capture);
  (void)db_.import_instance(schema_.require("Stimuli"), "a", "same", "u");
  (void)db_.import_instance(schema_.require("Stimuli"), "b", "same", "u");
  derive("Stimuli", InstanceId(), {}, "same");
  db_.attach_listener(nullptr);

  ASSERT_EQ(capture.mutations_.size(), 3u);
  const auto blob_lines = [](const std::string& lines) {
    std::size_t n = 0;
    for (const std::string& line : support::split(lines, '\n')) {
      if (line.starts_with("blob|")) ++n;
    }
    return n;
  };
  EXPECT_EQ(blob_lines(capture.mutations_[0]), 1u);
  EXPECT_EQ(blob_lines(capture.mutations_[1]), 0u);
  EXPECT_EQ(blob_lines(capture.mutations_[2]), 0u);
  EXPECT_EQ(db_.blobs().size(), 1u);
}

TEST_F(HistoryTest, SharedPayloadsShareOneBlobRefAfterSaveAndLoad) {
  (void)db_.import_instance(schema_.require("Stimuli"), "first", "other",
                            "u");
  const InstanceId a =
      db_.import_instance(schema_.require("Stimuli"), "a", "same", "u");
  const InstanceId b =
      db_.import_instance(schema_.require("Stimuli"), "b", "same", "u");
  const std::string text = db_.save();

  support::ManualClock clock2(0, 1);
  const HistoryDb back = HistoryDb::load(schema_, clock2, text);
  EXPECT_EQ(back.save(), text);
  EXPECT_EQ(back.blobs().size(), 2u);
  EXPECT_EQ(back.instance(a).blob, back.instance(b).blob);
  EXPECT_EQ(back.instance(a).blob, db_.instance(a).blob);
  EXPECT_EQ(back.payload(b), "same");
  EXPECT_EQ(back.blobs().key(back.instance(b).blob),
            data::BlobStore::key_for("same"));
}

}  // namespace
}  // namespace herc::history
