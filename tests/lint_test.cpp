// Fixture suite for the static analyzer (`herc lint`): every HLxxx
// diagnostic code has a positive test (a minimal defect that fires it) and
// a negative test (the corrected fixture stays clean of it).
#include <gtest/gtest.h>

#include <string>

#include "analyze/flow_lint.hpp"
#include "analyze/plan_check.hpp"
#include "analyze/schema_lint.hpp"
#include "graph/task_graph.hpp"
#include "history/history_db.hpp"
#include "schema/standard_schemas.hpp"
#include "support/clock.hpp"
#include "support/error.hpp"
#include "tools/registry.hpp"

namespace herc::analyze {
namespace {

using data::InstanceId;
using graph::NodeId;
using graph::TaskGraph;

// ---------------------------------------------------------------------------
// Pass 1: schema lint (HL001–HL007)
// ---------------------------------------------------------------------------

TEST(SchemaLint, HL001FiresOnUnbreakableDependencyLoop) {
  schema::TaskSchema s("t");
  const auto tool = s.add_tool("T");
  const auto a = s.add_data("A");
  s.set_functional_dependency(a, tool);
  s.add_data_dependency(a, a, /*optional=*/false, "seed");
  const LintReport r = lint_schema(s);
  EXPECT_TRUE(r.has("HL001"));
  EXPECT_EQ(r.severity(), Severity::kError);
  EXPECT_EQ(r.exit_code(), 2);
}

TEST(SchemaLint, HL001CleanWhenLoopBrokenByOptionalArc) {
  schema::TaskSchema s("t");
  const auto tool = s.add_tool("T");
  const auto a = s.add_data("A");
  s.set_functional_dependency(a, tool);
  s.add_data_dependency(a, a, /*optional=*/true, "seed");
  const LintReport r = lint_schema(s);
  EXPECT_FALSE(r.has("HL001"));
  EXPECT_TRUE(r.clean()) << r.render();
}

TEST(SchemaLint, HL002FiresOnAbstractWithoutConcreteDescendant) {
  schema::TaskSchema s("t");
  s.add_data("A", /*abstract=*/true);
  const LintReport r = lint_schema(s);
  EXPECT_TRUE(r.has("HL002"));
  EXPECT_EQ(r.severity(), Severity::kError);
}

TEST(SchemaLint, HL002CleanWithConcreteSubtype) {
  schema::TaskSchema s("t");
  const auto a = s.add_data("A", /*abstract=*/true);
  s.add_subtype("B", a);
  const LintReport r = lint_schema(s);
  EXPECT_FALSE(r.has("HL002"));
  EXPECT_TRUE(r.clean()) << r.render();
}

TEST(SchemaLint, HL003FiresOnCompositeWithoutDataDependency) {
  schema::TaskSchema s("t");
  s.add_composite("C");
  const LintReport r = lint_schema(s);
  EXPECT_TRUE(r.has("HL003"));
  EXPECT_EQ(r.severity(), Severity::kError);
}

TEST(SchemaLint, HL003CleanWhenCompositeHasComponents) {
  schema::TaskSchema s("t");
  const auto c = s.add_composite("C");
  const auto part = s.add_data("Part");
  s.add_data_dependency(c, part);
  const LintReport r = lint_schema(s);
  EXPECT_FALSE(r.has("HL003"));
  EXPECT_TRUE(r.clean()) << r.render();
}

/// A base schema for the subtype-ambiguity fixtures: an abstract Base with
/// two concrete subtypes constructed by `tool_x`/`tool_y` from In.
schema::TaskSchema ambiguity_schema(bool same_tool) {
  schema::TaskSchema s("t");
  const auto tool_x = s.add_tool("ToolX");
  const auto tool_y = same_tool ? tool_x : s.add_tool("ToolY");
  const auto in = s.add_data("In");
  const auto base = s.add_data("Base", /*abstract=*/true);
  const auto x = s.add_subtype("X", base);
  const auto y = s.add_subtype("Y", base);
  s.set_functional_dependency(x, tool_x);
  s.add_data_dependency(x, in);
  s.set_functional_dependency(y, tool_y);
  s.add_data_dependency(y, in);
  return s;
}

TEST(SchemaLint, HL004FiresOnInterchangeableSubtypeRules) {
  const LintReport r = lint_schema(ambiguity_schema(/*same_tool=*/true));
  EXPECT_TRUE(r.has("HL004"));
  EXPECT_EQ(r.severity(), Severity::kWarning);
  EXPECT_EQ(r.exit_code(), 1);
}

TEST(SchemaLint, HL004CleanWhenToolsDistinguishSubtypes) {
  const LintReport r = lint_schema(ambiguity_schema(/*same_tool=*/false));
  EXPECT_FALSE(r.has("HL004"));
  EXPECT_TRUE(r.clean()) << r.render();
}

TEST(SchemaLint, HL005FiresOnDisconnectedDataEntity) {
  schema::TaskSchema s("t");
  const auto tool = s.add_tool("T");
  const auto a = s.add_data("A");
  s.set_functional_dependency(a, tool);
  s.add_data("Orphan");
  const LintReport r = lint_schema(s);
  EXPECT_TRUE(r.has("HL005"));
  EXPECT_EQ(r.severity(), Severity::kWarning);
}

TEST(SchemaLint, HL005CleanOnceEntityIsConsumed) {
  schema::TaskSchema s("t");
  const auto tool = s.add_tool("T");
  const auto a = s.add_data("A");
  s.set_functional_dependency(a, tool);
  const auto orphan = s.add_data("Orphan");
  s.add_data_dependency(a, orphan);
  const LintReport r = lint_schema(s);
  EXPECT_FALSE(r.has("HL005"));
  EXPECT_TRUE(r.clean()) << r.render();
}

TEST(SchemaLint, HL006FiresOnUnusedTool) {
  schema::TaskSchema s("t");
  const auto tool = s.add_tool("T");
  const auto a = s.add_data("A");
  s.set_functional_dependency(a, tool);
  s.add_tool("Unused");
  const LintReport r = lint_schema(s);
  EXPECT_TRUE(r.has("HL006"));
  EXPECT_EQ(r.severity(), Severity::kWarning);
}

TEST(SchemaLint, HL006CleanWhenToolServesARuleViaItsAncestor) {
  // Registration resolves through the hierarchy, so a concrete tool whose
  // *abstract ancestor* is the fd target is used (the paper's shared
  // Optimizer encapsulation).
  schema::TaskSchema s("t");
  const auto opt = s.add_tool("Optimizer", /*abstract=*/true);
  s.add_subtype("GradientOptimizer", opt);
  const auto a = s.add_data("A");
  s.set_functional_dependency(a, opt);
  const LintReport r = lint_schema(s);
  EXPECT_FALSE(r.has("HL006"));
  EXPECT_TRUE(r.clean()) << r.render();
}

/// Parent/child schema for the shadowing fixtures; `differ` adds an input
/// to the child so its rule is a genuine refinement.
schema::TaskSchema shadowing_schema(bool differ) {
  schema::TaskSchema s("t");
  const auto tool = s.add_tool("T");
  const auto in = s.add_data("In");
  const auto p = s.add_data("P");
  s.set_functional_dependency(p, tool);
  s.add_data_dependency(p, in);
  const auto c = s.add_subtype("C", p);
  s.set_functional_dependency(c, tool);
  s.add_data_dependency(c, in);
  if (differ) {
    const auto extra = s.add_data("Extra");
    s.add_data_dependency(c, extra);
  }
  return s;
}

TEST(SchemaLint, HL007FiresOnIdenticalShadowingRule) {
  const LintReport r = lint_schema(shadowing_schema(/*differ=*/false));
  EXPECT_TRUE(r.has("HL007"));
  EXPECT_EQ(r.severity(), Severity::kWarning);
}

TEST(SchemaLint, HL007CleanWhenShadowingRuleRefines) {
  const LintReport r = lint_schema(shadowing_schema(/*differ=*/true));
  EXPECT_FALSE(r.has("HL007"));
  EXPECT_TRUE(r.clean()) << r.render();
}

TEST(SchemaLint, StandardSchemasAreClean) {
  EXPECT_TRUE(lint_schema(schema::make_fig1_schema()).clean());
  EXPECT_TRUE(lint_schema(schema::make_fig2_schema()).clean());
  EXPECT_TRUE(lint_schema(schema::make_full_schema()).clean())
      << lint_schema(schema::make_full_schema()).render();
}

TEST(SchemaLint, ValidateDelegatesToTheAnalyzer) {
  // The historical validate() contract: errors throw SchemaError with the
  // analyzer's location + message, warnings do not throw.
  schema::TaskSchema bad("t");
  bad.add_composite("C");
  EXPECT_THROW(bad.validate(), support::SchemaError);
  schema::TaskSchema warn_only("t");
  const auto tool = warn_only.add_tool("T");
  const auto a = warn_only.add_data("A");
  warn_only.set_functional_dependency(a, tool);
  warn_only.add_data("Orphan");  // HL005 warning
  EXPECT_NO_THROW(warn_only.validate());
}

// ---------------------------------------------------------------------------
// Pass 2: flow lint (HL101–HL107)
// ---------------------------------------------------------------------------

class FlowLint : public ::testing::Test {
 protected:
  FlowLint()
      : schema_(schema::make_fig1_schema()),
        clock_(0, 1),
        db_(schema_, clock_) {}

  InstanceId imp(const char* type, const char* name) {
    return db_.import_instance(schema_.require(type), name, "payload", "u");
  }

  /// A Performance flow, expanded one level (tool + Circuit + Stimuli).
  TaskGraph perf_flow() {
    TaskGraph flow(schema_, "f");
    const NodeId perf = flow.add_node("Performance");
    flow.expand(perf);
    return flow;
  }

  NodeId node_of(const TaskGraph& flow, const char* type) {
    for (const NodeId n : flow.nodes()) {
      if (flow.node(n).type == schema_.require(type)) return n;
    }
    ADD_FAILURE() << "no node of type " << type;
    return NodeId();
  }

  LintReport lint(const TaskGraph& flow) {
    FlowLintOptions options;
    options.db = &db_;
    return lint_flow(flow, options);
  }

  schema::TaskSchema schema_;
  support::ManualClock clock_;
  history::HistoryDb db_;
};

TEST_F(FlowLint, HL101FiresOnUnknownInstance) {
  TaskGraph flow = perf_flow();
  flow.bind(node_of(flow, "Stimuli"), InstanceId(99));
  const LintReport r = lint(flow);
  EXPECT_TRUE(r.has("HL101"));
  EXPECT_EQ(r.severity(), Severity::kError);
}

TEST_F(FlowLint, HL101FiresOnTypeMismatchedBinding) {
  // TaskGraph::bind deliberately does not type-check; lint does.
  TaskGraph flow = perf_flow();
  flow.bind(node_of(flow, "Stimuli"), imp("DeviceModels", "m"));
  EXPECT_TRUE(lint(flow).has("HL101"));
}

TEST_F(FlowLint, HL101CleanOnSatisfyingBinding) {
  TaskGraph flow = perf_flow();
  flow.bind(node_of(flow, "Stimuli"), imp("Stimuli", "step"));
  EXPECT_FALSE(lint(flow).has("HL101"));
}

TEST_F(FlowLint, HL102FiresOnQuarantinedBinding) {
  TaskGraph flow = perf_flow();
  const InstanceId stim = imp("Stimuli", "step");
  db_.quarantine(stim, "crash recovery");
  flow.bind(node_of(flow, "Stimuli"), stim);
  const LintReport r = lint(flow);
  EXPECT_TRUE(r.has("HL102"));
  EXPECT_EQ(r.severity(), Severity::kError);
}

TEST_F(FlowLint, HL102CleanOnOkBinding) {
  TaskGraph flow = perf_flow();
  flow.bind(node_of(flow, "Stimuli"), imp("Stimuli", "step"));
  EXPECT_FALSE(lint(flow).has("HL102"));
}

TEST_F(FlowLint, HL103FiresOnUnbindableSourceLeaf) {
  // Stimuli is a source entity; with an empty history nothing can ever
  // satisfy the leaf.
  const TaskGraph flow = perf_flow();
  const LintReport r = lint(flow);
  EXPECT_TRUE(r.has("HL103"));
  EXPECT_EQ(r.severity(), Severity::kError);
}

TEST_F(FlowLint, HL103CleanOnceAnInstanceExistsOrTypeIsProducible) {
  TaskGraph flow = perf_flow();
  imp("Stimuli", "step");
  imp("Simulator", "spice");
  const LintReport r = lint(flow);
  // The unexpanded Circuit leaf has no instance either, but it *can* be
  // produced by expanding it — no HL103 for it.
  EXPECT_FALSE(r.has("HL103")) << r.render();
}

TEST_F(FlowLint, HL104FiresOnBranchOutsideTheGoalClosure) {
  TaskGraph flow = perf_flow();
  flow.add_node("Verification");
  FlowLintOptions options;
  options.db = &db_;
  options.goal = node_of(flow, "Performance");
  const LintReport r = lint_flow(flow, options);
  EXPECT_TRUE(r.has("HL104"));
}

TEST_F(FlowLint, HL104NotCheckedWithoutAGoal) {
  TaskGraph flow = perf_flow();
  flow.add_node("Verification");
  EXPECT_FALSE(lint(flow).has("HL104"));
}

TEST_F(FlowLint, HL105FiresWhenNondeterministicProductFeedsTasks) {
  TaskGraph flow = perf_flow();
  const NodeId perf = node_of(flow, "Performance");
  flow.expand_up(perf, schema_.require("PerformancePlot"));
  tools::ToolRegistry registry(schema_);
  tools::Encapsulation enc;
  enc.name = "sim.montecarlo";
  enc.tool_type = schema_.require("Simulator");
  enc.fn = [](const tools::ToolContext&) { return tools::ToolOutput{}; };
  enc.deterministic = false;
  registry.register_encapsulation(enc);
  FlowLintOptions options;
  options.tools = &registry;
  const LintReport r = lint_flow(flow, options);
  EXPECT_TRUE(r.has("HL105"));
}

TEST_F(FlowLint, HL105CleanForDeterministicToolOrTerminalProduct) {
  TaskGraph flow = perf_flow();
  tools::ToolRegistry registry(schema_);
  tools::Encapsulation enc;
  enc.name = "sim.montecarlo";
  enc.tool_type = schema_.require("Simulator");
  enc.fn = [](const tools::ToolContext&) { return tools::ToolOutput{}; };
  enc.deterministic = false;
  registry.register_encapsulation(enc);
  FlowLintOptions options;
  options.tools = &registry;
  // Nondeterministic but terminal (nothing consumes Performance): clean.
  EXPECT_FALSE(lint_flow(flow, options).has("HL105"));
  // Consumed but deterministic: clean.
  TaskGraph flow2 = perf_flow();
  flow2.expand_up(node_of(flow2, "Performance"),
                  schema_.require("PerformancePlot"));
  tools::ToolRegistry registry2(schema_);
  enc.deterministic = true;
  registry2.register_encapsulation(enc);
  FlowLintOptions options2;
  options2.tools = &registry2;
  EXPECT_FALSE(lint_flow(flow2, options2).has("HL105"));
}

TEST_F(FlowLint, HL106FiresOnDiscardedSiblingProduct) {
  // The simulator produces Performance *and* Statistics from the same
  // inputs (Fig. 5); a flow asking only for Performance silently drops
  // the statistics.
  const TaskGraph flow = perf_flow();
  const LintReport r = lint_flow(flow);
  EXPECT_TRUE(r.has("HL106"));
  const std::string text = r.render();
  EXPECT_NE(text.find("Statistics"), std::string::npos);
}

TEST_F(FlowLint, HL106CleanWithCoOutput) {
  TaskGraph flow = perf_flow();
  flow.add_co_output(node_of(flow, "Performance"),
                     schema_.require("Statistics"));
  EXPECT_FALSE(lint_flow(flow).has("HL106"));
}

TEST_F(FlowLint, HL107FiresWhenTheGoalCannotBeSatisfied) {
  TaskGraph flow = perf_flow();
  imp("Simulator", "spice");
  // No Stimuli instance anywhere: the leaf is unbindable (HL103) and the
  // goal's closure can never complete (HL107).
  const LintReport r = lint(flow);
  EXPECT_TRUE(r.has("HL107"));
  EXPECT_EQ(r.severity(), Severity::kError);
}

TEST_F(FlowLint, HL107CleanWhenEveryLeafIsSatisfiable) {
  TaskGraph flow = perf_flow();
  imp("Simulator", "spice");
  imp("Stimuli", "step");
  EXPECT_FALSE(lint(flow).has("HL107"));
}

// ---------------------------------------------------------------------------
// Pass 3: plan race check (HL201–HL203)
// ---------------------------------------------------------------------------

/// Two editors over an abstract Text: EditedText (EditorA) and RevisedText
/// (EditorB), both seeded from an optional Text input — the minimal
/// version-race schema.
schema::TaskSchema editors_schema() {
  schema::TaskSchema s("t");
  const auto editor_a = s.add_tool("EditorA");
  const auto editor_b = s.add_tool("EditorB");
  const auto text = s.add_data("Text", /*abstract=*/true);
  const auto edited = s.add_subtype("EditedText", text);
  const auto revised = s.add_subtype("RevisedText", text);
  s.set_functional_dependency(edited, editor_a);
  s.add_data_dependency(edited, text, /*optional=*/true, "seed");
  s.set_functional_dependency(revised, editor_b);
  s.add_data_dependency(revised, text, /*optional=*/true, "seed");
  return s;
}

/// Flow in which both editors consume one shared seed node; `chained`
/// instead feeds the first edit into the second (no race).
TaskGraph editors_flow(const schema::TaskSchema& s, bool chained) {
  TaskGraph flow(s, "edits");
  const NodeId edited = flow.add_node("EditedText");
  graph::ExpandOptions opts;
  opts.include_optional = true;
  flow.expand(edited, opts);
  NodeId seed;
  for (const NodeId n : flow.inputs_of(edited)) seed = n;
  const NodeId revised = flow.add_node("RevisedText");
  const NodeId editor_b = flow.add_node("EditorB");
  flow.connect(revised, editor_b);
  flow.connect(revised, chained ? edited : seed);
  return flow;
}

TEST(PlanCheck, HL201FiresOnConcurrentEditsOfOneLineage) {
  const schema::TaskSchema s = editors_schema();
  const TaskGraph flow = editors_flow(s, /*chained=*/false);
  PlanCheckOptions options;
  options.parallel = true;
  const LintReport r = lint_plan(flow, options);
  EXPECT_TRUE(r.has("HL201")) << r.render();
  EXPECT_EQ(r.severity(), Severity::kError);
}

TEST(PlanCheck, HL201CleanWhenEditsAreChained) {
  const schema::TaskSchema s = editors_schema();
  const TaskGraph flow = editors_flow(s, /*chained=*/true);
  PlanCheckOptions options;
  options.parallel = true;
  EXPECT_FALSE(lint_plan(flow, options).has("HL201"));
}

TEST(PlanCheck, HL201FollowsToolEdges) {
  // EditorB is itself made from EditedText, so RevisedText's task waits
  // for EditorB's, which waits for EditedText's: the two edits of the
  // shared seed never overlap, as in the executor's schedule.
  schema::TaskSchema s = editors_schema();
  const auto maker = s.add_tool("Maker");
  s.set_functional_dependency(s.require("EditorB"), maker);
  s.add_data_dependency(s.require("EditorB"), s.require("EditedText"));
  TaskGraph flow = editors_flow(s, /*chained=*/false);
  NodeId edited;
  NodeId editor_b;
  for (const NodeId n : flow.nodes()) {
    if (flow.node(n).type == s.require("EditedText")) edited = n;
    if (flow.node(n).type == s.require("EditorB")) editor_b = n;
  }
  flow.connect(editor_b, flow.add_node("Maker"));
  flow.connect(editor_b, edited);
  PlanCheckOptions options;
  options.parallel = true;
  const LintReport r = lint_plan(flow, options);
  EXPECT_FALSE(r.has("HL201")) << r.render();
}

TEST(PlanCheck, HL201NotCheckedForSerialSchedules) {
  // A serial run executes the groups in plan order: the double edit is a
  // legitimate version branch, not a race.
  const schema::TaskSchema s = editors_schema();
  const TaskGraph flow = editors_flow(s, /*chained=*/false);
  PlanCheckOptions options;
  options.parallel = false;
  EXPECT_TRUE(lint_plan(flow, options).clean());
}

TEST(PlanCheck, HL202FiresOnDuplicateComposeWork) {
  const schema::TaskSchema s = schema::make_fig1_schema();
  TaskGraph flow(s, "dup");
  const NodeId c1 = flow.add_node("Circuit");
  flow.expand(c1);
  const NodeId c2 = flow.add_node("Circuit");
  for (const NodeId in : flow.inputs_of(c1)) flow.connect(c2, in);
  PlanCheckOptions options;
  options.parallel = true;
  const LintReport r = lint_plan(flow, options);
  EXPECT_TRUE(r.has("HL202")) << r.render();
  EXPECT_EQ(r.severity(), Severity::kWarning);
}

TEST(PlanCheck, HL202CleanForIndependentWork) {
  const schema::TaskSchema s = schema::make_fig1_schema();
  TaskGraph flow(s, "nodup");
  flow.expand(flow.add_node("Circuit"));
  flow.expand(flow.add_node("Circuit"));  // distinct input nodes
  PlanCheckOptions options;
  options.parallel = true;
  EXPECT_FALSE(lint_plan(flow, options).has("HL202"));
}

/// Producer/consumer schema where the consumer's only produced input is an
/// optional Mid (`mandatory_link` adds a produced mandatory input too).
schema::TaskSchema continue_schema() {
  schema::TaskSchema s("t");
  const auto p = s.add_tool("P");
  const auto q = s.add_tool("Q");
  const auto src = s.add_data("Src");
  const auto mid = s.add_data("Mid");
  const auto out = s.add_data("Out");
  s.set_functional_dependency(mid, p);
  s.set_functional_dependency(out, q);
  s.add_data_dependency(out, src);
  s.add_data_dependency(out, mid, /*optional=*/true, "hint");
  return s;
}

TaskGraph continue_flow(const schema::TaskSchema& s) {
  TaskGraph flow(s, "cont");
  const NodeId out = flow.add_node("Out");
  graph::ExpandOptions opts;
  opts.include_optional = true;
  flow.expand(out, opts);
  NodeId mid;
  for (const NodeId n : flow.nodes()) {
    if (flow.node(n).type == s.require("Mid")) mid = n;
  }
  flow.expand(mid);
  return flow;
}

TEST(PlanCheck, HL203FiresOnOptionalOnlyLinkUnderContinue) {
  const schema::TaskSchema s = continue_schema();
  const TaskGraph flow = continue_flow(s);
  PlanCheckOptions options;
  options.parallel = false;
  options.continue_on_failure = true;
  const LintReport r = lint_plan(flow, options);
  EXPECT_TRUE(r.has("HL203")) << r.render();
  EXPECT_EQ(r.severity(), Severity::kWarning);
}

TEST(PlanCheck, HL203NotCheckedUnderFailFast) {
  const schema::TaskSchema s = continue_schema();
  const TaskGraph flow = continue_flow(s);
  EXPECT_TRUE(lint_plan(flow, PlanCheckOptions{}).clean());
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

TEST(LintReport, SeverityMergingAndExitCodes) {
  LintReport r("x");
  EXPECT_EQ(r.severity(), Severity::kClean);
  EXPECT_EQ(r.exit_code(), 0);
  r.add("HL005", Severity::kWarning, "entity 'A'", "w");
  EXPECT_EQ(r.exit_code(), 1);
  LintReport other("y");
  other.add("HL001", Severity::kError, "entity 'B'", "e", "fix it");
  r.merge(other);
  EXPECT_EQ(r.exit_code(), 2);
  EXPECT_EQ(r.count(Severity::kWarning), 1u);
  EXPECT_EQ(r.count(Severity::kError), 1u);
  EXPECT_TRUE(r.has("HL001"));
  EXPECT_FALSE(r.has("HL999"));
}

TEST(LintReport, RendersTextAndJson) {
  LintReport r("schema 'demo'");
  r.add("HL001", Severity::kError, "entity 'A'", "broken \"here\"", "fix");
  const std::string text = r.render();
  EXPECT_NE(text.find("HL001"), std::string::npos);
  EXPECT_NE(text.find("fix"), std::string::npos);
  const std::string json = r.render_json();
  EXPECT_NE(json.find("\"code\":\"HL001\""), std::string::npos);
  EXPECT_NE(json.find("\\\"here\\\""), std::string::npos);
  EXPECT_NE(json.find("\"exit_code\":2"), std::string::npos);
}

TEST(LintReport, JsonDiagnosticsAreSortedForStableDiffs) {
  // Two reports whose passes emitted the same findings in different
  // orders must serialize identically: JSON output is sorted by
  // (code, location, message), independent of emission order.
  LintReport a("flow 'sim'");
  a.add("HL020", Severity::kWarning, "node 7", "later");
  a.add("HL004", Severity::kError, "entity 'Netlist'", "earlier");
  a.add("HL004", Severity::kError, "entity 'Models'", "earlier");
  LintReport b("flow 'sim'");
  b.add("HL004", Severity::kError, "entity 'Models'", "earlier");
  b.add("HL004", Severity::kError, "entity 'Netlist'", "earlier");
  b.add("HL020", Severity::kWarning, "node 7", "later");
  EXPECT_EQ(a.render_json(), b.render_json());
  const std::string json = a.render_json();
  EXPECT_LT(json.find("entity 'Models'"), json.find("entity 'Netlist'"));
  EXPECT_LT(json.find("HL004"), json.find("HL020"));
  // The human rendering keeps emission order.
  EXPECT_NE(a.render(), b.render());
}

}  // namespace
}  // namespace herc::analyze
