// Execution-engine behaviour beyond the happy path: error handling,
// sub-flow execution, set-accepting encapsulations, tool-instance
// selection of encapsulations, and the scheduler's contract: plan order
// for one worker, cooperative cancel, and exceptions from any worker
// reaching the caller.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "circuit/stimuli.hpp"
#include "exec/consistency.hpp"
#include "exec/executor.hpp"
#include "fault_test_util.hpp"
#include "history/flow_trace.hpp"
#include "history/history_db.hpp"
#include "schema/standard_schemas.hpp"
#include "support/error.hpp"
#include "tools/standard_tools.hpp"

namespace herc::exec {
namespace {

using data::InstanceId;
using graph::NodeId;
using graph::TaskGraph;
using support::ExecError;
using support::FlowError;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : schema_(schema::make_full_schema()),
        clock_(0, 1),
        db_(schema_, clock_),
        registry_(schema_),
        executor_(db_, registry_) {
    tools::install_standard_compose_checks(schema_);
    tools::register_standard_tools(registry_);
  }

  schema::TaskSchema schema_;
  support::ManualClock clock_;
  history::HistoryDb db_;
  tools::ToolRegistry registry_;
  Executor executor_;
};

TEST_F(ExecutorTest, UnboundLeavesAreRejectedWithContext) {
  TaskGraph flow(schema_, "f");
  const NodeId perf = flow.add_node("Performance");
  flow.expand(perf);
  try {
    executor_.run(flow);
    FAIL() << "expected FlowError";
  } catch (const FlowError& e) {
    EXPECT_NE(std::string(e.what()).find("not bound"), std::string::npos);
  }
}

TEST_F(ExecutorTest, ToolFailuresPropagateAsExecErrors) {
  // An editor whose script deletes a nonexistent device fails mid-run.
  const InstanceId bad_editor = db_.import_instance(
      schema_.require("CircuitEditor"), "bad", "del ghost\n", "u");
  const InstanceId netlist = db_.import_instance(
      schema_.require("EditedNetlist"), "n",
      circuit::inverter_netlist().to_text(), "u");
  TaskGraph flow(schema_, "f");
  const NodeId goal = flow.add_node("EditedNetlist");
  flow.expand(goal, graph::ExpandOptions{.include_optional = true});
  flow.bind(flow.tool_of(goal), bad_editor);
  flow.bind(flow.inputs_of(goal)[0], netlist);
  EXPECT_THROW(executor_.run(flow), ExecError);
  // The failed run recorded nothing for the goal.
  EXPECT_TRUE(db_.instances_of(schema_.require("EditedNetlist")).size() ==
              1u);
}

TEST_F(ExecutorTest, ParallelFailurePropagates) {
  const InstanceId bad_editor = db_.import_instance(
      schema_.require("CircuitEditor"), "bad", "del ghost\n", "u");
  const InstanceId netlist = db_.import_instance(
      schema_.require("EditedNetlist"), "n",
      circuit::inverter_netlist().to_text(), "u");
  TaskGraph flow(schema_, "f");
  for (int i = 0; i < 3; ++i) {
    const NodeId goal = flow.add_node("EditedNetlist");
    flow.expand(goal, graph::ExpandOptions{.include_optional = true});
    flow.bind(flow.tool_of(goal), bad_editor);
    flow.bind(flow.inputs_of(goal)[0], netlist);
  }
  ExecOptions options;
  options.parallel = true;
  EXPECT_THROW(executor_.run(flow, options), ExecError);
}

TEST_F(ExecutorTest, EncapsulationChosenByToolInstanceType) {
  // Binding a GradientOptimizer vs AnnealingOptimizer instance to the
  // abstract Optimizer node picks the matching encapsulation arguments.
  const InstanceId netlist = db_.import_instance(
      schema_.require("EditedNetlist"), "n",
      circuit::inverter_chain(2).to_text(), "u");
  const InstanceId models = db_.import_instance(
      schema_.require("DeviceModels"), "m",
      circuit::DeviceModelLibrary::standard().to_text(), "u");
  const InstanceId stimuli = db_.import_instance(
      schema_.require("Stimuli"), "st",
      circuit::Stimuli::random({"in"}, 2000, 6, 3).to_text(), "u");
  const InstanceId gradient = db_.import_instance(
      schema_.require("GradientOptimizer"), "grad", "", "u");
  const InstanceId annealing = db_.import_instance(
      schema_.require("AnnealingOptimizer"), "anneal", "", "u");

  TaskGraph flow(schema_, "opt");
  const NodeId goal = flow.add_node("OptimizedNetlist");
  flow.expand(goal);
  const auto circuit_inputs = flow.expand(flow.inputs_of(goal)[0]);
  flow.bind(circuit_inputs[0], models);
  flow.bind(circuit_inputs[1], netlist);
  flow.bind(flow.inputs_of(goal)[1], stimuli);
  // Select BOTH optimizer instances: the task fans out over the tools.
  flow.bind_set(flow.tool_of(goal), {gradient, annealing});

  const ExecResult result = executor_.run(flow);
  ASSERT_EQ(result.of(goal).size(), 2u);
  // Each product records which tool instance made it.
  EXPECT_EQ(db_.instance(result.of(goal)[0]).derivation.tool, gradient);
  EXPECT_EQ(db_.instance(result.of(goal)[1]).derivation.tool, annealing);
  EXPECT_NE(db_.instance(result.of(goal)[0]).derivation.task,
            db_.instance(result.of(goal)[1]).derivation.task);
}

TEST_F(ExecutorTest, RunGoalSkipsUnrelatedBranches) {
  const InstanceId netlist = db_.import_instance(
      schema_.require("EditedNetlist"), "n",
      circuit::inverter_netlist().to_text(), "u");
  const InstanceId models = db_.import_instance(
      schema_.require("DeviceModels"), "m",
      circuit::DeviceModelLibrary::standard().to_text(), "u");
  TaskGraph flow(schema_, "f");
  // Branch 1: a circuit compose (fully bound).
  const NodeId circuit = flow.add_node("Circuit");
  const auto circuit_inputs = flow.expand(circuit);
  flow.bind(circuit_inputs[0], models);
  flow.bind(circuit_inputs[1], netlist);
  // Branch 2: an unbound verification task.
  const NodeId verification = flow.add_node("Verification");
  flow.expand(verification);

  const ExecResult result = executor_.run_goal(flow, circuit);
  EXPECT_EQ(result.tasks_run, 1u);
  EXPECT_TRUE(result.single(circuit).valid());
  // run_goal on the unbound branch fails.
  EXPECT_THROW(executor_.run_goal(flow, verification), FlowError);
}

TEST_F(ExecutorTest, RetraceOnFreshInstanceIsAnError) {
  const InstanceId netlist = db_.import_instance(
      schema_.require("EditedNetlist"), "n",
      circuit::inverter_netlist().to_text(), "u");
  EXPECT_THROW(retrace(db_, registry_, netlist), ExecError);
}

TEST_F(ExecutorTest, LatestVersionFollowsNewestBranch) {
  const InstanceId editor = db_.import_instance(
      schema_.require("CircuitEditor"), "e", "set mn value=2\n", "u");
  const InstanceId v1 = db_.import_instance(
      schema_.require("EditedNetlist"), "v1",
      circuit::inverter_netlist().to_text(), "u");
  const auto edit = [&](InstanceId base) {
    TaskGraph flow(schema_, "edit");
    const NodeId goal = flow.add_node("EditedNetlist");
    flow.expand(goal, graph::ExpandOptions{.include_optional = true});
    flow.bind(flow.tool_of(goal), editor);
    flow.bind(flow.inputs_of(goal)[0], base);
    return executor_.run(flow).single(goal);
  };
  const InstanceId v2a = edit(v1);
  const InstanceId v2b = edit(v1);  // branch, created later
  EXPECT_EQ(latest_version(db_, v1), v2b);
  const InstanceId v3 = edit(v2a);
  // v2a's lineage continues to v3; the walk from v1 prefers the newest
  // child at each step (v2b is newer than v2a, and v2b has no children).
  EXPECT_EQ(latest_version(db_, v2a), v3);
  EXPECT_EQ(latest_version(db_, v1), v2b);
}

TEST_F(ExecutorTest, SetAcceptingEncapsulationGetsOneCall) {
  // A batch plotter that renders all selected performances in one call
  // (the paper: the encapsulation "may pass all of the data to a single
  // call of the tool").
  tools::Encapsulation batch;
  batch.name = "Plotter.batch";
  batch.tool_type = schema_.require("Plotter");
  batch.accepts_instance_sets = true;
  batch.fn = [](const tools::ToolContext& ctx) {
    const auto& in = ctx.input("Performance");
    tools::ToolOutput out;
    out.set("PerformancePlot",
            "batch of " + std::to_string(in.payloads.size()) + " plots");
    return out;
  };
  registry_.register_encapsulation(std::move(batch));
  registry_.set_default("Plotter.batch");

  const InstanceId plotter =
      db_.import_instance(schema_.require("Plotter"), "p", "", "u");
  const InstanceId perf1 = db_.import_instance(
      schema_.require("Performance"), "p1", "performance\n", "u");
  const InstanceId perf2 = db_.import_instance(
      schema_.require("Performance"), "p2", "performance\nmetric "
      "max_delay_ps=1\n", "u");
  TaskGraph flow(schema_, "plots");
  const NodeId plot = flow.add_node("PerformancePlot");
  flow.expand(plot);
  flow.bind(flow.tool_of(plot), plotter);
  flow.bind_set(flow.inputs_of(plot)[0], {perf1, perf2});

  const ExecResult result = executor_.run(flow);
  // One call, one product, derivation recording both inputs.
  EXPECT_EQ(result.tasks_run, 1u);
  const InstanceId product = result.single(plot);
  EXPECT_EQ(db_.payload(product), "batch of 2 plots");
  EXPECT_EQ(db_.instance(product).derivation.inputs,
            (std::vector<InstanceId>{perf1, perf2}));
  // With the per-instance default restored, the same flow fans out.
  registry_.set_default("Plotter.default");
  const ExecResult fanned = executor_.run(flow);
  EXPECT_EQ(fanned.tasks_run, 2u);
  EXPECT_EQ(fanned.of(plot).size(), 2u);
}

TEST_F(ExecutorTest, SetConsumingDerivationsRetrace) {
  // Regression: a set-accepting task records more inputs than its schema
  // arc's multiplicity; its backward trace must still build (relaxed
  // edges) and retrace must re-run it with the full set.
  tools::Encapsulation batch;
  batch.name = "Plotter.batch";
  batch.tool_type = schema_.require("Plotter");
  batch.accepts_instance_sets = true;
  batch.fn = [](const tools::ToolContext& ctx) {
    std::string joined;
    for (const std::string& p : ctx.input("Performance").payloads) {
      joined += p + "|";
    }
    tools::ToolOutput out;
    out.set("PerformancePlot", joined);
    return out;
  };
  registry_.register_encapsulation(std::move(batch));
  registry_.set_default("Plotter.batch");

  const InstanceId plotter =
      db_.import_instance(schema_.require("Plotter"), "p", "", "u");
  const InstanceId editor = db_.import_instance(
      schema_.require("CircuitEditor"), "e", "set mn value=2\n", "u");
  // Two "performances" with edit lineage so one can go stale.  (Use
  // netlist payloads for the editor; the plotter here just concatenates.)
  const InstanceId perf1 = db_.import_instance(
      schema_.require("Performance"), "p1", "performance\n", "u");
  const InstanceId perf2 = db_.import_instance(
      schema_.require("Performance"), "p2", "performance\n"
      "metric max_delay_ps=5\n", "u");

  TaskGraph flow(schema_, "plots");
  const NodeId plot = flow.add_node("PerformancePlot");
  flow.expand(plot);
  flow.bind(flow.tool_of(plot), plotter);
  flow.bind_set(flow.inputs_of(plot)[0], {perf1, perf2});
  const InstanceId product = executor_.run(flow).single(plot);
  ASSERT_EQ(db_.instance(product).derivation.inputs.size(), 2u);

  // The backward trace builds despite the arc-multiplicity excess...
  const graph::TaskGraph trace = history::backward_trace(db_, product);
  EXPECT_TRUE(trace.relaxed());
  trace.check();
  // ...and supersede one input: retrace re-runs the batch with both.
  history::RecordRequest edit;
  edit.type = schema_.require("Performance");
  edit.name = "p1v2";
  edit.user = "u";
  edit.payload = "performance\nmetric max_delay_ps=9\n";
  edit.derivation.tool = editor;
  edit.derivation.inputs = {perf1};
  edit.derivation.input_roles = {""};
  edit.derivation.task = "edit";
  const InstanceId perf1_v2 = db_.record(edit);
  EXPECT_TRUE(db_.is_stale(product));
  const auto fresh = retrace(db_, registry_, product);
  ASSERT_EQ(fresh.size(), 1u);
  const auto& new_inputs = db_.instance(fresh[0]).derivation.inputs;
  ASSERT_EQ(new_inputs.size(), 2u);
  EXPECT_NE(std::find(new_inputs.begin(), new_inputs.end(), perf1_v2),
            new_inputs.end());
  EXPECT_NE(std::find(new_inputs.begin(), new_inputs.end(), perf2),
            new_inputs.end());
  // The batch payload contains both performances.
  EXPECT_NE(db_.payload(fresh[0]).find("max_delay_ps=9"),
            std::string::npos);
  EXPECT_NE(db_.payload(fresh[0]).find("max_delay_ps=5"),
            std::string::npos);
}

TEST_F(ExecutorTest, ExecResultSingleRejectsFanOut) {
  ExecResult result;
  const NodeId n(0);
  EXPECT_THROW((void)result.single(n), ExecError);  // nothing produced
  result.produced[n] = {InstanceId(1), InstanceId(2)};
  EXPECT_THROW((void)result.single(n), ExecError);  // fan-out
  result.produced[n] = {InstanceId(1)};
  EXPECT_EQ(result.single(n), InstanceId(1));
}

/// Bound flow over independent chains, one per `{prefix, depth}`.
graph::TaskGraph chains_flow(
    faulttest::World& w,
    const std::vector<std::pair<std::string, std::size_t>>& chains) {
  for (const auto& [prefix, depth] : chains) {
    faulttest::add_chain(w, prefix, depth);
  }
  graph::TaskGraph flow(w.schema, "chains");
  for (const auto& [prefix, depth] : chains) {
    flow.add_node(prefix + "D" + std::to_string(depth));
  }
  faulttest::expand_all(flow);
  faulttest::bind_leaves(w, flow);
  return flow;
}

TEST_F(ExecutorTest, OneWorkerRecordsInPlanOrder) {
  // Three independent chains: one worker runs the groups in plan order,
  // which interleaves the branches level by level.  Ids and `<Type>#<n>`
  // names follow from that order.
  faulttest::World w;
  const graph::TaskGraph flow =
      chains_flow(w, {{"A", 2}, {"B", 3}, {"C", 1}});
  Executor ex(w.db, w.tools);
  const ExecResult result = ex.run(flow);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.tasks_run, 6u);

  std::vector<std::string> recorded;
  for (const InstanceId id : w.db.all()) {
    recorded.push_back(std::to_string(id.value()) + " " +
                       w.db.instance(id).name);
  }
  const std::vector<std::string> expected = {
      "0 AT2#tool", "1 BT3#tool", "2 CT1#tool", "3 CSrc#src",
      "4 AT1#tool", "5 ASrc#src", "6 BT2#tool", "7 BT1#tool",
      "8 BSrc#src", "9 CD1#9",    "10 AD1#10",  "11 BD1#11",
      "12 AD2#12",  "13 BD2#13",  "14 BD3#14"};
  EXPECT_EQ(recorded, expected);

  std::vector<std::string> journaled;
  for (const auto& task : w.db.runs().front().tasks) {
    journaled.push_back(task.key);
  }
  const std::vector<std::string> expected_tasks = {
      "2:CD1", "4:AD1", "12:BD1", "0:AD2", "6:BD2", "1:BD3"};
  EXPECT_EQ(journaled, expected_tasks);
}

TEST_F(ExecutorTest, CancelRaisedInsideTheFirstGroupIsResumable) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    faulttest::World w;
    std::atomic<bool> cancel{false};
    faulttest::add_chain(w, "K", 3);
    tools::Encapsulation first;
    first.name = "KT1.cancelling";
    first.tool_type = w.schema.require("KT1");
    first.fn = [&cancel](const tools::ToolContext&) {
      cancel.store(true);
      tools::ToolOutput out;
      out.set("KD1", "d1");
      return out;
    };
    w.tools.register_encapsulation(std::move(first));
    w.tools.set_default("KT1.cancelling");
    graph::TaskGraph flow(w.schema, "chain");
    flow.add_node("KD3");
    faulttest::expand_all(flow);
    faulttest::bind_leaves(w, flow);

    Executor ex(w.db, w.tools);
    ex.set_cancel_flag(&cancel);
    ExecOptions options;
    options.parallel = workers > 1;
    options.max_threads = workers;
    try {
      ex.run(flow, options);
      FAIL() << "expected RunCancelled";
    } catch (const RunCancelled& e) {
      EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos);
    }
    ASSERT_EQ(w.db.runs().size(), 1u);
    const history::RunRecord& run = w.db.runs().front();
    const std::uint64_t run_id = run.id;
    EXPECT_TRUE(run.open());
    // The group that raised the flag finished and journaled normally; the
    // two groups behind it never started, so they left no tstart.
    ASSERT_EQ(run.tasks.size(), 1u);
    EXPECT_NE(run.tasks.front().key.find(":KD1"), std::string::npos);
    EXPECT_TRUE(run.tasks.front().finished);
    EXPECT_EQ(run.tasks.front().status, "ok");
    EXPECT_TRUE(w.db.instances_of(w.schema.require("KD2")).empty());

    cancel.store(false);
    const ExecResult resumed = ex.resume(run_id);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.tasks_reused, 1u);
    EXPECT_EQ(resumed.tasks_run, 2u);
    EXPECT_EQ(w.db.find_run(run_id)->outcome, "resumed");
    EXPECT_EQ(w.db.runs().back().outcome, "complete");
    EXPECT_EQ(w.db.instances_of(w.schema.require("KD3")).size(), 1u);
  }
}

/// Fails every task-started journal write, as a full disk would.
class FailingTaskStarts : public history::MutationListener {
 public:
  void on_mutation(std::string_view lines) override {
    if (lines.starts_with("tstart")) {
      throw std::runtime_error("journal: write failed");
    }
  }
};

TEST_F(ExecutorTest, JournalFailureOnAnyWorkerReachesTheCaller) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    faulttest::World w;
    const graph::TaskGraph flow = chains_flow(w, {{"L", 2}, {"R", 2}});
    const std::size_t imported = w.db.size();
    FailingTaskStarts listener;
    w.db.attach_listener(&listener);
    Executor ex(w.db, w.tools);
    ExecOptions options;
    options.parallel = workers > 1;
    options.max_threads = workers;
    try {
      ex.run(flow, options);
      FAIL() << "expected the listener's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "journal: write failed");
    }
    w.db.attach_listener(nullptr);
    // No group got past its task-started frame, and the run is closed.
    EXPECT_EQ(w.db.size(), imported);
    ASSERT_EQ(w.db.runs().size(), 1u);
    EXPECT_EQ(w.db.runs().front().outcome, "failed");
  }
}

}  // namespace
}  // namespace herc::exec
