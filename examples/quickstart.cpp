// Quickstart: the paper's §4.1 walk-through.
//
// "Suppose the designer wishes to obtain a circuit performance from an
// existing netlist."  We build the Fig. 1 task schema, grow a flow with
// expand operations starting from the goal entity, fill in instances via
// the browser, execute, and query the design history.
#include <cstdio>

#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "circuit/plot.hpp"
#include "circuit/sim.hpp"
#include "circuit/stimuli.hpp"
#include "core/session.hpp"
#include "history/flow_trace.hpp"
#include "schema/schema_io.hpp"
#include "schema/standard_schemas.hpp"

using namespace herc;

int main() {
  // A session over the full Odyssey demo schema with deterministic time.
  core::DesignSession session(
      schema::make_full_schema(), "sutton",
      std::make_unique<support::ManualClock>(718000000000000, 60000000));

  std::printf("== task schema (Fig. 1) ==\n%s\n",
              schema::write_schema(session.schema()).c_str());

  // The designer's pre-existing data: a full-adder netlist, device models,
  // stimuli, and the simulator tool itself (tools are entities too).
  const auto netlist = session.import_data(
      "EditedNetlist", "CMOS Full adder",
      circuit::full_adder_netlist().to_text(), "hand-entered schematic");
  const auto models =
      session.import_data("DeviceModels", "standard models",
                          circuit::DeviceModelLibrary::standard().to_text());
  const auto stimuli = session.import_data(
      "Stimuli", "exhaustive counter",
      circuit::Stimuli::counter({"a", "b", "cin"}, 2000).to_text());
  const auto simulator =
      session.import_data("Simulator", "switchsim v1", "");

  // Goal-based approach: start from the goal entity and expand on demand.
  graph::TaskGraph flow = session.task_from_goal("Performance");
  const graph::NodeId perf = flow.nodes().front();
  flow.expand(perf);
  const graph::NodeId circuit_node = flow.inputs_of(perf)[0];
  const auto circuit_inputs = flow.expand(circuit_node);

  std::printf("== flow as a task graph (Fig. 3b), Lisp form ==\n%s\n\n",
              flow.to_lisp(perf).c_str());

  // Bind instances to the leaves (the browser selection of Fig. 9).
  flow.bind(flow.tool_of(perf), simulator);
  flow.bind(flow.inputs_of(perf)[1], stimuli);
  flow.bind(circuit_inputs[0], models);
  flow.bind(circuit_inputs[1], netlist);
  std::printf("%s\n", session.render_task_window(flow).c_str());

  // Execute: the compose task and the simulation run, and every product is
  // recorded in the design history with its derivation.
  const exec::ExecResult result = session.run(flow);
  const auto perf_inst = result.single(perf);
  std::printf("executed %zu tasks; performance instance i%u\n\n",
              result.tasks_run, perf_inst.value());

  // Plot the performance (the Plotter tool of Fig. 1, run as a one-node
  // sub-flow grown from the data-based approach).
  auto data_start = session.task_from_data(perf_inst);
  const graph::NodeId plot_node =
      data_start.flow.expand_up(data_start.data_node,
                                session.schema().require("PerformancePlot"));
  data_start.flow.bind(data_start.flow.tool_of(plot_node),
                       session.import_data("Plotter", "ascii plotter", ""));
  const auto plot_inst = session.run(data_start.flow).single(plot_node);
  std::printf("%s\n", session.db().payload(plot_inst).c_str());

  // Query the history: backward chaining from the performance.
  std::printf("== derivation history of i%u (backward chaining) ==\n",
              perf_inst.value());
  for (const auto anc : session.db().derivation_closure(perf_inst)) {
    const auto& inst = session.db().instance(anc);
    std::printf("  i%u  %-18s %s\n", anc.value(),
                session.schema().entity_name(inst.type).c_str(),
                std::string(inst.name.get()).c_str());
  }

  // ...and forward chaining from the netlist ("Use dependencies").
  std::printf("\n== everything derived from the netlist ==\n");
  for (const auto dep : session.db().dependent_closure(netlist)) {
    const auto& inst = session.db().instance(dep);
    std::printf("  i%u  %-18s %s\n", dep.value(),
                session.schema().entity_name(inst.type).c_str(),
                std::string(inst.name.get()).c_str());
  }

  std::printf("\n== flow trace of the performance (Fig. 11b form) ==\n%s\n",
              history::backward_trace(session.db(), perf_inst)
                  .to_dot()
                  .c_str());
  return 0;
}
