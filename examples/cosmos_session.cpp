// Fig. 2 end to end: a tool created during the design.
//
// The SimCompiler compiles a netlist into a CompiledSimulator — a *tool
// instance* whose payload is the compiled program.  The produced tool is
// then executed on several stimulus sets, and the history shows the tool's
// own derivation like any other design object's.
#include <cstdio>

#include "circuit/cosmos.hpp"
#include "circuit/library.hpp"
#include "circuit/stimuli.hpp"
#include "core/session.hpp"
#include "history/flow_trace.hpp"
#include "schema/standard_schemas.hpp"
#include "support/text.hpp"

using namespace herc;

int main() {
  core::DesignSession session(
      schema::make_fig2_schema(), "bryant",
      std::make_unique<support::ManualClock>(719000000000000, 60000000));

  const auto netlist = session.import_data(
      "Netlist", "4-bit ripple adder",
      circuit::ripple_adder_netlist(4).to_text());
  const auto compiler = session.import_data("SimCompiler", "cosmos", "");

  // Build the Fig. 2 flow: Performance <- CompiledSimulator <- SimCompiler.
  graph::TaskGraph flow = session.task_from_goal("Performance");
  const graph::NodeId perf = flow.nodes().front();
  flow.expand(perf);
  const graph::NodeId compiled = flow.tool_of(perf);
  flow.expand(compiled);  // the tool node itself expands: it is produced
  flow.bind(flow.inputs_of(compiled)[0], netlist);
  flow.bind(flow.tool_of(compiled), compiler);

  // Statistics from the same simulator invocation (multi-output task).
  const graph::NodeId stats =
      flow.add_co_output(perf, session.schema().require("Statistics"));

  // Three stimulus sets: the compiled simulator runs once per set, but is
  // compiled only once.
  std::vector<std::string> nets;
  for (int i = 0; i < 4; ++i) {
    nets.push_back(support::numbered("a", i));
    nets.push_back(support::numbered("b", i));
  }
  nets.push_back("cin");
  const auto st1 = session.import_data(
      "Stimuli", "random walk A",
      circuit::Stimuli::random(nets, 1000, 24, 11).to_text());
  const auto st2 = session.import_data(
      "Stimuli", "random walk B",
      circuit::Stimuli::random(nets, 1000, 24, 22).to_text());
  const auto st3 = session.import_data(
      "Stimuli", "random walk C",
      circuit::Stimuli::random(nets, 1000, 24, 33).to_text());
  flow.bind_set(flow.inputs_of(perf)[0], {st1, st2, st3});

  std::printf("%s\n", session.render_task_window(flow).c_str());
  const exec::ExecResult result = session.run(flow);
  std::printf("tasks run: %zu (1 compile + 3 simulations)\n\n",
              result.tasks_run);

  // Inspect the produced tool.
  const auto compiled_inst = result.of(compiled).front();
  const circuit::CompiledSim program =
      circuit::CompiledSim::from_text(session.db().payload(compiled_inst));
  std::printf("compiled simulator: %zu components, %zu table rows\n",
              program.components.size(), program.table_rows());

  std::printf("statistics instances recorded: %zu\n",
              result.of(stats).size());
  for (const auto perf_inst : result.of(perf)) {
    const auto& inst = session.db().instance(perf_inst);
    const circuit::SimResult r =
        circuit::SimResult::from_text(session.db().payload(perf_inst));
    std::printf("  i%u %-16s output toggles: %llu\n", perf_inst.value(),
                std::string(inst.name.get()).c_str(),
                static_cast<unsigned long long>(r.stats.output_toggles));
  }

  // The tool instance has a derivation history like any design object.
  std::printf("\n== derivation of the compiled simulator ==\n");
  for (const auto anc : session.db().derivation_closure(compiled_inst)) {
    const auto& inst = session.db().instance(anc);
    std::printf("  i%u  %-16s %s\n", anc.value(),
                session.schema().entity_name(inst.type).c_str(),
                std::string(inst.name.get()).c_str());
  }
  std::printf("\n== forward trace from the netlist ==\n%s",
              history::forward_trace(session.db(), netlist).to_dot().c_str());
  return 0;
}
