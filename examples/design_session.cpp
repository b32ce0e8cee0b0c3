// A multi-day design session: the four approaches of §3.4, version trees
// vs. flow traces (Fig. 11), the browser filters of Fig. 9, consistency
// maintenance, and session persistence.
#include <cstdio>

#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "circuit/stimuli.hpp"
#include "core/session.hpp"
#include "exec/consistency.hpp"
#include "history/flow_trace.hpp"
#include "schema/standard_schemas.hpp"
#include "support/text.hpp"

using namespace herc;

namespace {

void print_rows(const core::InstanceBrowser& browser,
                const core::BrowserFilter& filter) {
  std::printf("%s\n", browser.render(filter).c_str());
}

}  // namespace

int main() {
  // Oct 1992, as in Fig. 9's date-limit boxes.  One tick per minute.
  auto clock = std::make_unique<support::ManualClock>(718000000000000LL,
                                                      60LL * 1000000);
  support::ManualClock* clk = clock.get();
  core::DesignSession session(schema::make_full_schema(), "jbb",
                              std::move(clock));

  // Day 1 (jbb): import the base data and run a first simulation.
  const auto netlist = session.import_data(
      "EditedNetlist", "Low pass filter",
      circuit::inverter_chain(4).to_text(), "first cut");
  const auto models = session.import_data(
      "DeviceModels", "models", circuit::DeviceModelLibrary::standard()
                                    .to_text());
  const auto stimuli = session.import_data(
      "Stimuli", "step input",
      circuit::Stimuli::random({"in"}, 2000, 16, 5).to_text());
  const auto simulator = session.import_data("Simulator", "switchsim", "");

  // Goal-based approach.
  graph::TaskGraph flow = session.task_from_goal("Performance");
  const graph::NodeId perf = flow.nodes().front();
  flow.expand(perf);
  const auto circuit_inputs = flow.expand(flow.inputs_of(perf)[0]);
  flow.bind(flow.tool_of(perf), simulator);
  flow.bind(flow.inputs_of(perf)[1], stimuli);
  flow.bind(circuit_inputs[0], models);
  flow.bind(circuit_inputs[1], netlist);
  flow.set_name("LPF Simulation");
  const auto perf1 = session.run(flow).single(perf);
  session.annotate(perf1, "LPF Simulation", "baseline run");

  // Save the flow for later (the plan-based approach's library).
  session.flows().save(flow);

  // Day 2 (director): edit the circuit twice, creating versions v2, v3,
  // and a branch v2' — the version tree of Fig. 11.
  clk->advance(24LL * 3600 * 1000000);
  session.set_user("director");
  const auto make_edit = [&](data::InstanceId base, const char* name,
                             const char* script) {
    const auto editor = session.import_data("CircuitEditor", name, script);
    graph::TaskGraph edit = session.task_from_goal("EditedNetlist");
    const graph::NodeId goal = edit.nodes().front();
    edit.expand(goal, graph::ExpandOptions{.include_optional = true});
    edit.bind(edit.tool_of(goal), editor);
    edit.bind(edit.inputs_of(goal)[0], base);
    const auto out = session.run(edit).single(goal);
    session.annotate(out, name, script);
    return out;
  };
  const auto v2 = make_edit(netlist, "widen stage 0",
                            "set s0.mn value=2\nset s0.mp value=2\n");
  const auto v3 = make_edit(v2, "widen stage 1",
                            "set s1.mn value=2\nset s1.mp value=2\n");
  const auto v2b = make_edit(netlist, "alternative: shrink stage 3",
                             "set s3.mn value=0.6\nset s3.mp value=0.6\n");

  // Fig. 11a: the traditional version tree...
  const auto tree = history::version_tree(session.db(), v3);
  std::printf("== version tree of the netlist (Fig. 11a) ==\n");
  for (const auto& entry : tree.entries) {
    std::printf("  i%u v%u (parent %s)\n", entry.instance.value(),
                entry.version,
                entry.parent.valid()
                    ? support::numbered("i", entry.parent.value()).c_str()
                    : "-");
  }
  // ...and Fig. 11b: the flow trace, a superset showing the tools.
  std::printf("\n== the same lineage as a flow trace (Fig. 11b) ==\n%s\n",
              history::lineage_trace(session.db(), v3).to_dot().c_str());

  // Day 3 (sutton): re-run the saved plan against the newest version —
  // the plan-based approach plus consistency maintenance.
  clk->advance(24LL * 3600 * 1000000);
  session.set_user("sutton");

  std::printf("performance i%u stale after the edits? %s\n", perf1.value(),
              session.db().is_stale(perf1) ? "yes" : "no");
  const auto freshened =
      exec::retrace(session.db(), session.tools(), perf1);
  std::printf("retraced -> i%u (derives from netlist v%u)\n\n",
              freshened.front().value(),
              session.db()
                  .instance(session.db()
                                .instance(freshened.front())
                                .derivation.inputs.front())
                  .version);

  // Tool-based approach: what can the Plotter produce?
  auto tool_start = session.task_from_tool("Plotter");
  std::printf("tool-based start from Plotter: can produce");
  for (const auto t : tool_start.producible) {
    std::printf(" %s", session.schema().entity_name(t).c_str());
  }
  std::printf("\n");

  // Data-based approach: what consumes a Performance?
  auto data_start = session.task_from_data(freshened.front());
  std::printf("data-based start from i%u: consumed by",
              freshened.front().value());
  for (const auto t : data_start.consumers) {
    std::printf(" %s", session.schema().entity_name(t).c_str());
  }
  std::printf("\n\n");

  // The Fig. 9 browser with its filters.
  const auto browser = session.browse("Netlist");
  std::printf("-- all netlists --\n");
  print_rows(browser, {});
  core::BrowserFilter filter;
  filter.user = "director";
  std::printf("-- user limit: director --\n");
  print_rows(browser, filter);
  filter = {};
  filter.keyword = "stage 1";
  std::printf("-- keyword: 'stage 1' --\n");
  print_rows(browser, filter);
  filter = {};
  filter.uses = v2;
  const auto edits_of_v2 = session.browse("EditedNetlist");
  std::printf("-- Use Dependencies on i%u --\n", v2.value());
  print_rows(edits_of_v2, filter);

  // Session persistence: everything (history, flows, schema) round-trips.
  const std::string saved = session.save();
  const auto restored = core::DesignSession::load(saved);
  std::printf("session saved (%zu bytes) and restored: %zu instances, "
              "flow catalog %s\n",
              saved.size(), restored->db().size(),
              restored->flows().contains("LPF Simulation") ? "intact"
                                                           : "missing");
  // The restored session can instantiate and re-run the saved plan.
  graph::TaskGraph replay =
      restored->task_from_plan("LPF Simulation");
  std::printf("plan 'LPF Simulation' instantiated with %zu nodes, "
              "%zu unbound leaves\n",
              replay.node_count(), replay.unbound_leaves().size());
  (void)v2b;
  return 0;
}
