// Static-analyzer benchmark (EXPERIMENTS.md §S9): lint throughput over a
// populated design history and a Fig. 5-scale flow.  Emits
// BENCH_lint.json in the working directory.
//
// The claim: lint is cheap enough to run before *every* execution — full
// schema + flow + plan analysis over a 12k-instance history must complete
// in low single-digit milliseconds, orders of magnitude below the cost of
// running even one real tool.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "analyze/flow_lint.hpp"
#include "analyze/plan_check.hpp"
#include "analyze/schema_lint.hpp"
#include "graph/task_graph.hpp"
#include "history/history_db.hpp"
#include "schema/standard_schemas.hpp"
#include "support/clock.hpp"
#include "support/text.hpp"
#include "tools/registry.hpp"

namespace {

using namespace herc;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A Fig. 5-scale flow: simulation with statistics co-output, verification
/// reusing the placement chain's nodes, and a plot branch.
graph::TaskGraph big_flow(const schema::TaskSchema& s) {
  graph::TaskGraph flow(s, "fig5");
  const graph::NodeId perf = flow.add_node("Performance");
  flow.expand(perf);
  flow.add_co_output(perf, s.require("Statistics"));
  flow.expand_up(perf, s.require("PerformancePlot"));
  for (const graph::NodeId n : flow.nodes()) {
    if (flow.node(n).type == s.require("Circuit")) flow.expand(n);
  }
  graph::NodeId netlist;
  for (const graph::NodeId n : flow.nodes()) {
    if (flow.node(n).type == s.require("Netlist")) netlist = n;
  }
  flow.specialize(netlist, s.require("EditedNetlist"));
  flow.expand(netlist);
  const graph::NodeId pl = flow.add_node("PlacedLayout");
  flow.expand(pl);
  const graph::NodeId ver = flow.add_node("Verification");
  const graph::NodeId vt = flow.add_node("Verifier");
  flow.connect(ver, vt);
  flow.connect(ver, pl);
  return flow;
}

}  // namespace

int main() {
  const schema::TaskSchema schema = schema::make_full_schema();
  support::ManualClock clock(718000000000000LL, 1000);
  history::HistoryDb db(schema, clock);

  constexpr std::size_t kInstances = 12000;
  constexpr int kIters = 200;

  // Populate: a spread of types so instances_of() queries hit real lists.
  const char* kTypes[] = {"EditedNetlist", "Stimuli", "DeviceModels",
                          "Performance", "PlacedLayout", "Simulator"};
  for (std::size_t i = 0; i < kInstances; ++i) {
    db.import_instance(schema.require(kTypes[i % 6]),
                       support::numbered("b", i), "p", "bench");
  }

  tools::ToolRegistry registry(schema);
  const graph::TaskGraph flow = big_flow(schema);

  auto start = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    (void)analyze::lint_schema(schema);
  }
  const double schema_ms = ms_since(start) / kIters;

  analyze::FlowLintOptions options;
  options.db = &db;
  options.tools = &registry;
  start = Clock::now();
  std::size_t diags = 0;
  for (int i = 0; i < kIters; ++i) {
    diags = analyze::lint_flow(flow, options).diagnostics().size();
  }
  const double flow_ms = ms_since(start) / kIters;

  start = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    (void)analyze::lint_plan(
        flow, {.parallel = true, .continue_on_failure = true});
  }
  const double plan_ms = ms_since(start) / kIters;

  const double total_ms = schema_ms + flow_ms + plan_ms;

  std::ofstream json("BENCH_lint.json", std::ios::trunc);
  json << "{\n"
       << "  \"instances\": " << kInstances << ",\n"
       << "  \"flow_nodes\": " << flow.node_count() << ",\n"
       << "  \"flow_diagnostics\": " << diags << ",\n"
       << "  \"schema_lint_ms\": " << schema_ms << ",\n"
       << "  \"flow_lint_ms\": " << flow_ms << ",\n"
       << "  \"plan_check_ms\": " << plan_ms << ",\n"
       << "  \"total_lint_ms\": " << total_ms << "\n"
       << "}\n";
  json.close();

  std::printf("bench_lint: %zu instances, %zu flow nodes\n", kInstances,
              flow.node_count());
  std::printf("  schema lint   %.3f ms\n", schema_ms);
  std::printf("  flow lint     %.3f ms (%zu diagnostics)\n", flow_ms, diags);
  std::printf("  plan check    %.3f ms\n", plan_ms);
  std::printf("  total         %.3f ms\n", total_ms);
  std::printf("  -> BENCH_lint.json\n");

  // Regression gate: lint must stay pre-run cheap (well under a second
  // even on loaded CI machines).
  if (total_ms > 250.0) {
    std::fprintf(stderr, "FAIL: lint took %.1f ms (budget 250 ms)\n",
                 total_ms);
    return 1;
  }
  return 0;
}
