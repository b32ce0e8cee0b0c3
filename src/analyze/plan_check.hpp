// Pass 3 of `herc lint`: symbolic simulation of a run plan.
//
// The executor turns a flow into a DAG of task groups and, in parallel
// mode, dispatches every group whose dependencies are satisfied.  Two
// groups with no path between them may therefore run concurrently — and
// some flows that are perfectly legal graphs become races or wasted work
// under that schedule.  This pass simulates the schedule symbolically
// (which groups *can* overlap), without running any tool, over the same
// DAG the executor runs (`TaskGroup::preds`, tool edges included).
//
// Diagnostic catalog (DESIGN.md §12 holds the full table):
//
//   HL201 error    concurrent version-lineage conflict: two groups that can
//                  run concurrently both *edit* the same input node (their
//                  output's root entity type equals the input's root type),
//                  so both derive version v+1 of the same lineage — which
//                  one wins depends on scheduling
//   HL202 warning  duplicate task: two concurrent groups run the same tool
//                  type over the same input nodes for the same output
//                  types — identical work dispatched twice
//   HL203 warning  fault-policy hazard: under continue_branches/best_effort
//                  a consumer is wired to a producer only through optional
//                  arcs, yet the scheduler still skips it when the producer
//                  fails — the optional arc suggests it could proceed
//
// HL201/HL202 are only meaningful for parallel schedules; a serial run
// executes groups in plan order, where a double edit is a legitimate
// version chain.
#pragma once

#include "analyze/diagnostic.hpp"
#include "graph/task_graph.hpp"

namespace herc::analyze {

struct PlanCheckOptions {
  /// Simulate the parallel scheduler (enables HL201/HL202).
  bool parallel = true;
  /// Simulate continue_branches / best_effort failure handling (enables
  /// HL203).
  bool continue_on_failure = false;
};

/// Runs every plan check over the flow's task groups; never throws on plan
/// defects (they become diagnostics).  Propagates `FlowError` only if the
/// flow itself is cyclic (task_groups() cannot order it).
[[nodiscard]] LintReport lint_plan(const graph::TaskGraph& flow,
                                   const PlanCheckOptions& options = {});

}  // namespace herc::analyze
