#include "analyze/plan_check.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace herc::analyze {

using graph::NodeId;
using graph::TaskGraph;
using graph::TaskGroup;
using schema::EntityTypeId;
using schema::TaskSchema;

namespace {

std::string node_loc(const TaskGraph& flow, NodeId n) {
  return "node " + std::to_string(n.value()) + " (" +
         flow.schema().entity_name(flow.node(n).type) + ")";
}

std::string group_loc(const TaskGraph& flow, const TaskGroup& g) {
  return "task producing " + node_loc(flow, g.outputs.front());
}

/// The root of an entity's subtype chain — version lineages live on root
/// types (an EditedNetlist derived from a Netlist *edits* it: same root,
/// version v+1).
EntityTypeId root_type(const TaskSchema& schema, EntityTypeId id) {
  EntityTypeId cur = id;
  while (schema.entity(cur).parent.valid()) cur = schema.entity(cur).parent;
  return cur;
}

/// The symbolic schedule: the executor's task-group DAG plus which groups
/// can overlap in a parallel run (no dependency path either way).
class Schedule {
 public:
  explicit Schedule(const TaskGraph& flow) : groups_(flow.task_groups()) {
    // task_groups() is topologically ordered (dependencies first), so one
    // forward sweep closes the reachability relation.
    reach_.assign(groups_.size(), std::vector<bool>(groups_.size(), false));
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      for (const std::size_t p : groups_[i].preds) {
        reach_[i][p] = true;
        for (std::size_t k = 0; k < groups_.size(); ++k) {
          if (reach_[p][k]) reach_[i][k] = true;
        }
      }
    }
  }

  [[nodiscard]] const std::vector<TaskGroup>& groups() const {
    return groups_;
  }

  /// True when no dependency path orders the two groups — the parallel
  /// scheduler may dispatch them simultaneously.
  [[nodiscard]] bool concurrent(std::size_t a, std::size_t b) const {
    return !reach_[a][b] && !reach_[b][a];
  }

 private:
  std::vector<TaskGroup> groups_;
  std::vector<std::vector<bool>> reach_;
};

void check_version_races(const TaskGraph& flow, const Schedule& sched,
                         LintReport& report) {
  const TaskSchema& schema = flow.schema();
  const auto& groups = sched.groups();
  // input node -> groups whose outputs share its root type (edits: the
  // history will assign those outputs version v+1 of the input's lineage).
  std::map<std::uint32_t, std::vector<std::size_t>> editors;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (const NodeId in : groups[i].inputs) {
      const EntityTypeId in_root = root_type(schema, flow.node(in).type);
      const bool edits = std::any_of(
          groups[i].outputs.begin(), groups[i].outputs.end(),
          [&](NodeId out) {
            return root_type(schema, flow.node(out).type) == in_root;
          });
      if (edits) editors[in.value()].push_back(i);
    }
  }
  for (const auto& [node_raw, who] : editors) {
    for (std::size_t a = 0; a < who.size(); ++a) {
      for (std::size_t b = a + 1; b < who.size(); ++b) {
        if (!sched.concurrent(who[a], who[b])) continue;
        const NodeId shared{node_raw};
        report.add(
            "HL201", Severity::kError, group_loc(flow, groups[who[a]]),
            "version race: this task and the " +
                group_loc(flow, groups[who[b]]) + " can run concurrently "
                "and both edit " + node_loc(flow, shared) +
                " — both derive version v+1 of the same lineage, and "
                "which edit wins depends on scheduling",
            "chain the edits ('flow connect' one task's output into the "
            "other) or run the flow serially");
      }
    }
  }
}

void check_duplicate_tasks(const TaskGraph& flow, const Schedule& sched,
                           LintReport& report) {
  const auto& groups = sched.groups();
  // Identity of the work a group performs: tool *type* (or compose),
  // exact input nodes, output types.
  using Key = std::tuple<std::uint32_t, std::vector<std::uint32_t>,
                         std::vector<std::uint32_t>>;
  std::map<Key, std::vector<std::size_t>> by_work;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const std::uint32_t tool_type =
        groups[i].tool.valid() ? flow.node(groups[i].tool).type.value()
                               : UINT32_MAX;
    std::vector<std::uint32_t> ins;
    for (const NodeId n : groups[i].inputs) ins.push_back(n.value());
    std::sort(ins.begin(), ins.end());
    std::vector<std::uint32_t> out_types;
    for (const NodeId n : groups[i].outputs) {
      out_types.push_back(flow.node(n).type.value());
    }
    std::sort(out_types.begin(), out_types.end());
    by_work[{tool_type, std::move(ins), std::move(out_types)}].push_back(i);
  }
  for (const auto& [key, who] : by_work) {
    for (std::size_t a = 0; a < who.size(); ++a) {
      for (std::size_t b = a + 1; b < who.size(); ++b) {
        if (!sched.concurrent(who[a], who[b])) continue;
        report.add("HL202", Severity::kWarning,
                   group_loc(flow, groups[who[a]]),
                   "duplicate task: the " + group_loc(flow, groups[who[b]]) +
                       " runs the same tool type over the same input nodes "
                       "for the same output types — identical work "
                       "dispatched twice",
                   "reuse one task's outputs ('flow connect') instead of "
                   "duplicating the subgraph");
      }
    }
  }
}

void check_fault_policy(const TaskGraph& flow, const Schedule& sched,
                        LintReport& report) {
  const auto& groups = sched.groups();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    // For each producer group feeding this one, check whether any wiring
    // edge is mandatory.  An all-optional link still causes a skip when the
    // producer fails (the scheduler does not distinguish), which the
    // optional arc's promise contradicts.
    for (const std::size_t p : groups[i].preds) {
      const auto& made = groups[p].outputs;
      bool linked = false;
      bool mandatory = false;
      for (const NodeId out : groups[i].outputs) {
        for (const graph::DepEdge& e : flow.deps(out)) {
          if (e.kind != schema::DepKind::kData ||
              !std::binary_search(made.begin(), made.end(), e.target)) {
            continue;
          }
          linked = true;
          mandatory = mandatory || !e.optional;
        }
      }
      if (!linked || mandatory) continue;
      report.add(
          "HL203", Severity::kWarning, group_loc(flow, groups[i]),
          "fault-policy hazard: depends on the " +
              group_loc(flow, groups[p]) + " only through optional arcs, "
              "but under continue_branches its failure still skips this "
              "task",
          "make the dependency mandatory (the skip is then expected) or "
          "drop the optional edge so the task can proceed without it");
    }
  }
}

}  // namespace

LintReport lint_plan(const TaskGraph& flow, const PlanCheckOptions& options) {
  LintReport report("plan for flow '" + flow.name() + "'");
  const Schedule sched(flow);
  if (options.parallel) {
    check_version_races(flow, sched, report);
    check_duplicate_tasks(flow, sched, report);
  }
  if (options.continue_on_failure) {
    check_fault_policy(flow, sched, report);
  }
  return report;
}

}  // namespace herc::analyze
