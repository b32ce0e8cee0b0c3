#include "graph/bipartite.hpp"

#include <unordered_map>

#include "support/dot.hpp"
#include "support/text.hpp"

namespace herc::graph {

BipartiteDiagram to_bipartite(const TaskGraph& flow) {
  BipartiteDiagram out;
  std::unordered_map<std::uint32_t, std::size_t> data_index;

  auto data_box = [&](NodeId n) -> std::size_t {
    const auto it = data_index.find(n.value());
    if (it != data_index.end()) return it->second;
    const std::size_t idx = out.data.size();
    out.data.push_back(BipartiteDiagram::DataBox{
        flow.schema().entity_name(flow.node(n).type), n});
    data_index.emplace(n.value(), idx);
    return idx;
  };

  for (const TaskGroup& group : flow.task_groups()) {
    BipartiteDiagram::ActivityBox activity;
    activity.tool_node = group.tool;
    activity.tool =
        group.tool.valid()
            ? flow.schema().entity_name(flow.node(group.tool).type)
            : std::string("compose");
    for (const NodeId in : group.inputs) {
      activity.inputs.push_back(data_box(in));
    }
    for (const NodeId outn : group.outputs) {
      activity.outputs.push_back(data_box(outn));
    }
    // A produced tool also shows up as a data box: it is data to the task
    // that made it, an activity to the task that runs it.
    if (group.tool.valid() && !flow.deps(group.tool).empty()) {
      data_box(group.tool);
    }
    out.activities.push_back(std::move(activity));
  }
  // Free-standing data nodes (leaves of an unexpanded flow) still appear.
  for (const NodeId n : flow.nodes()) {
    if (flow.deps(n).empty() && flow.consumers_of(n).empty()) {
      data_box(n);
    }
  }
  return out;
}

std::string BipartiteDiagram::to_dot() const {
  support::DotBuilder dot("bipartite");
  dot.graph_attr("rankdir", "LR");
  for (std::size_t i = 0; i < data.size(); ++i) {
    dot.node(support::numbered("d", i), data[i].entity, {"shape=\"box\""});
  }
  for (std::size_t a = 0; a < activities.size(); ++a) {
    const std::string id = support::numbered("a", a);
    dot.node(id, activities[a].tool, {"shape=\"ellipse\""});
    for (const std::size_t in : activities[a].inputs) {
      dot.edge(support::numbered("d", in), id);
    }
    for (const std::size_t outn : activities[a].outputs) {
      dot.edge(id, support::numbered("d", outn));
    }
  }
  return dot.str();
}

std::string BipartiteDiagram::render_text() const {
  std::string out;
  for (const ActivityBox& activity : activities) {
    out += '[';
    for (std::size_t i = 0; i < activity.inputs.size(); ++i) {
      if (i != 0) out += ", ";
      out += data[activity.inputs[i]].entity;
    }
    out += "] --" + activity.tool + "--> [";
    for (std::size_t i = 0; i < activity.outputs.size(); ++i) {
      if (i != 0) out += ", ";
      out += data[activity.outputs[i]].entity;
    }
    out += "]\n";
  }
  return out;
}

}  // namespace herc::graph
