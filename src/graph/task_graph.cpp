#include "graph/task_graph.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "support/dot.hpp"
#include "support/error.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

namespace herc::graph {

using schema::ConstructionRule;
using schema::DepKind;
using schema::Dependency;
using schema::EntityTypeId;
using support::FlowError;

TaskGraph::TaskGraph(const schema::TaskSchema& schema, std::string name)
    : schema_(&schema), name_(std::move(name)) {}

void TaskGraph::check_node_id(NodeId n) const {
  if (!n.valid() || n.index() >= nodes_.size() || !nodes_[n.index()].alive) {
    throw FlowError("flow '" + name_ + "': invalid or removed node id");
  }
}

Node& TaskGraph::node_mut(NodeId n) {
  check_node_id(n);
  return nodes_[n.index()];
}

const Node& TaskGraph::node(NodeId n) const {
  check_node_id(n);
  return nodes_[n.index()];
}

NodeId TaskGraph::new_node(EntityTypeId type) {
  Node node;
  node.type = type;
  node.original_type = type;
  const NodeId id(static_cast<std::uint32_t>(nodes_.size()));
  nodes_.push_back(std::move(node));
  deps_.emplace_back();
  consumers_.emplace_back();
  return id;
}

NodeId TaskGraph::add_node(EntityTypeId type) {
  (void)schema_->entity(type);  // validates the id against the schema
  return new_node(type);
}

NodeId TaskGraph::add_node(std::string_view type_name) {
  return new_node(schema_->require(type_name));
}

void TaskGraph::add_edge(NodeId from, const DepEdge& edge) {
  deps_[from.index()].push_back(edge);
  consumers_[edge.target.index()].push_back(from);
}

bool TaskGraph::creates_cycle(NodeId from, NodeId to) const {
  // Adding from -> to creates a cycle iff `from` is reachable from `to`.
  if (from == to) return true;
  std::vector<NodeId> stack{to};
  std::unordered_set<std::uint32_t> seen;
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur.value()).second) continue;
    for (const DepEdge& e : deps_[cur.index()]) {
      if (e.target == from) return true;
      stack.push_back(e.target);
    }
  }
  return false;
}

std::vector<NodeId> TaskGraph::expand(NodeId n, const ExpandOptions& opts) {
  const Node& node = this->node(n);
  if (node.expanded) {
    throw FlowError("node '" + schema_->entity_name(node.type) +
                    "' is already expanded");
  }
  if (schema_->is_abstract(node.type)) {
    throw FlowError("cannot expand abstract entity '" +
                    schema_->entity_name(node.type) +
                    "': specialize it first");
  }
  const ConstructionRule rule = schema_->construction(node.type);
  if (rule.empty()) {
    throw FlowError("source entity '" + schema_->entity_name(node.type) +
                    "' has no construction rule to expand");
  }
  std::vector<NodeId> created;
  if (rule.has_tool()) {
    const NodeId tool = new_node(rule.tool);
    nodes_[tool.index()].auto_created = true;
    add_edge(n, DepEdge{tool, DepKind::kFunctional, false, ""});
    created.push_back(tool);
  }
  for (const Dependency& dep : rule.inputs) {
    if (dep.optional && !opts.include_optional) continue;
    const NodeId input = new_node(dep.target);
    nodes_[input.index()].auto_created = true;
    add_edge(n, DepEdge{input, DepKind::kData, dep.optional, dep.role});
    created.push_back(input);
  }
  node_mut(n).expanded = true;
  return created;
}

std::optional<Dependency> TaskGraph::free_arc_for(NodeId consumer,
                                                  NodeId input) const {
  const ConstructionRule rule = schema_->construction(node(consumer).type);
  if (rule.empty()) return std::nullopt;

  // Mark the arcs already satisfied by existing edges.
  bool tool_used = false;
  std::vector<char> used(rule.inputs.size(), 0);
  for (const DepEdge& e : deps_[consumer.index()]) {
    if (e.kind == DepKind::kFunctional) {
      tool_used = true;
      continue;
    }
    for (std::size_t i = 0; i < rule.inputs.size(); ++i) {
      if (used[i]) continue;
      if (rule.inputs[i].role == e.role &&
          schema_->is_ancestor_or_self(rule.inputs[i].target,
                                       node(e.target).type)) {
        used[i] = 1;
        break;
      }
    }
  }

  const EntityTypeId in_type = node(input).type;
  if (rule.has_tool() && !tool_used &&
      schema_->is_ancestor_or_self(rule.tool, in_type)) {
    return Dependency{rule.tool, DepKind::kFunctional, false, ""};
  }
  for (std::size_t i = 0; i < rule.inputs.size(); ++i) {
    if (!used[i]) {
      if (schema_->is_ancestor_or_self(rule.inputs[i].target, in_type)) {
        return rule.inputs[i];
      }
    }
  }
  return std::nullopt;
}

void TaskGraph::connect(NodeId consumer, NodeId input) {
  check_node_id(consumer);
  check_node_id(input);
  const auto arc = free_arc_for(consumer, input);
  if (!arc) {
    throw FlowError("no unsatisfied arc of '" +
                    schema_->entity_name(node(consumer).type) +
                    "' accepts a '" + schema_->entity_name(node(input).type) +
                    "'");
  }
  if (creates_cycle(consumer, input)) {
    throw FlowError("connecting would create a cycle in flow '" + name_ +
                    "'");
  }
  add_edge(consumer,
           DepEdge{input, arc->kind, arc->optional, arc->role});
}

void TaskGraph::connect_role(NodeId consumer, NodeId input,
                             std::string_view role) {
  check_node_id(consumer);
  check_node_id(input);
  const ConstructionRule rule = schema_->construction(node(consumer).type);
  // Mark the arcs already satisfied by existing edges (role + type match,
  // greedily, mirroring free_arc_for), then pick an unused arc with the
  // requested role that accepts `input`.
  std::vector<char> used(rule.inputs.size(), 0);
  for (const DepEdge& e : deps_[consumer.index()]) {
    if (e.kind != DepKind::kData) continue;
    for (std::size_t i = 0; i < rule.inputs.size(); ++i) {
      if (used[i] || rule.inputs[i].role != e.role) continue;
      if (schema_->is_ancestor_or_self(rule.inputs[i].target,
                                       node(e.target).type)) {
        used[i] = 1;
        break;
      }
    }
  }
  const Dependency* candidate = nullptr;
  for (std::size_t i = 0; i < rule.inputs.size(); ++i) {
    if (used[i] || rule.inputs[i].role != role) continue;
    if (schema_->is_ancestor_or_self(rule.inputs[i].target,
                                     node(input).type)) {
      candidate = &rule.inputs[i];
      break;
    }
  }
  if (candidate == nullptr) {
    throw FlowError("no unsatisfied arc with role '" + std::string(role) +
                    "' of '" + schema_->entity_name(node(consumer).type) +
                    "' accepts a '" +
                    schema_->entity_name(node(input).type) + "'");
  }
  if (creates_cycle(consumer, input)) {
    throw FlowError("connecting would create a cycle in flow '" + name_ +
                    "'");
  }
  add_edge(consumer, DepEdge{input, DepKind::kData, candidate->optional,
                             std::string(role)});
}

void TaskGraph::add_trace_edge(NodeId consumer, NodeId input,
                               DepKind kind, std::string_view role) {
  check_node_id(consumer);
  check_node_id(input);
  if (kind == DepKind::kFunctional) {
    if (tool_of(consumer).valid()) {
      throw FlowError("trace node already has a functional dependency");
    }
    const ConstructionRule rule =
        schema_->construction(node(consumer).type);
    if (!rule.has_tool() ||
        !schema_->is_ancestor_or_self(rule.tool, node(input).type)) {
      throw FlowError("trace fd edge does not conform to the schema");
    }
  } else {
    // The edge must conform to *some* arc with this role (multiplicity
    // unconstrained: a set-accepting encapsulation legally exceeds it).
    const ConstructionRule rule =
        schema_->construction(node(consumer).type);
    const bool conforms = std::any_of(
        rule.inputs.begin(), rule.inputs.end(),
        [&](const Dependency& arc) {
          return arc.role == role &&
                 schema_->is_ancestor_or_self(arc.target,
                                              node(input).type);
        });
    if (!conforms) {
      throw FlowError("trace dd edge with role '" + std::string(role) +
                      "' does not conform to any arc of '" +
                      schema_->entity_name(node(consumer).type) + "'");
    }
  }
  if (creates_cycle(consumer, input)) {
    throw FlowError("trace edge would create a cycle");
  }
  add_edge(consumer, DepEdge{input, kind, false, std::string(role)});
  relaxed_ = true;
}

NodeId TaskGraph::expand_up(NodeId n, EntityTypeId consumer_type,
                            const ExpandOptions& opts) {
  check_node_id(n);
  (void)schema_->entity(consumer_type);
  if (schema_->is_abstract(consumer_type)) {
    throw FlowError("cannot expand towards abstract entity '" +
                    schema_->entity_name(consumer_type) + "'");
  }
  const ConstructionRule rule = schema_->construction(consumer_type);
  if (rule.empty()) {
    throw FlowError("'" + schema_->entity_name(consumer_type) +
                    "' is a source entity: nothing consumes through it");
  }

  // Decide how `n` wires into the consumer *before* mutating the graph:
  // as its tool if it is one, else as the first matching data input.
  const EntityTypeId in_type = node(n).type;
  const bool wired_as_tool =
      rule.has_tool() && schema_->is_ancestor_or_self(rule.tool, in_type);
  std::size_t wired_input = rule.inputs.size();
  if (!wired_as_tool) {
    for (std::size_t i = 0; i < rule.inputs.size(); ++i) {
      if (schema_->is_ancestor_or_self(rule.inputs[i].target, in_type)) {
        wired_input = i;
        break;
      }
    }
    if (wired_input == rule.inputs.size()) {
      throw FlowError("'" + schema_->entity_name(consumer_type) +
                      "' has no arc accepting a '" +
                      schema_->entity_name(in_type) + "'");
    }
  }

  const NodeId consumer = new_node(consumer_type);
  nodes_[consumer.index()].auto_created = true;
  if (wired_as_tool) {
    add_edge(consumer, DepEdge{n, DepKind::kFunctional, false, ""});
  } else {
    add_edge(consumer, DepEdge{n, DepKind::kData,
                               rule.inputs[wired_input].optional,
                               rule.inputs[wired_input].role});
  }

  // Materialize the rest of the construction rule.
  if (rule.has_tool() && !wired_as_tool) {
    const NodeId tool = new_node(rule.tool);
    nodes_[tool.index()].auto_created = true;
    add_edge(consumer, DepEdge{tool, DepKind::kFunctional, false, ""});
  }
  for (std::size_t i = 0; i < rule.inputs.size(); ++i) {
    if (i == wired_input) continue;
    const Dependency& dep = rule.inputs[i];
    if (dep.optional && !opts.include_optional) continue;
    const NodeId input = new_node(dep.target);
    nodes_[input.index()].auto_created = true;
    add_edge(consumer, DepEdge{input, DepKind::kData, dep.optional, dep.role});
  }
  nodes_[consumer.index()].expanded = true;
  return consumer;
}

void TaskGraph::unexpand(NodeId n) {
  Node& node = node_mut(n);
  if (!node.expanded && deps_[n.index()].empty()) {
    throw FlowError("node '" + schema_->entity_name(node.type) +
                    "' is not expanded");
  }
  // Detach all dependencies of `n`.
  std::vector<NodeId> detached;
  for (const DepEdge& e : deps_[n.index()]) detached.push_back(e.target);
  deps_[n.index()].clear();
  for (const NodeId t : detached) {
    auto& cons = consumers_[t.index()];
    cons.erase(std::find(cons.begin(), cons.end(), n));
  }
  node.expanded = false;

  // Garbage-collect auto-created nodes that are now orphans.
  std::deque<NodeId> queue(detached.begin(), detached.end());
  while (!queue.empty()) {
    const NodeId cand = queue.front();
    queue.pop_front();
    Node& c = nodes_[cand.index()];
    if (!c.alive || !c.auto_created || !consumers_[cand.index()].empty()) {
      continue;
    }
    for (const DepEdge& e : deps_[cand.index()]) {
      auto& cons = consumers_[e.target.index()];
      cons.erase(std::find(cons.begin(), cons.end(), cand));
      queue.push_back(e.target);
    }
    deps_[cand.index()].clear();
    c.alive = false;
  }
}

void TaskGraph::specialize(NodeId n, EntityTypeId subtype) {
  Node& node = node_mut(n);
  (void)schema_->entity(subtype);
  if (node.expanded) {
    throw FlowError("cannot specialize an expanded node; unexpand first");
  }
  if (subtype == node.type) {
    throw FlowError("node is already of type '" +
                    schema_->entity_name(subtype) + "'");
  }
  if (!schema_->is_ancestor_or_self(node.type, subtype)) {
    throw FlowError("'" + schema_->entity_name(subtype) +
                    "' is not a subtype of '" +
                    schema_->entity_name(node.type) + "'");
  }
  node.type = subtype;
}

NodeId TaskGraph::add_co_output(NodeId existing_goal, EntityTypeId type) {
  check_node_id(existing_goal);
  (void)schema_->entity(type);
  const NodeId tool = tool_of(existing_goal);
  if (!tool.valid()) {
    throw FlowError("node has no tool to share for a co-output");
  }
  const ConstructionRule rule = schema_->construction(type);
  if (!rule.has_tool() ||
      !schema_->is_ancestor_or_self(rule.tool, node(tool).type)) {
    throw FlowError("'" + schema_->entity_name(type) +
                    "' is not produced by tool '" +
                    schema_->entity_name(node(tool).type) + "'");
  }
  const NodeId out = new_node(type);
  add_edge(out, DepEdge{tool, DepKind::kFunctional, false, ""});

  const std::vector<NodeId> shared = inputs_of(existing_goal);
  std::vector<char> taken(shared.size(), 0);
  for (const Dependency& dep : rule.inputs) {
    if (dep.optional) continue;
    bool satisfied = false;
    for (std::size_t i = 0; i < shared.size(); ++i) {
      if (taken[i]) continue;
      if (schema_->is_ancestor_or_self(dep.target, node(shared[i]).type)) {
        add_edge(out, DepEdge{shared[i], DepKind::kData, dep.optional,
                              dep.role});
        taken[i] = 1;
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      const NodeId input = new_node(dep.target);
      nodes_[input.index()].auto_created = true;
      add_edge(out, DepEdge{input, DepKind::kData, dep.optional, dep.role});
    }
  }
  nodes_[out.index()].expanded = true;
  return out;
}

void TaskGraph::bind(NodeId n, data::InstanceId instance) {
  bind_set(n, {instance});
}

void TaskGraph::bind_set(NodeId n, std::vector<data::InstanceId> instances) {
  if (instances.empty()) {
    throw FlowError("bind_set requires at least one instance");
  }
  node_mut(n).bound = std::move(instances);
}

void TaskGraph::unbind(NodeId n) { node_mut(n).bound.clear(); }

const std::vector<data::InstanceId>& TaskGraph::bindings(NodeId n) const {
  return node(n).bound;
}

std::size_t TaskGraph::node_count() const {
  std::size_t count = 0;
  for (const Node& n : nodes_) count += n.alive ? 1 : 0;
  return count;
}

std::vector<NodeId> TaskGraph::nodes() const {
  std::vector<NodeId> out;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].alive) out.push_back(NodeId(i));
  }
  return out;
}

void TaskGraph::set_label(NodeId n, std::string label) {
  node_mut(n).label = std::move(label);
}

const std::vector<DepEdge>& TaskGraph::deps(NodeId n) const {
  check_node_id(n);
  return deps_[n.index()];
}

NodeId TaskGraph::tool_of(NodeId n) const {
  check_node_id(n);
  for (const DepEdge& e : deps_[n.index()]) {
    if (e.kind == DepKind::kFunctional) return e.target;
  }
  return NodeId();
}

std::vector<NodeId> TaskGraph::inputs_of(NodeId n) const {
  check_node_id(n);
  std::vector<NodeId> out;
  for (const DepEdge& e : deps_[n.index()]) {
    if (e.kind == DepKind::kData) out.push_back(e.target);
  }
  return out;
}

std::vector<NodeId> TaskGraph::consumers_of(NodeId n) const {
  check_node_id(n);
  return consumers_[n.index()];
}

std::vector<NodeId> TaskGraph::leaves() const {
  std::vector<NodeId> out;
  for (const NodeId n : nodes()) {
    if (deps_[n.index()].empty()) out.push_back(n);
  }
  return out;
}

std::vector<NodeId> TaskGraph::goals() const {
  std::vector<NodeId> out;
  for (const NodeId n : nodes()) {
    if (consumers_[n.index()].empty()) out.push_back(n);
  }
  return out;
}

bool TaskGraph::is_leaf(NodeId n) const {
  check_node_id(n);
  return deps_[n.index()].empty();
}

std::vector<NodeId> TaskGraph::unbound_leaves() const {
  std::vector<NodeId> out;
  for (const NodeId n : leaves()) {
    if (nodes_[n.index()].bound.empty()) out.push_back(n);
  }
  return out;
}

std::vector<NodeId> TaskGraph::closure(NodeId goal) const {
  check_node_id(goal);
  std::vector<NodeId> order;
  std::unordered_set<std::uint32_t> seen;
  std::vector<NodeId> stack{goal};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur.value()).second) continue;
    order.push_back(cur);
    for (const DepEdge& e : deps_[cur.index()]) stack.push_back(e.target);
  }
  std::sort(order.begin(), order.end());
  return order;
}

bool TaskGraph::runnable(NodeId goal) const {
  for (const NodeId n : closure(goal)) {
    if (deps_[n.index()].empty() && nodes_[n.index()].bound.empty()) {
      return false;
    }
  }
  return true;
}

std::vector<TaskGroup> TaskGraph::task_groups() const {
  // Group computable nodes by (tool node, input set); a shared tool node
  // with identical inputs means one invocation with multiple outputs.
  std::map<std::pair<std::uint32_t, std::vector<NodeId>>, TaskGroup> groups;
  for (const NodeId n : nodes()) {
    if (deps_[n.index()].empty()) continue;
    const NodeId tool = tool_of(n);
    std::vector<NodeId> inputs = inputs_of(n);
    std::sort(inputs.begin(), inputs.end());
    // Compose tasks (no tool) never merge: key them by their output node.
    const std::uint32_t tool_key = tool.valid() ? tool.value()
                                                : 0x80000000u + n.value();
    auto& group = groups[{tool_key, inputs}];
    group.tool = tool;
    group.inputs = inputs;
    group.outputs.push_back(n);
  }

  // Topological order over groups (a group needing another's output runs
  // after it).  `preds` index `all` until the final renumbering.
  std::vector<TaskGroup> all;
  all.reserve(groups.size());
  for (auto& [key, group] : groups) {
    std::sort(group.outputs.begin(), group.outputs.end());
    all.push_back(std::move(group));
  }
  std::unordered_map<std::uint32_t, std::size_t> producer;  // node -> group
  for (std::size_t g = 0; g < all.size(); ++g) {
    for (const NodeId out : all[g].outputs) producer[out.value()] = g;
  }
  std::vector<std::vector<std::size_t>> succs(all.size());
  for (std::size_t g = 0; g < all.size(); ++g) {
    auto feeds = all[g].inputs;
    if (all[g].tool.valid()) feeds.push_back(all[g].tool);
    std::vector<std::size_t>& preds = all[g].preds;
    for (const NodeId in : feeds) {
      const auto it = producer.find(in.value());
      if (it != producer.end() && it->second != g &&
          std::find(preds.begin(), preds.end(), it->second) == preds.end()) {
        preds.push_back(it->second);
        succs[it->second].push_back(g);
      }
    }
  }
  std::vector<std::size_t> indeg(all.size());
  std::deque<std::size_t> ready;
  for (std::size_t g = 0; g < all.size(); ++g) {
    indeg[g] = all[g].preds.size();
    if (indeg[g] == 0) ready.push_back(g);
  }
  std::vector<std::size_t> position(all.size());
  std::vector<TaskGroup> ordered;
  ordered.reserve(all.size());
  while (!ready.empty()) {
    const std::size_t g = ready.front();
    ready.pop_front();
    position[g] = ordered.size();
    ordered.push_back(std::move(all[g]));
    for (std::size_t& p : ordered.back().preds) p = position[p];
    for (const std::size_t s : succs[g]) {
      if (--indeg[s] == 0) ready.push_back(s);
    }
  }
  if (ordered.size() != all.size()) {
    throw FlowError("flow '" + name_ + "' contains a dependency cycle");
  }
  return ordered;
}

TaskGraph TaskGraph::subflow(NodeId goal) const {
  const std::vector<NodeId> keep = closure(goal);
  TaskGraph sub(*schema_, name_ + ":" +
                              schema_->entity_name(node(goal).type));
  sub.relaxed_ = relaxed_;
  std::unordered_map<std::uint32_t, NodeId> remap;
  for (const NodeId n : keep) {
    const Node& src = nodes_[n.index()];
    const NodeId m = sub.new_node(src.original_type);
    Node& dst = sub.nodes_[m.index()];
    dst.type = src.type;
    dst.expanded = src.expanded;
    dst.bound = src.bound;
    dst.label = src.label;
    dst.auto_created = src.auto_created;
    remap[n.value()] = m;
  }
  for (const NodeId n : keep) {
    for (const DepEdge& e : deps_[n.index()]) {
      DepEdge copy = e;
      copy.target = remap.at(e.target.value());
      sub.add_edge(remap.at(n.value()), copy);
    }
  }
  return sub;
}

void TaskGraph::check() const {
  for (const NodeId n : nodes()) {
    const Node& node = nodes_[n.index()];
    const auto& edges = deps_[n.index()];
    if (edges.empty()) continue;
    if (schema_->is_abstract(node.type)) {
      throw FlowError("expanded node has abstract type '" +
                      schema_->entity_name(node.type) + "'");
    }
    const ConstructionRule rule = schema_->construction(node.type);
    bool tool_used = false;
    std::vector<char> used(rule.inputs.size(), 0);
    for (const DepEdge& e : edges) {
      const EntityTypeId target_type = nodes_[e.target.index()].type;
      if (e.kind == DepKind::kFunctional) {
        if (tool_used) {
          throw FlowError("node '" + schema_->entity_name(node.type) +
                          "' has two functional dependencies");
        }
        if (!rule.has_tool() ||
            !schema_->is_ancestor_or_self(rule.tool, target_type)) {
          throw FlowError("tool edge of '" + schema_->entity_name(node.type) +
                          "' does not match its construction rule");
        }
        tool_used = true;
        continue;
      }
      bool matched = false;
      for (std::size_t i = 0; i < rule.inputs.size(); ++i) {
        if (rule.inputs[i].role != e.role) continue;
        if (!schema_->is_ancestor_or_self(rule.inputs[i].target,
                                          target_type)) {
          continue;
        }
        if (!used[i]) {
          used[i] = 1;
          matched = true;
          break;
        }
        if (relaxed_) {
          // Trace graphs may satisfy one arc with several edges (set
          // inputs recorded in a derivation).
          matched = true;
          break;
        }
      }
      if (!matched) {
        throw FlowError("input edge '" +
                        schema_->entity_name(target_type) + "' of node '" +
                        schema_->entity_name(node.type) +
                        "' matches no free arc of its construction rule");
      }
    }
    // Cycle check is implied by task_groups(), but run the cheap local one
    // too so `check` stands alone.
  }
  (void)task_groups();  // throws on cycles
}

std::string TaskGraph::to_lisp(NodeId goal) const {
  const Node& node = this->node(goal);
  std::string out = schema_->entity_name(node.type);
  const auto& edges = deps_[goal.index()];
  if (edges.empty()) return out;
  out += '(';
  const NodeId tool = tool_of(goal);
  bool first = true;
  if (tool.valid()) {
    out += to_lisp(tool);
    first = false;
  } else {
    out += "compose";
    first = false;
  }
  for (const DepEdge& e : edges) {
    if (e.kind == DepKind::kFunctional) continue;
    if (!first) out += ", ";
    out += to_lisp(e.target);
    first = false;
  }
  out += ')';
  return out;
}

std::string TaskGraph::to_dot() const {
  support::DotBuilder dot(name_);
  dot.graph_attr("rankdir", "BT");
  auto node_id = [](NodeId n) { return support::numbered("n", n.value()); };
  for (const NodeId n : nodes()) {
    const Node& node = nodes_[n.index()];
    std::string label = schema_->entity_name(node.type);
    if (!node.label.empty()) label += "\n" + node.label;
    if (!node.bound.empty()) {
      label += "\n[" + std::to_string(node.bound.size()) + " bound]";
    }
    std::vector<std::string> attrs;
    attrs.push_back(schema_->is_tool(node.type) ? "shape=\"ellipse\""
                                                : "shape=\"box\"");
    if (!node.bound.empty()) attrs.push_back("style=\"filled\"");
    dot.node(node_id(n), label, attrs);
  }
  for (const NodeId n : nodes()) {
    for (const DepEdge& e : deps_[n.index()]) {
      std::vector<std::string> attrs;
      if (e.optional) attrs.push_back("style=\"dashed\"");
      std::string label = schema::to_string(e.kind);
      if (!e.role.empty()) label += ":" + e.role;
      dot.edge(node_id(n), node_id(e.target), label, attrs);
    }
  }
  return dot.str();
}

std::string TaskGraph::save() const {
  std::string out;
  out += support::RecordWriter("flow")
             .field(name_)
             .field(schema_->name())
             .field(static_cast<std::uint32_t>(relaxed_ ? 1 : 0))
             .str() +
         "\n";
  // Compact alive nodes to dense indices.
  std::unordered_map<std::uint32_t, std::uint32_t> compact;
  std::uint32_t next = 0;
  for (const NodeId n : nodes()) compact[n.value()] = next++;
  for (const NodeId n : nodes()) {
    const Node& node = nodes_[n.index()];
    support::RecordWriter w("node");
    w.field(compact.at(n.value()));
    w.field(schema_->entity_name(node.type));
    w.field(schema_->entity_name(node.original_type));
    w.field(static_cast<std::uint32_t>(node.expanded ? 1 : 0));
    w.field(static_cast<std::uint32_t>(node.auto_created ? 1 : 0));
    w.field(node.label);
    out += w.str() + "\n";
    if (!node.bound.empty()) {
      support::RecordWriter b("bind");
      b.field(compact.at(n.value()));
      for (const data::InstanceId inst : node.bound) b.field(inst.value());
      out += b.str() + "\n";
    }
  }
  for (const NodeId n : nodes()) {
    for (const DepEdge& e : deps_[n.index()]) {
      support::RecordWriter w("edge");
      w.field(compact.at(n.value()));
      w.field(std::string_view(schema::to_string(e.kind)));
      w.field(compact.at(e.target.value()));
      w.field(static_cast<std::uint32_t>(e.optional ? 1 : 0));
      w.field(e.role);
      out += w.str() + "\n";
    }
  }
  return out;
}

TaskGraph TaskGraph::load(const schema::TaskSchema& schema,
                          std::string_view text) {
  TaskGraph flow(schema);
  std::vector<NodeId> by_index;
  for (const std::string& line : support::split(text, '\n')) {
    if (support::trim(line).empty()) continue;
    support::RecordReader rec(line);
    if (rec.kind() == "flow") {
      flow.name_ = rec.next_string();
      const std::string schema_name = rec.next_string();
      if (schema_name != schema.name()) {
        throw support::ParseError("flow was saved against schema '" +
                                  schema_name + "', not '" + schema.name() +
                                  "'");
      }
      if (!rec.exhausted()) flow.relaxed_ = rec.next_uint32() != 0;
    } else if (rec.kind() == "node") {
      const std::uint32_t index = rec.next_uint32();
      if (index != by_index.size()) {
        throw support::ParseError("flow file: node records out of order");
      }
      const EntityTypeId type = schema.require(rec.next_string());
      const EntityTypeId original = schema.require(rec.next_string());
      const bool expanded = rec.next_uint32() != 0;
      const bool auto_created = rec.next_uint32() != 0;
      std::string label = rec.next_string();
      const NodeId n = flow.new_node(original);
      Node& node = flow.nodes_[n.index()];
      node.type = type;
      node.expanded = expanded;
      node.auto_created = auto_created;
      node.label = std::move(label);
      by_index.push_back(n);
    } else if (rec.kind() == "bind") {
      const std::uint32_t index = rec.next_uint32();
      if (index >= by_index.size()) {
        throw support::ParseError("flow file: bind before node");
      }
      std::vector<data::InstanceId> bound;
      while (!rec.exhausted()) {
        bound.push_back(data::InstanceId(rec.next_uint32()));
      }
      flow.nodes_[by_index[index].index()].bound = std::move(bound);
    } else if (rec.kind() == "edge") {
      const std::uint32_t from = rec.next_uint32();
      const std::string kind = rec.next_string();
      const std::uint32_t to = rec.next_uint32();
      const bool optional = rec.next_uint32() != 0;
      std::string role = rec.next_string();
      if (from >= by_index.size() || to >= by_index.size()) {
        throw support::ParseError("flow file: edge references unknown node");
      }
      flow.add_edge(by_index[from],
                    DepEdge{by_index[to],
                            kind == "fd" ? DepKind::kFunctional
                                         : DepKind::kData,
                            optional, std::move(role)});
    } else {
      throw support::ParseError("flow file: unknown record '" +
                                std::string(rec.kind()) + "'");
    }
  }
  flow.check();
  return flow;
}

}  // namespace herc::graph
