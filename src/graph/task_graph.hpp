// Task graphs: the representation of dynamically defined flows (paper §3.2).
//
// A task graph is a directed acyclic graph in which every node corresponds
// to an entity of the task schema and every edge to a dependency.  The flow
// is a *temporary* structure the designer grows on demand:
//
//   * `expand` pulls a node's construction rule into the graph (producer
//     direction — Fig. 4);
//   * `expand_up` grows the flow towards a consumer (the paper allows
//     expansion "in either direction");
//   * `specialize` narrows an abstract node to a concrete subtype so it can
//     be expanded (Fig. 4b);
//   * `connect` reuses an existing node as a dependency of another task
//     (entity reuse — Fig. 5);
//   * `add_co_output` attaches a second output to an existing task
//     (multi-output tasks — Fig. 5).
//
// Leaf nodes are *bound* to entity instances from the design database; a set
// of instances may be bound at once, fanning the task out over each member
// (§4.1).  The same structure doubles as the template for history queries
// (§4.2) and as the form of a flow trace (Fig. 11b).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/instance_id.hpp"
#include "schema/task_schema.hpp"
#include "support/ids.hpp"

namespace herc::graph {

struct NodeTag {};
/// Identifies a node within one task graph.
using NodeId = support::Id<NodeTag>;

/// An edge from a dependent node to one of its dependencies.
struct DepEdge {
  NodeId target;
  schema::DepKind kind = schema::DepKind::kData;
  bool optional = false;
  std::string role;
};

/// One node of a task graph.
struct Node {
  /// Current entity type (narrowed by `specialize`).
  schema::EntityTypeId type;
  /// The type the node was created with (before specialization).
  schema::EntityTypeId original_type;
  /// Set once the node's construction rule has been pulled into the graph.
  bool expanded = false;
  /// Instances selected in the browser; for a task run once, exactly one.
  std::vector<data::InstanceId> bound;
  /// Optional user label shown in renderings.
  std::string label;
  /// Tombstone (nodes removed by `unexpand` keep their id).
  bool alive = true;
  /// Set for nodes materialized by expand/co-output (they are candidates
  /// for garbage collection when `unexpand` orphans them), cleared for
  /// nodes the designer placed explicitly.
  bool auto_created = false;
};

/// Options controlling `expand`/`expand_up`.
struct ExpandOptions {
  /// Also materialize optional (dashed) inputs; by default they are left
  /// out, which is how schema loops stay broken in flows.
  bool include_optional = false;
};

/// One executable unit of a flow: a tool node (invalid for composite
/// entities) applied to a set of input nodes, producing one or more output
/// nodes.  Two goal nodes sharing the same tool node and inputs form one
/// task with multiple outputs.
struct TaskGroup {
  NodeId tool;                  ///< invalid for compose tasks
  std::vector<NodeId> inputs;   ///< dd targets, sorted by id
  std::vector<NodeId> outputs;  ///< goal nodes, sorted by id
  /// The groups this one waits for — the producers of its inputs, then of
  /// its tool, each once — as indices into the `task_groups()` result.
  /// Every index is lower than this group's own.
  std::vector<std::size_t> preds;
};

class TaskGraph {
 public:
  /// The graph holds a reference to its schema; the schema must outlive it.
  explicit TaskGraph(const schema::TaskSchema& schema,
                     std::string name = "flow");

  [[nodiscard]] const schema::TaskSchema& schema() const { return *schema_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ---- growing the flow ----------------------------------------------------

  /// Starts (or extends) the flow with a free-standing node of `type` —
  /// the entry point of all four design approaches of §3.4.
  NodeId add_node(schema::EntityTypeId type);
  NodeId add_node(std::string_view type_name);

  /// Expands `n` in the producer direction: creates its tool node and its
  /// mandatory input nodes per the schema construction rule.  Returns the
  /// nodes created.  Throws `FlowError` when `n` is abstract (specialize
  /// first), a source entity, or already expanded.
  std::vector<NodeId> expand(NodeId n, const ExpandOptions& opts = {});

  /// Expands in the consumer direction: creates a node of `consumer_type`
  /// that uses `n` as one of its dependencies, together with the consumer's
  /// tool and remaining mandatory inputs.  Returns the consumer node.
  NodeId expand_up(NodeId n, schema::EntityTypeId consumer_type,
                   const ExpandOptions& opts = {});

  /// Removes the dependency subtree created for `n` (nodes not shared with
  /// other tasks) and marks `n` unexpanded.
  void unexpand(NodeId n);

  /// Narrows `n` to `subtype` (a concrete-or-abstract descendant of its
  /// current type).  Only unexpanded nodes may be specialized.
  void specialize(NodeId n, schema::EntityTypeId subtype);

  /// Reuses `input` as a dependency of `consumer`: wires an edge matching
  /// an unsatisfied arc of `consumer`'s construction rule (fd if `input` is
  /// the task's tool, dd otherwise).  Entity reuse of Fig. 5.
  void connect(NodeId consumer, NodeId input);

  /// Like `connect`, but targets the unsatisfied dd arc with exactly
  /// `role` — needed when a rule has several same-type inputs (e.g. the
  /// comparator's golden/candidate pair).
  void connect_role(NodeId consumer, NodeId input, std::string_view role);

  /// Adds an edge from recorded history (flow-trace construction).  A
  /// derivation is ground truth: a set-accepting encapsulation may have
  /// consumed *several* instances through one schema arc, so trace edges
  /// bypass arc-multiplicity matching (type conformance and acyclicity are
  /// still enforced, and at most one fd edge per node).  Using this marks
  /// the graph *relaxed*: `check()` then permits several dd edges per arc.
  void add_trace_edge(NodeId consumer, NodeId input, schema::DepKind kind,
                      std::string_view role);

  /// True when the graph carries trace edges (relaxed arc multiplicity).
  [[nodiscard]] bool relaxed() const { return relaxed_; }

  /// Attaches a second output of `type` to the task that produces
  /// `existing_goal` (multi-output, Fig. 5).  The new node shares the tool
  /// node and all type-compatible inputs; missing mandatory inputs are
  /// created.  Returns the new output node.
  NodeId add_co_output(NodeId existing_goal, schema::EntityTypeId type);

  // ---- bindings --------------------------------------------------------------

  /// Binds `n` to one instance (replacing previous bindings).
  void bind(NodeId n, data::InstanceId instance);
  /// Binds `n` to a set of instances; tasks fan out over each member.
  void bind_set(NodeId n, std::vector<data::InstanceId> instances);
  void unbind(NodeId n);
  [[nodiscard]] const std::vector<data::InstanceId>& bindings(NodeId n) const;

  // ---- structure -------------------------------------------------------------

  [[nodiscard]] std::size_t node_count() const;  ///< alive nodes
  [[nodiscard]] std::vector<NodeId> nodes() const;
  [[nodiscard]] const Node& node(NodeId n) const;
  void set_label(NodeId n, std::string label);

  /// Outgoing dependency edges of `n` (its tool and inputs).
  [[nodiscard]] const std::vector<DepEdge>& deps(NodeId n) const;
  /// The tool node `n`'s task runs, or an invalid id.
  [[nodiscard]] NodeId tool_of(NodeId n) const;
  /// The dd targets of `n`, in edge order.
  [[nodiscard]] std::vector<NodeId> inputs_of(NodeId n) const;
  /// Nodes having `n` as a dependency.
  [[nodiscard]] std::vector<NodeId> consumers_of(NodeId n) const;

  /// Nodes with no outgoing edges; they must be bound before execution.
  [[nodiscard]] std::vector<NodeId> leaves() const;
  /// Nodes with no consumers — the goals of the flow.
  [[nodiscard]] std::vector<NodeId> goals() const;
  [[nodiscard]] bool is_leaf(NodeId n) const;

  /// Leaves not yet bound to any instance.
  [[nodiscard]] std::vector<NodeId> unbound_leaves() const;
  /// True when every leaf reachable from `goal` is bound, i.e. the
  /// (sub)flow rooted at `goal` can run (§4.1: "a subflow may be run at any
  /// stage as long as its dependencies are satisfied").
  [[nodiscard]] bool runnable(NodeId goal) const;

  /// Groups computable nodes into executable tasks, in a valid
  /// (dependency-respecting) order.
  [[nodiscard]] std::vector<TaskGroup> task_groups() const;

  /// Nodes of the dependency closure of `goal` (including `goal`).
  [[nodiscard]] std::vector<NodeId> closure(NodeId goal) const;
  /// Extracts the sub-flow rooted at `goal` as a new graph (bindings kept).
  [[nodiscard]] TaskGraph subflow(NodeId goal) const;

  // ---- validation -------------------------------------------------------------

  /// Verifies every node and edge against the schema: at most one fd edge
  /// per node, every edge matches a distinct arc of the node's construction
  /// rule, no cycles.  Throws `FlowError` on the first violation.
  void check() const;

  // ---- representations ---------------------------------------------------------

  /// Lisp-style rendering of the task rooted at `goal` (paper footnote 2):
  /// `PlacedLayout(Placer, EditedNetlist(CircuitEditor), ...)`.
  [[nodiscard]] std::string to_lisp(NodeId goal) const;

  /// Graphviz rendering in the style of Fig. 3b.
  [[nodiscard]] std::string to_dot() const;

  /// Serializes the flow (structure + bindings) to record lines.
  [[nodiscard]] std::string save() const;
  /// Restores a flow saved with `save`; entity types are resolved by name
  /// against `schema`.
  [[nodiscard]] static TaskGraph load(const schema::TaskSchema& schema,
                                      std::string_view text);

 private:
  NodeId new_node(schema::EntityTypeId type);
  void add_edge(NodeId from, const DepEdge& edge);
  void check_node_id(NodeId n) const;
  Node& node_mut(NodeId n);
  /// Finds an unsatisfied arc of `consumer`'s rule that `input` can satisfy.
  [[nodiscard]] std::optional<schema::Dependency> free_arc_for(
      NodeId consumer, NodeId input) const;
  [[nodiscard]] bool creates_cycle(NodeId from, NodeId to) const;

  const schema::TaskSchema* schema_;
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::vector<DepEdge>> deps_;
  std::vector<std::vector<NodeId>> consumers_;
  bool relaxed_ = false;
};

}  // namespace herc::graph
