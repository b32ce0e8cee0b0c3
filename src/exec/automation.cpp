#include "exec/automation.hpp"

#include "support/error.hpp"

namespace herc::exec {

using data::InstanceId;
using graph::NodeId;
using graph::TaskGraph;
using schema::EntityTypeId;
using support::ExecError;
using support::FlowError;

namespace {

/// Newest instance of `type` (ids are assigned in time order).
InstanceId newest_of(const history::HistoryDb& db, EntityTypeId type) {
  const auto candidates = db.instances_of(type);
  return candidates.empty() ? InstanceId() : candidates.back();
}

class AutoBuilder {
 public:
  AutoBuilder(const history::HistoryDb& db, const AutoFlowOptions& options,
              TaskGraph& flow)
      : db_(db), schema_(db.schema()), options_(options), flow_(flow) {}

  void build(NodeId node, bool is_root) {
    if (flow_.node_count() > options_.max_nodes) {
      throw FlowError("auto_flow: node budget exceeded (" +
                      std::to_string(options_.max_nodes) +
                      "); the schema likely loops through optional-free "
                      "paths");
    }
    EntityTypeId type = flow_.node(node).type;
    if (schema_.is_abstract(type)) {
      type = choose_subtype(type);
      flow_.specialize(node, type);
    }
    // Prefer an existing instance over re-deriving (except for the goal,
    // which the designer asked to produce).
    if (!is_root && options_.prefer_existing) {
      const InstanceId existing = newest_of(db_, type);
      if (existing.valid()) {
        flow_.bind(node, existing);
        return;
      }
    }
    if (schema_.is_source(type)) {
      const InstanceId existing = newest_of(db_, type);
      if (!existing.valid()) {
        throw FlowError("auto_flow: no instance of source entity '" +
                        schema_.entity_name(type) +
                        "' exists in the history");
      }
      flow_.bind(node, existing);
      return;
    }
    for (const NodeId created : flow_.expand(node)) {
      build(created, /*is_root=*/false);
    }
  }

 private:
  EntityTypeId choose_subtype(EntityTypeId abstract_type) const {
    const auto it = options_.specializations.find(
        schema_.entity_name(abstract_type));
    if (it != options_.specializations.end()) {
      const EntityTypeId chosen = schema_.require(it->second);
      if (!schema_.is_ancestor_or_self(abstract_type, chosen)) {
        throw FlowError("auto_flow: '" + it->second +
                        "' is not a subtype of '" +
                        schema_.entity_name(abstract_type) + "'");
      }
      return chosen;
    }
    const auto choices = schema_.concrete_descendants(abstract_type);
    if (choices.empty()) {
      throw FlowError("auto_flow: abstract entity '" +
                      schema_.entity_name(abstract_type) +
                      "' has no concrete subtype");
    }
    // Prefer a subtype the history can already supply.
    if (options_.prefer_existing) {
      for (const EntityTypeId c : choices) {
        if (newest_of(db_, c).valid()) return c;
      }
    }
    return choices.front();
  }

  const history::HistoryDb& db_;
  const schema::TaskSchema& schema_;
  const AutoFlowOptions& options_;
  TaskGraph& flow_;
};

}  // namespace

TaskGraph auto_flow(const history::HistoryDb& db, EntityTypeId goal,
                    const AutoFlowOptions& options) {
  TaskGraph flow(db.schema(), "auto:" + db.schema().entity_name(goal));
  const NodeId root = flow.add_node(goal);
  AutoBuilder builder(db, options, flow);
  builder.build(root, /*is_root=*/true);
  flow.check();
  return flow;
}

std::vector<InstanceId> decompose_instance(history::HistoryDb& db,
                                           InstanceId composite,
                                           const std::string& user) {
  const history::Instance& inst = db.instance(composite);
  const schema::TaskSchema& schema = db.schema();
  if (!schema.is_composite(inst.type)) {
    throw ExecError("decompose: instance is not of a composite entity");
  }
  const auto* hook = schema.decompose(inst.type);
  if (hook == nullptr) {
    throw ExecError("decompose: no decomposition function installed for '" +
                    schema.entity_name(inst.type) + "'");
  }
  const std::vector<std::string> parts = (*hook)(db.payload(composite));
  const schema::ConstructionRule rule = schema.construction(inst.type);
  if (parts.size() != rule.inputs.size()) {
    throw ExecError("decompose: payload split into " +
                    std::to_string(parts.size()) + " parts but '" +
                    schema.entity_name(inst.type) + "' declares " +
                    std::to_string(rule.inputs.size()) + " components");
  }
  // Component types: prefer the concrete types recorded in the composite's
  // own derivation (the arc targets may be abstract, e.g. `Netlist`).
  const bool derivation_matches =
      inst.derivation.inputs.size() == parts.size();
  std::vector<InstanceId> out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EntityTypeId type = rule.inputs[i].target;
    if (derivation_matches) {
      type = db.instance(inst.derivation.inputs[i]).type;
    } else if (schema.is_abstract(type)) {
      throw ExecError(
          "decompose: component " + std::to_string(i) + " of '" +
          schema.entity_name(inst.type) +
          "' has abstract type and the composite has no derivation to "
          "recover the concrete type from");
    }
    history::RecordRequest request;
    request.type = type;
    request.name = inst.name.empty()
                       ? schema.entity_name(type) + "(decomposed)"
                       : std::string(inst.name.get()) + "." +
                             schema.entity_name(type);
    request.user = user;
    request.comment = "decomposed from composite";
    request.payload = parts[i];
    request.derivation.inputs = {composite};
    request.derivation.input_roles = {rule.inputs[i].role};
    request.derivation.task = "decompose";
    out.push_back(db.record(request));
  }
  return out;
}

}  // namespace herc::exec
