#include "catalog/catalogs.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

namespace herc::catalog {

using support::FlowError;

std::vector<EntityEntry> entity_catalog(const schema::TaskSchema& schema) {
  std::vector<EntityEntry> out;
  for (const schema::EntityTypeId id : schema.all()) {
    EntityEntry entry;
    entry.type = id;
    entry.name = schema.entity_name(id);
    entry.is_tool = schema.is_tool(id);
    entry.is_abstract = schema.is_abstract(id);
    entry.is_composite = schema.is_composite(id);
    entry.is_source = schema.is_source(id);
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<ToolEntry> tool_catalog(const tools::ToolRegistry& registry) {
  const schema::TaskSchema& schema = registry.schema();
  std::vector<ToolEntry> out;
  for (const schema::EntityTypeId id : schema.all()) {
    if (!schema.is_tool(id)) continue;
    ToolEntry entry;
    entry.type = id;
    entry.name = schema.entity_name(id);
    for (const tools::Encapsulation* enc : registry.variants(id)) {
      entry.encapsulations.push_back(enc->name);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<DataEntry> data_catalog(
    const history::HistoryDb& db,
    std::optional<schema::EntityTypeId> type) {
  std::vector<DataEntry> out;
  const std::vector<data::InstanceId> ids =
      type ? db.instances_of(*type) : db.all();
  for (const data::InstanceId id : ids) {
    const history::Instance& inst = db.instance(id);
    DataEntry entry;
    entry.instance = id;
    entry.type = inst.type;
    entry.type_name = db.schema().entity_name(inst.type);
    entry.name = inst.name;
    entry.user = inst.user;
    entry.created = inst.created;
    out.push_back(std::move(entry));
  }
  return out;
}

FlowCatalog::FlowCatalog(const schema::TaskSchema& schema)
    : schema_(&schema) {}

void FlowCatalog::save(const graph::TaskGraph& flow) {
  if (contains(flow.name())) {
    throw FlowError("flow catalog already holds a flow named '" +
                    flow.name() + "'");
  }
  flows_.emplace_back(flow.name(), flow.save());
}

void FlowCatalog::save_or_replace(const graph::TaskGraph& flow) {
  for (auto& [name, text] : flows_) {
    if (name == flow.name()) {
      text = flow.save();
      return;
    }
  }
  flows_.emplace_back(flow.name(), flow.save());
}

void FlowCatalog::remove(std::string_view name) {
  const auto it = std::find_if(
      flows_.begin(), flows_.end(),
      [&](const auto& entry) { return entry.first == name; });
  if (it == flows_.end()) {
    throw FlowError("flow catalog has no flow named '" + std::string(name) +
                    "'");
  }
  flows_.erase(it);
}

bool FlowCatalog::contains(std::string_view name) const {
  return std::any_of(flows_.begin(), flows_.end(), [&](const auto& entry) {
    return entry.first == name;
  });
}

std::vector<std::string> FlowCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(flows_.size());
  for (const auto& [name, text] : flows_) out.push_back(name);
  return out;
}

graph::TaskGraph FlowCatalog::instantiate_with_bindings(
    std::string_view name) const {
  for (const auto& [flow_name, text] : flows_) {
    if (flow_name == name) {
      return graph::TaskGraph::load(*schema_, text);
    }
  }
  throw FlowError("flow catalog has no flow named '" + std::string(name) +
                  "'");
}

graph::TaskGraph FlowCatalog::instantiate(std::string_view name) const {
  graph::TaskGraph flow = instantiate_with_bindings(name);
  for (const graph::NodeId n : flow.nodes()) {
    if (!flow.bindings(n).empty()) flow.unbind(n);
  }
  return flow;
}

std::string FlowCatalog::save_all() const {
  std::string out;
  for (const auto& [name, text] : flows_) {
    out += support::RecordWriter("catalogflow").field(name).field(text).str();
    out += "\n";
  }
  return out;
}

FlowCatalog FlowCatalog::load_all(const schema::TaskSchema& schema,
                                  std::string_view text) {
  FlowCatalog catalog(schema);
  for (const std::string& line : support::split(text, '\n')) {
    if (support::trim(line).empty()) continue;
    support::RecordReader rec(line);
    if (rec.kind() != "catalogflow") {
      throw support::ParseError("flow catalog: unknown record '" +
                                std::string(rec.kind()) + "'");
    }
    const std::string name = rec.next_string();
    std::string body = rec.next_string();
    // Validate eagerly so a corrupt catalog fails at load, not at use.
    (void)graph::TaskGraph::load(schema, body);
    catalog.flows_.emplace_back(name, std::move(body));
  }
  return catalog;
}

graph::TaskGraph start_from_goal(const schema::TaskSchema& schema,
                                 schema::EntityTypeId goal) {
  graph::TaskGraph flow(schema, "goal:" + schema.entity_name(goal));
  flow.add_node(goal);
  return flow;
}

ToolStart start_from_tool(const schema::TaskSchema& schema,
                          schema::EntityTypeId tool) {
  if (!schema.is_tool(tool)) {
    throw FlowError("'" + schema.entity_name(tool) + "' is not a tool");
  }
  ToolStart start{graph::TaskGraph(schema, "tool:" +
                                               schema.entity_name(tool)),
                  graph::NodeId(), {}};
  start.tool_node = start.flow.add_node(tool);
  for (const schema::EntityTypeId id : schema.all()) {
    const schema::ConstructionRule rule = schema.construction(id);
    if (rule.has_tool() && schema.is_ancestor_or_self(rule.tool, tool) &&
        rule.owner == id) {
      start.producible.push_back(id);
    }
  }
  return start;
}

DataStart start_from_data(const schema::TaskSchema& schema,
                          const history::HistoryDb& db,
                          data::InstanceId instance) {
  const history::Instance& inst = db.instance(instance);
  DataStart start{graph::TaskGraph(schema, "data:" +
                                               (inst.name.empty()
                                                    ? std::string("instance")
                                                    : std::string(
                                                          inst.name.get()))),
                  graph::NodeId(), {}};
  start.data_node = start.flow.add_node(inst.type);
  start.flow.bind(start.data_node, instance);
  for (const schema::Usage& use : schema.consumers_of(inst.type)) {
    if (std::find(start.consumers.begin(), start.consumers.end(),
                  use.consumer) == start.consumers.end()) {
      start.consumers.push_back(use.consumer);
    }
  }
  return start;
}

graph::TaskGraph start_from_plan(const FlowCatalog& catalog,
                                 std::string_view name) {
  return catalog.instantiate(name);
}

}  // namespace herc::catalog
