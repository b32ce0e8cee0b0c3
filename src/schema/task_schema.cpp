#include "schema/task_schema.hpp"

#include <algorithm>

#include "analyze/schema_lint.hpp"
#include "support/dot.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::schema {

using support::SchemaError;

TaskSchema::TaskSchema(std::string name) : name_(std::move(name)) {}

EntityTypeId TaskSchema::add_entity(std::string_view name, EntityKind kind,
                                    bool abstract, bool composite,
                                    EntityTypeId parent) {
  if (!support::is_identifier(name)) {
    throw SchemaError("'" + std::string(name) +
                      "' is not a legal entity name");
  }
  if (by_name_.contains(name)) {
    throw SchemaError("entity '" + std::string(name) + "' already declared");
  }
  EntityType e;
  e.name = std::string(name);
  e.kind = kind;
  e.abstract = abstract;
  e.composite = composite;
  e.parent = parent;
  const EntityTypeId id(static_cast<std::uint32_t>(entities_.size()));
  entities_.push_back(std::move(e));
  by_name_.emplace(std::string(name), id);
  return id;
}

EntityTypeId TaskSchema::add_data(std::string_view name, bool abstract) {
  return add_entity(name, EntityKind::kData, abstract, false, EntityTypeId());
}

EntityTypeId TaskSchema::add_tool(std::string_view name, bool abstract) {
  return add_entity(name, EntityKind::kTool, abstract, false, EntityTypeId());
}

EntityTypeId TaskSchema::add_composite(std::string_view name) {
  return add_entity(name, EntityKind::kData, false, true, EntityTypeId());
}

EntityTypeId TaskSchema::add_subtype(std::string_view name,
                                     EntityTypeId parent, bool abstract) {
  check_id(parent);
  const EntityType& p = entities_[parent.index()];
  if (p.composite) {
    throw SchemaError("composite entity '" + p.name +
                      "' cannot be subtyped");
  }
  return add_entity(name, p.kind, abstract, false, parent);
}

void TaskSchema::set_functional_dependency(EntityTypeId entity,
                                           EntityTypeId tool) {
  check_id(entity);
  check_id(tool);
  EntityType& e = entities_[entity.index()];
  if (e.composite) {
    throw SchemaError("composite entity '" + e.name +
                      "' may not have a functional dependency");
  }
  if (entities_[tool.index()].kind != EntityKind::kTool) {
    throw SchemaError("functional dependency of '" + e.name +
                      "' must target a tool entity, got '" +
                      entities_[tool.index()].name + "'");
  }
  for (const Dependency& d : e.deps) {
    if (d.kind == DepKind::kFunctional) {
      throw SchemaError("entity '" + e.name +
                        "' already has a functional dependency");
    }
  }
  e.deps.push_back(Dependency{tool, DepKind::kFunctional, false, ""});
}

void TaskSchema::add_data_dependency(EntityTypeId entity, EntityTypeId input,
                                     bool optional, std::string_view role) {
  check_id(entity);
  check_id(input);
  EntityType& e = entities_[entity.index()];
  for (const Dependency& d : e.deps) {
    if (d.kind == DepKind::kData && d.target == input && d.role == role) {
      throw SchemaError("entity '" + e.name +
                        "' already has this data dependency on '" +
                        entities_[input.index()].name + "'");
    }
  }
  e.deps.push_back(
      Dependency{input, DepKind::kData, optional, std::string(role)});
}

void TaskSchema::set_compose_check(EntityTypeId composite, ComposeCheck fn) {
  check_id(composite);
  if (!entities_[composite.index()].composite) {
    throw SchemaError("compose check requires a composite entity");
  }
  compose_[composite] = std::move(fn);
}

void TaskSchema::set_decompose(EntityTypeId composite, Decompose fn) {
  check_id(composite);
  if (!entities_[composite.index()].composite) {
    throw SchemaError("decompose requires a composite entity");
  }
  decompose_[composite] = std::move(fn);
}

EntityTypeId TaskSchema::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? EntityTypeId() : it->second;
}

EntityTypeId TaskSchema::require(std::string_view name) const {
  const EntityTypeId id = find(name);
  if (!id.valid()) {
    throw SchemaError("no entity named '" + std::string(name) +
                      "' in schema '" + name_ + "'");
  }
  return id;
}

void TaskSchema::check_id(EntityTypeId id) const {
  if (!id.valid() || id.index() >= entities_.size()) {
    throw SchemaError("invalid entity-type id in schema '" + name_ + "'");
  }
}

const EntityType& TaskSchema::entity(EntityTypeId id) const {
  check_id(id);
  return entities_[id.index()];
}

const std::string& TaskSchema::entity_name(EntityTypeId id) const {
  return entity(id).name;
}

bool TaskSchema::is_tool(EntityTypeId id) const {
  return entity(id).kind == EntityKind::kTool;
}

bool TaskSchema::is_abstract(EntityTypeId id) const {
  return entity(id).abstract;
}

bool TaskSchema::is_composite(EntityTypeId id) const {
  return entity(id).composite;
}

std::vector<EntityTypeId> TaskSchema::all() const {
  std::vector<EntityTypeId> out;
  out.reserve(entities_.size());
  for (std::uint32_t i = 0; i < entities_.size(); ++i) {
    out.push_back(EntityTypeId(i));
  }
  return out;
}

bool TaskSchema::is_ancestor_or_self(EntityTypeId anc,
                                     EntityTypeId desc) const {
  check_id(anc);
  check_id(desc);
  for (EntityTypeId cur = desc; cur.valid();
       cur = entities_[cur.index()].parent) {
    if (cur == anc) return true;
  }
  return false;
}

std::vector<EntityTypeId> TaskSchema::subtypes(EntityTypeId id) const {
  check_id(id);
  std::vector<EntityTypeId> out;
  for (std::uint32_t i = 0; i < entities_.size(); ++i) {
    if (entities_[i].parent == id) out.push_back(EntityTypeId(i));
  }
  return out;
}

std::vector<EntityTypeId> TaskSchema::concrete_descendants(
    EntityTypeId id) const {
  check_id(id);
  std::vector<EntityTypeId> out;
  for (std::uint32_t i = 0; i < entities_.size(); ++i) {
    const EntityTypeId cand(i);
    if (!entities_[i].abstract && is_ancestor_or_self(id, cand)) {
      out.push_back(cand);
    }
  }
  return out;
}

EntityTypeId TaskSchema::rule_owner(EntityTypeId id) const {
  for (EntityTypeId cur = id; cur.valid();
       cur = entities_[cur.index()].parent) {
    if (!entities_[cur.index()].deps.empty()) return cur;
  }
  return EntityTypeId();
}

ConstructionRule TaskSchema::construction(EntityTypeId id) const {
  check_id(id);
  ConstructionRule rule;
  rule.owner = rule_owner(id);
  if (!rule.owner.valid()) return rule;
  for (const Dependency& d : entities_[rule.owner.index()].deps) {
    if (d.kind == DepKind::kFunctional) {
      rule.tool = d.target;
    } else {
      rule.inputs.push_back(d);
    }
  }
  return rule;
}

bool TaskSchema::is_source(EntityTypeId id) const {
  return construction(id).empty();
}

std::vector<Usage> TaskSchema::consumers_of(EntityTypeId id) const {
  check_id(id);
  std::vector<Usage> out;
  for (std::uint32_t i = 0; i < entities_.size(); ++i) {
    for (const Dependency& d : entities_[i].deps) {
      if (is_ancestor_or_self(d.target, id)) {
        out.push_back(Usage{EntityTypeId(i), d});
      }
    }
  }
  return out;
}

const TaskSchema::ComposeCheck* TaskSchema::compose_check(
    EntityTypeId id) const {
  const auto it = compose_.find(id);
  return it == compose_.end() ? nullptr : &it->second;
}

const TaskSchema::Decompose* TaskSchema::decompose(EntityTypeId id) const {
  const auto it = decompose_.find(id);
  return it == decompose_.end() ? nullptr : &it->second;
}

bool TaskSchema::groundable(EntityTypeId id) const {
  check_id(id);
  // Least fixed point over all types: a concrete type with no rule (a
  // source) is groundable; a type with a rule is groundable when its tool
  // (if any) and every mandatory input are groundable; an abstract type is
  // groundable when some concrete descendant is.
  std::vector<char> ground(entities_.size(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t i = 0; i < entities_.size(); ++i) {
      if (ground[i]) continue;
      const EntityTypeId t(i);
      bool ok;
      if (entities_[i].abstract) {
        ok = false;
        for (const EntityTypeId d : concrete_descendants(t)) {
          if (ground[d.index()]) {
            ok = true;
            break;
          }
        }
      } else {
        const ConstructionRule rule = construction(t);
        if (rule.empty()) {
          ok = true;  // source: instances are simply provided
        } else {
          ok = !rule.has_tool() || ground[rule.tool.index()];
          for (const Dependency& d : rule.inputs) {
            if (!ok) break;
            if (d.optional) continue;
            ok = ground[d.target.index()];
          }
        }
      }
      if (ok) {
        ground[i] = 1;
        changed = true;
      }
    }
  }
  return ground[id.index()] != 0;
}

void TaskSchema::validate() const {
  // Delegates to the static analyzer so there is exactly one schema
  // checker; the first error-severity diagnostic becomes the exception
  // (warnings are advisory and only surface through `herc lint`).
  const analyze::LintReport report = analyze::lint_schema(*this);
  for (const analyze::Diagnostic& d : report.diagnostics()) {
    if (d.severity != support::Severity::kError) continue;
    std::string msg = d.location + " " + d.message;
    if (!d.fixit.empty()) msg += " (" + d.fixit + ")";
    throw SchemaError(msg);
  }
}

std::string TaskSchema::to_dot() const {
  support::DotBuilder dot(name_);
  dot.graph_attr("rankdir", "BT");
  for (const EntityType& e : entities_) {
    std::vector<std::string> attrs;
    attrs.push_back(e.kind == EntityKind::kTool ? "shape=\"ellipse\""
                                                : "shape=\"box\"");
    if (e.abstract) attrs.push_back("style=\"dotted\"");
    if (e.composite) attrs.push_back("peripheries=\"2\"");
    dot.node(e.name, e.name, attrs);
  }
  for (const EntityType& e : entities_) {
    if (e.parent.valid()) {
      dot.edge(e.name, entities_[e.parent.index()].name, "subtype",
               {"arrowhead=\"empty\"", "color=\"gray\""});
    }
    for (const Dependency& d : e.deps) {
      std::vector<std::string> attrs;
      if (d.optional) attrs.push_back("style=\"dashed\"");
      std::string label = to_string(d.kind);
      if (!d.role.empty()) label += ":" + d.role;
      dot.edge(e.name, entities_[d.target.index()].name, label, attrs);
    }
  }
  return dot.str();
}

}  // namespace herc::schema
