// The task schema (paper §3.1).
//
// A task schema is a graph over design-entity types whose arcs express how
// entities may be constructed:
//
//   * a *functional* dependency (fd) names the tool that produces the entity
//     (at most one per type);
//   * *data* dependencies (dd) name its inputs (any number; optional dds —
//     the dashed arcs of Fig. 1 — break loops such as
//     `EditedNetlist --dd?--> Netlist`).
//
// The schema serves two purposes: it states the construction rules by which
// tasks (tool-independent design functions) may be built up into flows, and
// it *is* the data schema of the design-history database.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "schema/entity.hpp"
#include "support/hash.hpp"

namespace herc::schema {

/// The resolved construction rule of an entity type.
///
/// Subtypes that declare no arcs of their own inherit the nearest ancestor's
/// arcs; `owner` names the type whose declaration was used.
struct ConstructionRule {
  EntityTypeId owner;
  /// The fd target (a tool entity); invalid when the type has no fd
  /// (sources and composite entities).
  EntityTypeId tool;
  /// The dd arcs, in declaration order.
  std::vector<Dependency> inputs;

  [[nodiscard]] bool has_tool() const { return tool.valid(); }
  [[nodiscard]] bool empty() const { return !tool.valid() && inputs.empty(); }
};

/// One place in the schema where an entity type is *used* as an input;
/// drives consumer-direction ("upward") flow expansion.
struct Usage {
  EntityTypeId consumer;  ///< the entity constructed from it
  Dependency dep;         ///< the arc of `consumer` that it satisfies
};

/// A mutable task schema.
class TaskSchema {
 public:
  /// Consistency check run when instances are grouped into a composite
  /// entity (paper: "can these device models be used with this circuit?").
  /// Receives the component payloads in dd order; on failure sets `why`.
  using ComposeCheck =
      std::function<bool(const std::vector<std::string>& parts,
                         std::string& why)>;
  /// Splits a composite payload back into component payloads.
  using Decompose =
      std::function<std::vector<std::string>(const std::string& payload)>;

  explicit TaskSchema(std::string name = "schema");

  // ---- construction -------------------------------------------------------

  EntityTypeId add_data(std::string_view name, bool abstract = false);
  EntityTypeId add_tool(std::string_view name, bool abstract = false);
  /// Composite entities have only data dependencies (paper §3.1).
  EntityTypeId add_composite(std::string_view name);
  /// Adds a subtype; kind is inherited from `parent`.
  EntityTypeId add_subtype(std::string_view name, EntityTypeId parent,
                           bool abstract = false);

  /// Declares `entity`'s fd.  Throws `SchemaError` if `entity` already
  /// declares one, is composite, or `tool` is not a tool-kind entity.
  void set_functional_dependency(EntityTypeId entity, EntityTypeId tool);

  /// Declares a dd arc.  `optional` arcs are the dashed loop-breakers.
  void add_data_dependency(EntityTypeId entity, EntityTypeId input,
                           bool optional = false, std::string_view role = "");

  void set_compose_check(EntityTypeId composite, ComposeCheck check);
  void set_decompose(EntityTypeId composite, Decompose fn);

  // ---- lookup --------------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return entities_.size(); }

  /// Id for `name`, or an invalid id when absent.
  [[nodiscard]] EntityTypeId find(std::string_view name) const;
  /// Id for `name`; throws `SchemaError` when absent.
  [[nodiscard]] EntityTypeId require(std::string_view name) const;

  [[nodiscard]] const EntityType& entity(EntityTypeId id) const;
  [[nodiscard]] const std::string& entity_name(EntityTypeId id) const;
  [[nodiscard]] bool is_tool(EntityTypeId id) const;
  [[nodiscard]] bool is_abstract(EntityTypeId id) const;
  [[nodiscard]] bool is_composite(EntityTypeId id) const;

  /// All entity-type ids in declaration order.
  [[nodiscard]] std::vector<EntityTypeId> all() const;

  // ---- subtype hierarchy ---------------------------------------------------

  /// True when `anc` equals `desc` or is one of its ancestors.
  [[nodiscard]] bool is_ancestor_or_self(EntityTypeId anc,
                                         EntityTypeId desc) const;
  /// Direct subtypes, in declaration order.
  [[nodiscard]] std::vector<EntityTypeId> subtypes(EntityTypeId id) const;
  /// All concrete (non-abstract) descendants, including `id` itself when
  /// concrete.  These are the legal *specializations* of a flow node.
  [[nodiscard]] std::vector<EntityTypeId> concrete_descendants(
      EntityTypeId id) const;

  // ---- construction rules --------------------------------------------------

  /// The effective rule for `id`, resolving inheritance.
  [[nodiscard]] ConstructionRule construction(EntityTypeId id) const;

  /// A source entity has no construction rule anywhere in its ancestry
  /// (stimuli, option sets, off-the-shelf tools): it can only be bound to an
  /// existing instance, never expanded.
  [[nodiscard]] bool is_source(EntityTypeId id) const;

  /// All arcs (across the whole schema) that an entity of type `id` can
  /// satisfy, i.e. arcs whose target is `id` or an ancestor of `id`.
  [[nodiscard]] std::vector<Usage> consumers_of(EntityTypeId id) const;

  [[nodiscard]] const ComposeCheck* compose_check(EntityTypeId id) const;
  [[nodiscard]] const Decompose* decompose(EntityTypeId id) const;

  // ---- analysis ------------------------------------------------------------

  /// True when instances of `id` can, in principle, be produced starting
  /// from source entities only.  A mandatory dependency loop with no escape
  /// (the paper's reason for optional arcs) makes a type non-groundable.
  [[nodiscard]] bool groundable(EntityTypeId id) const;

  /// Full structural validation; throws `SchemaError` with a description of
  /// the first problem found.  Checks: composites have >=1 dd; abstract
  /// types have a concrete descendant; every concrete type is groundable.
  void validate() const;

  /// Graphviz rendering in the style of Fig. 1 (fd solid, dd dashed when
  /// optional, tools as ellipses, data as boxes).
  [[nodiscard]] std::string to_dot() const;

 private:
  EntityTypeId add_entity(std::string_view name, EntityKind kind,
                          bool abstract, bool composite, EntityTypeId parent);
  /// Nearest ancestor-or-self that declares arcs; invalid id when none.
  [[nodiscard]] EntityTypeId rule_owner(EntityTypeId id) const;
  void check_id(EntityTypeId id) const;

  std::string name_;
  std::vector<EntityType> entities_;
  std::unordered_map<std::string, EntityTypeId, support::TextHash,
                     std::equal_to<>>
      by_name_;
  std::unordered_map<EntityTypeId, ComposeCheck, support::IdHash> compose_;
  std::unordered_map<EntityTypeId, Decompose, support::IdHash> decompose_;
};

}  // namespace herc::schema
