// Shared scaffolding for the fault-injection, fault-property and scheduler
// stress tests: tiny synthetic schemas built to order (chains, random DAGs,
// fan-out/fan-in), leaf binding, and an order-independent fingerprint of a
// history database for comparing serial vs parallel runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/executor.hpp"
#include "graph/task_graph.hpp"
#include "history/history_db.hpp"
#include "schema/task_schema.hpp"
#include "support/clock.hpp"
#include "support/text.hpp"
#include "tools/fault_injection.hpp"
#include "tools/registry.hpp"

namespace herc::faulttest {

/// A self-contained execution world.  Member order matters: the database
/// and registry hold references to the schema and clock.
struct World {
  schema::TaskSchema schema{"faultworld"};
  support::ManualClock clock{0, 1};
  history::HistoryDb db{schema, clock};
  tools::ToolRegistry tools{schema};
  /// Imports created by `bind_leaves`, keyed by instance name.
  std::unordered_map<std::string, data::InstanceId> imports;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
};

/// Registers an encapsulation named `<tool>.enc` for `tool` that produces
/// `out_entity` by concatenating every input payload (sorted, so fan-in
/// order does not matter) and appending its own marker.  `latency` adds a
/// real per-call delay for the stress tests.
inline void register_enc(World& w, schema::EntityTypeId tool,
                         const std::string& tool_name,
                         const std::string& out_entity,
                         std::chrono::microseconds latency =
                             std::chrono::microseconds{0}) {
  tools::Encapsulation enc;
  enc.name = tool_name + ".enc";
  enc.tool_type = tool;
  enc.fn = [out_entity, tool_name, latency](const tools::ToolContext& ctx) {
    if (latency.count() > 0) std::this_thread::sleep_for(latency);
    std::vector<std::string> parts;
    for (const tools::ToolInput& in : ctx.inputs) {
      for (const std::string& p : in.payloads) parts.push_back(p);
    }
    std::sort(parts.begin(), parts.end());
    std::string joined;
    for (const std::string& p : parts) {
      if (!joined.empty()) joined += "+";
      joined += p;
    }
    tools::ToolOutput out;
    out.set(out_entity, joined + ">" + tool_name);
    return out;
  };
  w.tools.register_encapsulation(std::move(enc));
}

/// Adds a linear chain to the schema: source `<prefix>Src`, then `depth`
/// tasks `<prefix>D1 .. <prefix>D<depth>`, each produced by its own tool
/// `<prefix>T<i>` from the previous entity.  Encapsulations are named
/// `<prefix>T<i>.enc`.
inline void add_chain(World& w, const std::string& prefix, std::size_t depth) {
  schema::EntityTypeId prev = w.schema.add_data(prefix + "Src");
  for (std::size_t i = 1; i <= depth; ++i) {
    const std::string tool_name = prefix + "T" + std::to_string(i);
    const std::string data_name = prefix + "D" + std::to_string(i);
    const schema::EntityTypeId tool = w.schema.add_tool(tool_name);
    const schema::EntityTypeId d = w.schema.add_data(data_name);
    w.schema.set_functional_dependency(d, tool);
    w.schema.add_data_dependency(d, prev);
    register_enc(w, tool, tool_name, data_name);
    prev = d;
  }
}

/// Expands every expandable node until the flow is fully grown.
inline void expand_all(graph::TaskGraph& flow) {
  bool again = true;
  while (again) {
    again = false;
    for (const graph::NodeId n : flow.nodes()) {
      const graph::Node& node = flow.node(n);
      if (node.expanded) continue;
      const schema::TaskSchema& s = flow.schema();
      if (s.is_tool(node.type) || s.is_source(node.type)) continue;
      flow.expand(n);
      again = true;
    }
  }
}

/// Imports an instance once per name (repeat calls reuse the first import).
inline data::InstanceId import_once(World& w, schema::EntityTypeId type,
                                    const std::string& name,
                                    const std::string& payload) {
  const auto it = w.imports.find(name);
  if (it != w.imports.end()) return it->second;
  const data::InstanceId id =
      w.db.import_instance(type, name, payload, "tester");
  w.imports.emplace(name, id);
  return id;
}

/// Binds every unbound leaf: tool leaves get an imported tool instance,
/// source leaves an imported seed payload.  Deterministic (node-id order).
inline void bind_leaves(World& w, graph::TaskGraph& flow) {
  for (const graph::NodeId n : flow.unbound_leaves()) {
    const schema::EntityTypeId type = flow.node(n).type;
    const std::string& name = w.schema.entity_name(type);
    if (w.schema.is_tool(type)) {
      flow.bind(n, import_once(w, type, name + "#tool", "tool:" + name));
    } else {
      flow.bind(n, import_once(w, type, name + "#src", "seed:" + name));
    }
  }
}

/// First alive node whose entity type is named `type_name`.
inline graph::NodeId node_of(const graph::TaskGraph& flow,
                             std::string_view type_name) {
  for (const graph::NodeId n : flow.nodes()) {
    if (flow.schema().entity_name(flow.node(n).type) == type_name) return n;
  }
  throw std::runtime_error("no node of type '" + std::string(type_name) + "'");
}

/// An order-independent fingerprint of the database: one line per instance
/// built from schedule-invariant fields (type, status, payload, producing
/// task, comment, and the types+payloads of the derivation), sorted.
/// Instance ids, names and timestamps vary with execution order and are
/// deliberately excluded.
inline std::vector<std::string> history_signature(
    const history::HistoryDb& db) {
  std::vector<std::string> sig;
  for (const data::InstanceId id : db.all()) {
    const history::Instance& inst = db.instance(id);
    std::string s = db.schema().entity_name(inst.type);
    s += "|status=" +
         std::to_string(static_cast<unsigned>(inst.status));
    s += "|payload=" + db.payload(id);
    s += "|task=" + inst.derivation.task.get();
    s += "|comment=";
    s += inst.comment.get();
    std::vector<std::string> ins;
    if (inst.derivation.tool.valid()) {
      ins.push_back("tool:" +
                    db.schema().entity_name(
                        db.instance(inst.derivation.tool).type));
    }
    for (const data::InstanceId in : inst.derivation.inputs) {
      ins.push_back(db.schema().entity_name(db.instance(in).type) + ":" +
                    db.payload(in));
    }
    std::sort(ins.begin(), ins.end());
    for (const std::string& i : ins) s += "|" + i;
    sig.push_back(std::move(s));
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

// ---- random DAG flows (property test) --------------------------------------

/// Populates `w` with a seeded random DAG of `n_tasks` tasks (each with its
/// own tool `T<i>` producing data `D<i>` from 1-2 earlier entities) and
/// returns a fully bound flow over all of them.  The same (n_tasks, seed)
/// always builds the same schema and flow.
inline graph::TaskGraph make_random_dag(World& w, std::size_t n_tasks,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<schema::EntityTypeId> data;
  data.push_back(w.schema.add_data("Src"));
  std::vector<schema::EntityTypeId> tool_types;
  std::vector<std::vector<std::size_t>> inputs_of(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    const std::string tool_name = support::numbered("T", i);
    const std::string data_name = support::numbered("D", i);
    const schema::EntityTypeId tool = w.schema.add_tool(tool_name);
    const schema::EntityTypeId d = w.schema.add_data(data_name);
    w.schema.set_functional_dependency(d, tool);
    // 1-2 distinct inputs drawn from everything built so far.
    std::vector<std::size_t> pool(data.size());
    for (std::size_t p = 0; p < pool.size(); ++p) pool[p] = p;
    std::shuffle(pool.begin(), pool.end(), rng);
    const std::size_t k = std::min<std::size_t>(1 + rng() % 2, pool.size());
    pool.resize(k);
    std::sort(pool.begin(), pool.end());
    for (const std::size_t p : pool) {
      w.schema.add_data_dependency(d, data[p]);
    }
    inputs_of[i] = pool;
    register_enc(w, tool, tool_name, data_name);
    tool_types.push_back(tool);
    data.push_back(d);
  }

  graph::TaskGraph flow(w.schema, "random-dag");
  std::vector<graph::NodeId> node;
  node.push_back(flow.add_node(data[0]));
  for (std::size_t i = 0; i < n_tasks; ++i) {
    const graph::NodeId d = flow.add_node(data[i + 1]);
    const graph::NodeId t = flow.add_node(tool_types[i]);
    flow.connect(d, t);
    for (const std::size_t p : inputs_of[i]) flow.connect(d, node[p]);
    node.push_back(d);
  }
  bind_leaves(w, flow);
  return flow;
}

/// A seeded fault schedule over the tasks of `make_random_dag`: roughly a
/// quarter of the tasks fault (alternating throw/corrupt); half of those
/// also fault their first retry, so with one retry some tasks recover and
/// some are exhausted.
inline std::vector<tools::FaultSpec> random_faults(std::size_t n_tasks,
                                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<tools::FaultSpec> out;
  for (std::size_t i = 0; i < n_tasks; ++i) {
    if (rng() % 4 != 0) continue;
    const tools::FaultKind kind =
        (rng() % 2 == 0) ? tools::FaultKind::kThrow : tools::FaultKind::kCorrupt;
    const bool kill_retry = rng() % 2 == 0;
    const std::string enc = support::numbered("T", i) + ".enc";
    out.push_back({enc, 0, kind, std::chrono::milliseconds{0}});
    if (kill_retry) out.push_back({enc, 1, kind, std::chrono::milliseconds{0}});
  }
  return out;
}

// ---- fan-out / fan-in flows (stress test) ----------------------------------

/// Populates `w` with a fan-out/fan-in shape — `Root` feeding `n` parallel
/// tasks `F<i>` (each with its own tool `FT<i>` and a deterministic
/// pseudo-random latency) joined into one composite `Join` — and returns the
/// bound flow: n + 1 task groups, 2n + 2 nodes.
inline graph::TaskGraph make_fan(World& w, std::size_t n) {
  const schema::EntityTypeId root = w.schema.add_data("Root");
  const schema::EntityTypeId join = w.schema.add_composite("Join");
  std::vector<schema::EntityTypeId> fan_data;
  std::vector<schema::EntityTypeId> fan_tools;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string tool_name = "FT" + std::to_string(i);
    const std::string data_name = support::numbered("F", i);
    const schema::EntityTypeId tool = w.schema.add_tool(tool_name);
    const schema::EntityTypeId d = w.schema.add_data(data_name);
    w.schema.set_functional_dependency(d, tool);
    w.schema.add_data_dependency(d, root);
    w.schema.add_data_dependency(join, d);
    const auto latency = std::chrono::microseconds(
        (i * 2654435761u) % 400);  // 0..399us, fixed per task
    register_enc(w, tool, tool_name, data_name, latency);
    fan_data.push_back(d);
    fan_tools.push_back(tool);
  }

  graph::TaskGraph flow(w.schema, "fan");
  const graph::NodeId root_node = flow.add_node(root);
  const graph::NodeId join_node = flow.add_node(join);
  for (std::size_t i = 0; i < n; ++i) {
    const graph::NodeId d = flow.add_node(fan_data[i]);
    const graph::NodeId t = flow.add_node(fan_tools[i]);
    flow.connect(d, t);
    flow.connect(d, root_node);
    flow.connect(join_node, d);
  }
  bind_leaves(w, flow);
  return flow;
}

}  // namespace herc::faulttest
