#include "history/query_language.hpp"

#include <cctype>

#include "history/flow_trace.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::history {

using data::InstanceId;
using graph::NodeId;
using graph::TaskGraph;
using support::FlowError;
using support::HistoryError;
using support::ParseError;

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Tokenizes, keeping quoted strings as single tokens (quotes stripped).
std::vector<std::string> tokenize(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i >= text.size()) break;
    if (text[i] == '"') {
      const std::size_t close = text.find('"', i + 1);
      if (close == std::string_view::npos) {
        throw ParseError("query: unterminated string literal");
      }
      std::string literal(1, '"');
      literal += text.substr(i + 1, close - i - 1);
      out.push_back(std::move(literal));
      i = close + 1;
      continue;
    }
    std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

/// Resolves `iN` or a `"quoted name"` token to an instance.  With an
/// index, name lookup checks only the index's candidate set (a superset
/// of the exact matches); every candidate is verified against the stored
/// name, so answers match the scan exactly.
InstanceId resolve_instance(const HistoryDb& db, const std::string& token,
                            const SecondaryIndex* index) {
  if (!token.empty() && token[0] == '"') {
    const std::string name = token.substr(1);
    InstanceId found;
    std::optional<std::vector<InstanceId>> narrowed;
    if (index != nullptr) narrowed = index->name_candidates(name);
    const auto consider = [&](const InstanceId id) {
      if (db.contains(id) && db.instance(id).name == name) {
        if (found.valid()) {
          throw HistoryError("query: instance name '" + name +
                             "' is ambiguous");
        }
        found = id;
      }
    };
    if (narrowed) {
      for (const InstanceId id : *narrowed) consider(id);
    } else {
      for (const InstanceId id : db.all()) consider(id);
    }
    if (!found.valid()) {
      throw HistoryError("query: no instance named '" + name + "'");
    }
    return found;
  }
  if (token.size() < 2 || token[0] != 'i') {
    throw ParseError("query: expected iN or a quoted name, got '" + token +
                     "'");
  }
  const std::optional<std::uint32_t> v =
      support::parse_int<std::uint32_t>(std::string_view(token).substr(1));
  if (!v) throw ParseError("query: bad instance ref '" + token + "'");
  const InstanceId id(*v);
  (void)db.instance(id);
  return id;
}

/// Descends one path step from `node`, creating (or reusing) the pattern
/// node for that derivation position.
NodeId descend(const HistoryDb& db, TaskGraph& pattern, NodeId node,
               const std::string& step) {
  const schema::TaskSchema& schema = db.schema();
  const schema::ConstructionRule rule =
      schema.construction(pattern.node(node).type);
  if (iequals(step, "tool")) {
    if (!rule.has_tool()) {
      throw FlowError("query: '" +
                      schema.entity_name(pattern.node(node).type) +
                      "' has no tool step");
    }
    const NodeId existing = pattern.tool_of(node);
    if (existing.valid()) return existing;
    const NodeId tool = pattern.add_node(rule.tool);
    pattern.connect(node, tool);
    return tool;
  }
  // Match the step against arc roles first, then target entity names.
  const schema::Dependency* arc = nullptr;
  for (const schema::Dependency& d : rule.inputs) {
    if (iequals(d.role, step)) {
      arc = &d;
      break;
    }
  }
  if (arc == nullptr) {
    for (const schema::Dependency& d : rule.inputs) {
      if (iequals(schema.entity_name(d.target), step)) {
        if (arc != nullptr) {
          throw FlowError("query: step '" + step +
                          "' is ambiguous; use the arc role instead");
        }
        arc = &d;
      }
    }
  }
  if (arc == nullptr) {
    throw FlowError("query: '" +
                    schema.entity_name(pattern.node(node).type) +
                    "' has no input step '" + step + "'");
  }
  // Reuse the already-created pattern node for this arc, if any.
  for (const graph::DepEdge& e : pattern.deps(node)) {
    if (e.kind == schema::DepKind::kData && e.role == arc->role &&
        schema.is_ancestor_or_self(arc->target,
                                   pattern.node(e.target).type)) {
      return e.target;
    }
  }
  const NodeId input = pattern.add_node(arc->target);
  pattern.connect_role(node, input, arc->role);
  return input;
}

}  // namespace

CompiledQuery compile_query(const HistoryDb& db, std::string_view text,
                            const SecondaryIndex* index) {
  const std::vector<std::string> tokens = tokenize(text);
  if (tokens.size() < 2 || tokens[0] != "find") {
    throw ParseError("query: expected 'find <Entity> [where ...]'");
  }
  const schema::TaskSchema& schema = db.schema();
  TaskGraph pattern(schema, "query");
  const NodeId target = pattern.add_node(schema.require(tokens[1]));

  std::size_t i = 2;
  if (i < tokens.size()) {
    if (tokens[i] != "where") {
      throw ParseError("query: expected 'where', got '" + tokens[i] + "'");
    }
    ++i;
    while (i < tokens.size()) {
      // <path> = <instance>
      if (i + 2 >= tokens.size() || tokens[i + 1] != "=") {
        throw ParseError("query: expected '<path> = <instance>'");
      }
      const std::string& path = tokens[i];
      const InstanceId instance =
          resolve_instance(db, tokens[i + 2], index);
      NodeId node = target;
      for (const std::string& step : support::split(path, '.')) {
        if (step.empty()) {
          throw ParseError("query: empty step in path '" + path + "'");
        }
        node = descend(db, pattern, node, step);
      }
      pattern.bind(node, instance);
      i += 3;
      if (i < tokens.size()) {
        if (tokens[i] != "and") {
          throw ParseError("query: expected 'and', got '" + tokens[i] + "'");
        }
        ++i;
      }
    }
  }
  return CompiledQuery{std::move(pattern), target};
}

std::vector<InstanceId> run_query(const HistoryDb& db, std::string_view text,
                                  const SecondaryIndex* index) {
  const CompiledQuery query = compile_query(db, text, index);
  return query_template(db, query.pattern, query.target);
}

}  // namespace herc::history
