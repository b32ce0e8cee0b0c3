// Flow traces, version trees and template queries (§4.2, Figs. 10–11).
#include <gtest/gtest.h>

#include <algorithm>

#include "history/flow_trace.hpp"
#include "schema/standard_schemas.hpp"

namespace herc::history {
namespace {

using data::InstanceId;
using graph::NodeId;
using graph::TaskGraph;

class TraceTest : public ::testing::Test {
 protected:
  TraceTest()
      : schema_(schema::make_fig1_schema()),
        clock_(100, 10),
        db_(schema_, clock_) {
    editor_ =
        db_.import_instance(schema_.require("CircuitEditor"), "ed", "", "u");
    placer_ = db_.import_instance(schema_.require("Placer"), "pl", "", "u");
    n1_ = db_.import_instance(schema_.require("EditedNetlist"), "n1", "a",
                              "u");
    n2_ = derive("EditedNetlist", editor_, {{n1_, "seed"}}, "b");
    n3_ = derive("EditedNetlist", editor_, {{n2_, "seed"}}, "c");
    // A branch: n2b edits n1 too (Fig. 11's c3/c4 fork).
    n2b_ = derive("EditedNetlist", editor_, {{n1_, "seed"}}, "d");
    layout_ = derive("PlacedLayout", placer_, {{n3_, ""}}, "e");
  }

  InstanceId derive(const char* type, InstanceId tool,
                    std::vector<std::pair<InstanceId, std::string>> inputs,
                    const char* payload) {
    RecordRequest request;
    request.type = schema_.require(type);
    request.name = std::string(type) + payload;
    request.user = std::string("u");
    request.payload = payload;
    request.derivation.tool = tool;
    for (auto& [id, role] : inputs) {
      request.derivation.inputs.push_back(id);
      request.derivation.input_roles.push_back(role);
    }
    request.derivation.task = "test";
    return db_.record(request);
  }

  schema::TaskSchema schema_;
  support::ManualClock clock_;
  HistoryDb db_;
  InstanceId editor_, placer_, n1_, n2_, n3_, n2b_, layout_;
};

/// The instance bound to trace node `n`.
InstanceId bound(const TaskGraph& trace, NodeId n) {
  return trace.bindings(n).front();
}

/// Finds the trace node bound to `inst`.
NodeId node_for(const TaskGraph& trace, InstanceId inst) {
  for (const NodeId n : trace.nodes()) {
    if (!trace.bindings(n).empty() && bound(trace, n) == inst) return n;
  }
  return NodeId();
}

TEST_F(TraceTest, BackwardTraceContainsAncestryWithTools) {
  const TaskGraph trace = backward_trace(db_, layout_);
  // layout + placer + n3 + editor + n2 + n1 = 6 nodes.
  EXPECT_EQ(trace.node_count(), 6u);
  const NodeId ln = node_for(trace, layout_);
  ASSERT_TRUE(ln.valid());
  EXPECT_EQ(bound(trace, trace.tool_of(ln)), placer_);
  EXPECT_EQ(bound(trace, trace.inputs_of(ln)[0]), n3_);
  // The branch n2b is NOT in the backward trace of the layout.
  EXPECT_FALSE(node_for(trace, n2b_).valid());
  // Every node is bound to exactly one instance.
  for (const NodeId n : trace.nodes()) {
    EXPECT_EQ(trace.bindings(n).size(), 1u);
  }
}

TEST_F(TraceTest, ForwardTraceContainsDependents) {
  const TaskGraph trace = forward_trace(db_, n1_);
  // Everything derived from n1 (n2, n3, n2b, layout) plus the tools needed
  // to show complete tasks.
  EXPECT_TRUE(node_for(trace, n2_).valid());
  EXPECT_TRUE(node_for(trace, n2b_).valid());
  EXPECT_TRUE(node_for(trace, layout_).valid());
  EXPECT_TRUE(node_for(trace, placer_).valid());
}

TEST_F(TraceTest, VersionTreeStructure) {
  const VersionTree tree = version_tree(db_, n3_);
  // The lineage of n3: n1 -> {n2 -> n3, n2b}.
  EXPECT_EQ(tree.entries.size(), 4u);
  EXPECT_EQ(tree.roots(), std::vector<InstanceId>{n1_});
  EXPECT_EQ(tree.children(n1_), (std::vector<InstanceId>{n2_, n2b_}));
  EXPECT_EQ(tree.children(n2_), std::vector<InstanceId>{n3_});
  // Leaves are the live versions.
  const auto leaves = tree.leaves();
  EXPECT_EQ(leaves.size(), 2u);
  EXPECT_TRUE(tree.contains(n2b_));
  // Entering from any member finds the same tree.
  EXPECT_EQ(version_tree(db_, n2b_).entries.size(), 4u);
  // Rendering mentions version numbers.
  EXPECT_NE(tree.to_dot(db_).find("v2"), std::string::npos);
}

TEST_F(TraceTest, LineageTraceIsSupersetOfVersionTree) {
  const VersionTree tree = version_tree(db_, n3_);
  const TaskGraph trace = lineage_trace(db_, n3_);
  // Every version appears in the trace...
  for (const VersionTree::Entry& e : tree.entries) {
    EXPECT_TRUE(node_for(trace, e.instance).valid());
  }
  // ...plus the tool used for each edit (the paper's "semantically richer
  // superset").
  EXPECT_TRUE(node_for(trace, editor_).valid());
  EXPECT_GT(trace.node_count(), tree.entries.size());
}

TEST_F(TraceTest, TemplateQueryByStructure) {
  // "Find the layouts placed from an edited netlist" — unconstrained, the
  // only layout matches.
  TaskGraph pattern(db_.schema(), "q");
  const NodeId layout_node = pattern.add_node("PlacedLayout");
  pattern.expand(layout_node);
  const NodeId netlist_node = pattern.inputs_of(layout_node)[0];
  EXPECT_EQ(query_template(db_, pattern, layout_node),
            std::vector<InstanceId>{layout_});

  // Chain the pattern one task deeper: the layout's netlist must itself be
  // an edit whose seed was n2 — still matches (n3's seed is n2)...
  pattern.specialize(netlist_node, schema_.require("EditedNetlist"));
  pattern.expand(netlist_node,
                 graph::ExpandOptions{.include_optional = true});
  pattern.bind(pattern.inputs_of(netlist_node)[0], n2_);
  EXPECT_EQ(query_template(db_, pattern, layout_node),
            std::vector<InstanceId>{layout_});
  // ...but a seed of n2b matches nothing.
  pattern.bind(pattern.inputs_of(netlist_node)[0], n2b_);
  EXPECT_TRUE(query_template(db_, pattern, layout_node).empty());
}

TEST_F(TraceTest, TemplateQueryMatchesSubtypes) {
  // Asking for any Netlist used by the placer finds the edit chain member.
  TaskGraph pattern(db_.schema(), "q");
  const NodeId layout_node = pattern.add_node("PlacedLayout");
  pattern.expand(layout_node);
  pattern.bind(pattern.inputs_of(layout_node)[0], n3_);
  EXPECT_EQ(query_template(db_, pattern, layout_node),
            std::vector<InstanceId>{layout_});
}

TEST_F(TraceTest, TemplateQueryChecksToolIdentity) {
  // Binding the tool slot to the *editor* can never match a placed layout.
  TaskGraph pattern(db_.schema(), "q");
  const NodeId layout_node = pattern.add_node("PlacedLayout");
  pattern.expand(layout_node);
  pattern.bind(pattern.tool_of(layout_node), editor_);
  EXPECT_TRUE(query_template(db_, pattern, layout_node).empty());
  pattern.bind(pattern.tool_of(layout_node), placer_);
  EXPECT_EQ(query_template(db_, pattern, layout_node),
            std::vector<InstanceId>{layout_});
}

TEST_F(TraceTest, TracesRenderToDot) {
  const std::string dot = backward_trace(db_, layout_).to_dot();
  EXPECT_NE(dot.find("PlacedLayout"), std::string::npos);
  EXPECT_NE(dot.find("v3"), std::string::npos);  // version in label
}

}  // namespace
}  // namespace herc::history
