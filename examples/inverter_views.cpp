// Figs. 7–8: three views of a cell, kept consistent by flows.
//
// A full adder exists as a logic view (gates), a transistor view
// (synthesized netlist) and a physical view (placed layout).  The flows of
// Fig. 8 synthesize the physical view from the transistor view and verify
// their correspondence; breaking the layout by hand makes verification
// fail; staleness tracking notices when the transistor view moves on.
#include <cstdio>

#include "circuit/edits.hpp"
#include "circuit/layout.hpp"
#include "circuit/logic_view.hpp"
#include "core/session.hpp"
#include "graph/bipartite.hpp"
#include "schema/standard_schemas.hpp"
#include "views/view_manager.hpp"

using namespace herc;

int main() {
  core::DesignSession session(
      schema::make_full_schema(), "jacome",
      std::make_unique<support::ManualClock>(720000000000000, 60000000));
  views::ViewManager views(session.db(), session.tools());

  // Tool instances.
  const auto synthesizer = session.import_data("Synthesizer", "gate-mapper",
                                               "");
  const auto placer = session.import_data("Placer", "annealer", "");
  const auto verifier = session.import_data("Verifier", "lvs+drc", "");

  // The logic view is designer-supplied source data (Fig. 7 left).
  const auto logic = session.import_data(
      "LogicView", "full adder gates",
      circuit::full_adder_logic().to_text());
  views.register_view("adder", views::ViewKind::kLogic, logic);

  // Fig. 8a: synthesis flows down to the physical view.
  const auto transistor = views.synthesize_transistor("adder", synthesizer);
  const auto physical = views.synthesize_physical("adder", placer);
  std::printf("views of cell 'adder':\n");
  for (const auto kind :
       {views::ViewKind::kLogic, views::ViewKind::kTransistor,
        views::ViewKind::kPhysical}) {
    const auto inst = views.view("adder", kind);
    std::printf("  %-10s -> i%u (%s)\n", views::to_string(kind),
                inst->value(),
                std::string(session.db().instance(*inst).name.get()).c_str());
  }

  // The Fig. 8 flows themselves, in both representations of Fig. 3.
  const graph::TaskGraph synth = views.synthesis_flow();
  std::printf("\nFig. 8a synthesis flow (bipartite form, Fig. 3a):\n%s",
              graph::to_bipartite(synth).render_text().c_str());
  const graph::TaskGraph verify = views.verification_flow();
  std::printf("Fig. 8b verification flow (bipartite form):\n%s\n",
              graph::to_bipartite(verify).render_text().c_str());

  // Fig. 8b: verification passes on the synthesized pair.
  auto report = views.verify_correspondence("adder", verifier);
  std::printf("verification: %s\n", report.pass ? "PASS" : "FAIL");
  std::printf("physical view up to date: %s\n\n",
              views.physical_up_to_date("adder") ? "yes" : "no");

  // Sabotage the layout with the layout editor: delete a device.
  const circuit::Layout placed =
      circuit::Layout::from_text(session.db().payload(physical));
  const std::string victim = placed.placements().front().device.name;
  const auto editor = session.import_data(
      "LayoutEditor", "delete " + victim, "unplace " + victim + "\n");
  graph::TaskGraph edit = session.task_from_goal("EditedLayout");
  const graph::NodeId edited = edit.nodes().front();
  edit.expand(edited, graph::ExpandOptions{.include_optional = true});
  edit.bind(edit.tool_of(edited), editor);
  edit.bind(edit.inputs_of(edited)[0], physical);
  const auto broken = session.run(edit).single(edited);
  views.register_view("adder", views::ViewKind::kPhysical, broken);

  report = views.verify_correspondence("adder", verifier);
  std::printf("after deleting device '%s': verification %s\n",
              victim.c_str(), report.pass ? "PASS" : "FAIL");
  for (std::size_t i = 0; i < report.errors.size() && i < 3; ++i) {
    std::printf("  error: %s\n", report.errors[i].c_str());
  }

  // Restore by re-synthesizing; the stale edit branch remains in history.
  const auto fresh = views.synthesize_physical("adder", placer);
  report = views.verify_correspondence("adder", verifier);
  std::printf("\nre-synthesized physical view i%u: verification %s\n",
              fresh.value(), report.pass ? "PASS" : "FAIL");
  std::printf("physical view up to date: %s\n",
              views.physical_up_to_date("adder") ? "yes" : "no");

  // Detail-route the physical view (the RoutedLayout subtype) and compare
  // wirelength against the placement estimate.
  const auto router = session.import_data("Router", "l-router", "");
  graph::TaskGraph route_flow = session.task_from_goal("RoutedLayout");
  const graph::NodeId routed_goal = route_flow.nodes().front();
  route_flow.expand(routed_goal);
  route_flow.bind(route_flow.tool_of(routed_goal), router);
  route_flow.bind(route_flow.inputs_of(routed_goal)[0], fresh);
  const auto routed_inst = session.run(route_flow).single(routed_goal);
  const circuit::Layout routed =
      circuit::Layout::from_text(session.db().payload(routed_inst));
  const circuit::Layout placed_fresh =
      circuit::Layout::from_text(session.db().payload(fresh));
  double routed_wl = 0.0;
  for (const auto& net : routed.nets()) routed_wl += routed.routed_length(net);
  std::printf("\nrouted i%u: %zu wire segments, wirelength %.0f "
              "(HPWL estimate was %.0f)\n",
              routed_inst.value(), routed.wires().size(), routed_wl,
              placed_fresh.total_hpwl());
  (void)transistor;
  return 0;
}
