// VCD export: structure of the emitted document and the Plotter.vcd
// encapsulation variant.
#include <gtest/gtest.h>

#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "circuit/sim.hpp"
#include "circuit/stimuli.hpp"
#include "circuit/vcd.hpp"
#include "core/session.hpp"
#include "schema/standard_schemas.hpp"
#include "support/text.hpp"

namespace herc::circuit {
namespace {

TEST(Vcd, WellFormedDocument) {
  const Stimuli st = Stimuli::counter({"a", "b"}, 1000);
  const SimResult r =
      simulate(nand2_netlist(), DeviceModelLibrary::standard(), st);
  const std::string vcd = to_vcd(r);
  // Header sections in order.
  const std::size_t ts = vcd.find("$timescale 1ps $end");
  const std::size_t scope = vcd.find("$scope module dut $end");
  const std::size_t var = vcd.find("$var wire 1 ! y $end");
  const std::size_t enddefs = vcd.find("$enddefinitions $end");
  const std::size_t dump = vcd.find("$dumpvars");
  ASSERT_NE(ts, std::string::npos);
  ASSERT_NE(scope, std::string::npos);
  ASSERT_NE(var, std::string::npos);
  ASSERT_NE(enddefs, std::string::npos);
  ASSERT_NE(dump, std::string::npos);
  EXPECT_LT(ts, scope);
  EXPECT_LT(scope, var);
  EXPECT_LT(var, enddefs);
  EXPECT_LT(enddefs, dump);
  // Time markers and value changes follow.
  EXPECT_NE(vcd.find("\n#"), std::string::npos);
  // Every transition of the output appears as a value change line.
  const std::size_t toggles = r.wave("y").transitions();
  std::size_t changes = 0;
  for (std::size_t pos = vcd.find("$end\n", dump) + 5;
       pos < vcd.size() && pos != std::string::npos;) {
    if (vcd[pos] == '0' || vcd[pos] == '1' || vcd[pos] == 'x') ++changes;
    pos = vcd.find('\n', pos);
    if (pos == std::string::npos) break;
    ++pos;
  }
  EXPECT_GE(changes, toggles);
}

TEST(Vcd, XLevelsRenderAsX) {
  SimResult r;
  r.waves.push_back(Waveform{"w", {{0, Level::kX}, {10, Level::kHigh}}});
  const std::string vcd = to_vcd(r);
  EXPECT_NE(vcd.find("x!"), std::string::npos);
  EXPECT_NE(vcd.find("#10\n1!"), std::string::npos);
}

TEST(Vcd, ManyNetsGetDistinctCodes) {
  SimResult r;
  for (int i = 0; i < 100; ++i) {
    r.waves.push_back(
        Waveform{support::numbered("n", i), {{0, Level::kLow}}});
  }
  const std::string vcd = to_vcd(r);
  // The 95th signal wraps into a two-character code.
  EXPECT_NE(vcd.find("$var wire 1 !\" n94 $end"), std::string::npos);
}

TEST(Vcd, PlotterVcdEncapsulationProducesVcdPayload) {
  core::DesignSession session(
      schema::make_full_schema(), "t",
      std::make_unique<support::ManualClock>(0, 1));
  const auto perf = session.import_data(
      "Performance", "p",
      simulate(inverter_netlist(), DeviceModelLibrary::standard(),
               Stimuli::counter({"in"}, 1000))
          .to_text());
  const auto plotter = session.import_data("Plotter", "pl", "");
  session.tools().set_default("Plotter.vcd");

  graph::TaskGraph flow(session.schema(), "plot");
  const graph::NodeId plot = flow.add_node("PerformancePlot");
  flow.expand(plot);
  flow.bind(flow.tool_of(plot), plotter);
  flow.bind(flow.inputs_of(plot)[0], perf);
  const auto inst = session.run(flow).single(plot);
  const std::string payload = session.db().payload(inst);
  EXPECT_EQ(payload.rfind("$date", 0), 0u);
  EXPECT_NE(payload.find("$var wire 1 ! out $end"), std::string::npos);
}

}  // namespace
}  // namespace herc::circuit
