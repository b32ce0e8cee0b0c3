// Circuit data structures: netlists, models, stimuli, layouts — formats,
// validation, round trips.
#include <gtest/gtest.h>

#include "circuit/edits.hpp"
#include "circuit/layout.hpp"
#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "circuit/netlist.hpp"
#include "circuit/stimuli.hpp"
#include "support/error.hpp"

namespace herc::circuit {
namespace {

using support::ExecError;
using support::ParseError;

TEST(NetlistData, RoundTripsThroughText) {
  for (const Netlist& original :
       {inverter_netlist(), nand2_netlist(), xor2_netlist(),
        full_adder_netlist(), latch_netlist(), ripple_adder_netlist(3)}) {
    const std::string text = original.to_text();
    const Netlist back = Netlist::from_text(text);
    EXPECT_EQ(back.to_text(), text) << original.name();
    EXPECT_EQ(back.devices().size(), original.devices().size());
    EXPECT_EQ(back.inputs(), original.inputs());
    EXPECT_EQ(back.outputs(), original.outputs());
    back.validate();
  }
}

TEST(NetlistData, ParseErrors) {
  EXPECT_THROW(Netlist::from_text("bogus directive"), ParseError);
  EXPECT_THROW(Netlist::from_text("nmos m1 g=a"), ParseError);  // missing d/s
  EXPECT_THROW(Netlist::from_text("cap c1 a=x b=y value=abc"), ParseError);
  EXPECT_THROW(Netlist::from_text("netlist"), ParseError);
  EXPECT_THROW(Netlist::from_text("nmos m1 g=a d=b s=c extra"), ParseError);
}

TEST(NetlistData, ValidationCatchesProblems) {
  Netlist nl("bad");
  nl.add_nmos("m1", "a", "b", "GND");
  nl.device_mut("m1").model.clear();
  EXPECT_THROW(nl.validate(), ExecError);
  Netlist nl2("bad2");
  nl2.add_capacitor("c1", "x", "GND", 0.1);
  nl2.device_mut("c1").value = -1;
  EXPECT_THROW(nl2.validate(), ExecError);
}

TEST(NetlistData, DeviceManagement) {
  Netlist nl = inverter_netlist();
  EXPECT_TRUE(nl.has_device("mn"));
  EXPECT_THROW(nl.add_nmos("mn", "a", "b", "GND"), ExecError);  // duplicate
  nl.remove_device("mn");
  EXPECT_FALSE(nl.has_device("mn"));
  EXPECT_THROW(nl.remove_device("mn"), ExecError);
  EXPECT_THROW((void)nl.device("mn"), ExecError);
  // Index integrity after removal.
  EXPECT_EQ(nl.device("mp").name, "mp");
  EXPECT_EQ(nl.mos_count(), 1u);
}

TEST(NetlistData, NetCapacitanceSums) {
  Netlist nl = inverter_netlist();
  nl.add_capacitor("c1", "out", "GND", 0.25);
  nl.add_capacitor("c2", "out", "GND", 0.5);
  nl.add_capacitor("c3", "in", "GND", 1.0);
  EXPECT_DOUBLE_EQ(nl.net_capacitance("out"), 0.75);
  EXPECT_DOUBLE_EQ(nl.net_capacitance("in"), 1.0);
  EXPECT_DOUBLE_EQ(nl.net_capacitance("nowhere"), 0.0);
}

TEST(NetlistData, InstantiatePrefixesAndRewires) {
  Netlist top("top");
  top.add_input("x");
  top.add_output("y");
  top.instantiate(inverter_netlist(), "u1", {{"in", "x"}, {"out", "mid"}});
  top.instantiate(inverter_netlist(), "u2", {{"in", "mid"}, {"out", "y"}});
  top.validate();
  EXPECT_TRUE(top.has_device("u1.mn"));
  EXPECT_TRUE(top.has_device("u2.mp"));
  EXPECT_EQ(top.device("u1.mn").terminals[1], "mid");
  // Rails are never prefixed.
  EXPECT_EQ(top.device("u1.mn").terminals[2], "GND");
}

TEST(ModelData, LibraryRoundTripAndLookup) {
  DeviceModelLibrary lib = DeviceModelLibrary::standard();
  lib.set_model(DeviceModel{"hv", true, 35.5, 1.2});
  const std::string text = lib.to_text();
  const DeviceModelLibrary back = DeviceModelLibrary::from_text(text);
  EXPECT_EQ(back.to_text(), text);
  EXPECT_TRUE(back.model("hv").is_pmos);
  EXPECT_DOUBLE_EQ(back.model("hv").resistance_kohm, 35.5);
  EXPECT_THROW((void)back.model("nope"), ExecError);
  // set_model replaces in place.
  lib.set_model(DeviceModel{"hv", true, 1.0, 1.2});
  EXPECT_DOUBLE_EQ(lib.model("hv").resistance_kohm, 1.0);
  lib.remove_model("hv");
  EXPECT_FALSE(lib.has_model("hv"));
  EXPECT_THROW(lib.remove_model("hv"), ExecError);
}

TEST(ModelData, ParseErrors) {
  EXPECT_THROW(DeviceModelLibrary::from_text("model x resistance=abc"),
               ParseError);
  EXPECT_THROW(DeviceModelLibrary::from_text("model x unknown=1"),
               ParseError);
  EXPECT_THROW(DeviceModelLibrary::from_text("nonsense"), ParseError);
}

TEST(ModelData, NumbersAreWholeAndFinite) {
  EXPECT_DOUBLE_EQ(DeviceModelLibrary::from_text("model x resistance=1.5")
                       .model("x")
                       .resistance_kohm,
                   1.5);
  for (const char* bad : {"1.5x", "nan", "inf", "1e999"}) {
    EXPECT_THROW(DeviceModelLibrary::from_text(
                     std::string("model x resistance=") + bad),
                 ParseError)
        << bad;
  }
}

TEST(NetlistData, ValuesAreWholeAndFinite) {
  EXPECT_THROW(Netlist::from_text("cap c1 a=x b=y value=nan"), ParseError);
  EXPECT_THROW(Netlist::from_text("cap c1 a=x b=y value=1.5x"), ParseError);
}

TEST(LayoutData, NumbersAreWholeAndFinite) {
  const std::string head = "layout l rows=4 cols=4\n";
  EXPECT_NO_THROW(Layout::from_text(
      head + "place r1 res a=x b=y x=0 y=0 value=2.5\n"));
  EXPECT_THROW(Layout::from_text(
                   head + "place r1 res a=x b=y x=0 y=0 value=nan\n"),
               ParseError);
  EXPECT_THROW(Layout::from_text(head + "wire n 0 0 1x 1\n"), ParseError);
  EXPECT_THROW(Layout::from_text("layout l rows=99999999999\n"), ParseError);
}

TEST(EditData, NumbersAreWholeAndFinite) {
  const DeviceModelLibrary base = DeviceModelLibrary::standard();
  EXPECT_DOUBLE_EQ(
      apply_model_edits(base, "set nch resistance=2.5").model("nch")
          .resistance_kohm,
      2.5);
  EXPECT_THROW(apply_model_edits(base, "set nch resistance=nan"), ParseError);
  EXPECT_THROW(apply_model_edits(base, "set nch threshold=0.7v"), ParseError);
  const Layout layout = Layout::from_text(
      "layout l rows=4 cols=4\nplace r1 res a=x b=y x=0 y=0\n");
  EXPECT_THROW(apply_layout_edits(layout, "move r1 1 2x"), ParseError);
  EXPECT_THROW(apply_layout_edits(layout, "resize 4 99999999999"), ParseError);
}

TEST(StimuliData, WaveTimesAreWholeIntegers) {
  EXPECT_THROW(Stimuli::from_text("stimuli sw\nwave in 0:0 12x:1\n"),
               ParseError);
  EXPECT_THROW(Stimuli::from_text("stimuli sw\nwave in +5:1\n"),
               ParseError);
  EXPECT_THROW(
      Stimuli::from_text("stimuli sw\nwave in 99999999999999999999:1\n"),
      ParseError);
  EXPECT_EQ(Stimuli::from_text("stimuli sw\nwave in 0:0 12:1\n")
                .wave("in")
                .points.back()
                .time_ps,
            12);
}

TEST(StimuliData, WaveformSemantics) {
  Waveform w{"a", {{0, Level::kLow}, {10, Level::kHigh}, {20, Level::kLow}}};
  EXPECT_EQ(w.at(-1), Level::kX);   // before the first point
  EXPECT_EQ(w.at(0), Level::kLow);
  EXPECT_EQ(w.at(15), Level::kHigh);
  EXPECT_EQ(w.at(1000), Level::kLow);
  EXPECT_EQ(w.transitions(), 2u);
}

TEST(StimuliData, RoundTripAndValidation) {
  Stimuli st("s");
  st.add_wave(Waveform{"a", {{0, Level::kLow}, {5, Level::kX}}});
  st.add_wave(Waveform{"b", {{0, Level::kHigh}}});
  const std::string text = st.to_text();
  const Stimuli back = Stimuli::from_text(text);
  EXPECT_EQ(back.to_text(), text);
  EXPECT_EQ(back.wave("a").at(5), Level::kX);
  EXPECT_EQ(back.horizon_ps(), 5);
  EXPECT_EQ(back.event_times(), (std::vector<std::int64_t>{0, 5}));
  // Unsorted points rejected.
  Stimuli bad("b");
  EXPECT_THROW(
      bad.add_wave(Waveform{"x", {{5, Level::kLow}, {5, Level::kHigh}}}),
      ExecError);
  EXPECT_THROW(Stimuli::from_text("wave a 0:Z"), ParseError);
  EXPECT_THROW(Stimuli::from_text("wave a zero:1"), ParseError);
}

TEST(StimuliData, Generators) {
  const Stimuli counter = Stimuli::counter({"a", "b"}, 100);
  // Bit 0 toggles every step, bit 1 every two steps.
  EXPECT_EQ(counter.wave("a").at(0), Level::kLow);
  EXPECT_EQ(counter.wave("a").at(100), Level::kHigh);
  EXPECT_EQ(counter.wave("b").at(100), Level::kLow);
  EXPECT_EQ(counter.wave("b").at(200), Level::kHigh);

  const Waveform clk = Stimuli::clock("clk", 100, 3);
  EXPECT_EQ(clk.at(25), Level::kLow);
  EXPECT_EQ(clk.at(75), Level::kHigh);
  EXPECT_EQ(clk.at(125), Level::kLow);
  EXPECT_EQ(clk.transitions(), 6u);

  // Random generation is deterministic per seed.
  const Stimuli r1 = Stimuli::random({"x"}, 10, 32, 99);
  const Stimuli r2 = Stimuli::random({"x"}, 10, 32, 99);
  const Stimuli r3 = Stimuli::random({"x"}, 10, 32, 100);
  EXPECT_EQ(r1.to_text(), r2.to_text());
  EXPECT_NE(r1.to_text(), r3.to_text());
}

TEST(LayoutData, RoundTripAndGeometry) {
  Layout layout("l", "src", 4, 4);
  layout.place(inverter_netlist().device("mn"), 0, 0);
  layout.place(inverter_netlist().device("mp"), 2, 3);
  layout.add_pin("in", 0, 1, false);
  layout.add_pin("out", 3, 3, true);
  const std::string text = layout.to_text();
  const Layout back = Layout::from_text(text);
  EXPECT_EQ(back.to_text(), text);
  EXPECT_EQ(back.rows(), 4);
  EXPECT_EQ(back.placements().size(), 2u);
  EXPECT_EQ(back.pins().size(), 2u);
  // HPWL of net "out": mn(0,0), mp(2,3), pin(3,3) -> (3-0)+(3-0)=6.
  EXPECT_DOUBLE_EQ(back.net_hpwl("out"), 6.0);
  EXPECT_GT(back.total_hpwl(), 0.0);
}

TEST(LayoutData, DrcFindsViolations) {
  Layout layout("l", "src", 2, 2);
  const Device mn = inverter_netlist().device("mn");
  Device mp = inverter_netlist().device("mp");
  layout.place(mn, 0, 0);
  layout.place(mp, 0, 0);  // overlap
  Device far = mn;
  far.name = "m_far";
  layout.place(far, 7, 7);  // outside grid
  const auto violations = layout.drc();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_NE(violations[0].find("overlap"), std::string::npos);
  EXPECT_NE(violations[1].find("outside"), std::string::npos);
}

TEST(LayoutData, PlacementManagement) {
  Layout layout("l", "src", 4, 4);
  const Device mn = inverter_netlist().device("mn");
  layout.place(mn, 1, 1);
  EXPECT_THROW(layout.place(mn, 2, 2), ExecError);  // already placed
  layout.move("mn", 3, 3);
  EXPECT_EQ(layout.placement("mn").x, 3);
  EXPECT_THROW(layout.move("nope", 0, 0), ExecError);
  layout.unplace("mn");
  EXPECT_FALSE(layout.has_placement("mn"));
  EXPECT_THROW(layout.unplace("mn"), ExecError);
}

}  // namespace
}  // namespace herc::circuit
