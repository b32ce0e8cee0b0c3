// Switch-level simulator behaviour: logic correctness of the library
// cells, charge retention, X handling, delay annotation.
#include <gtest/gtest.h>

#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "circuit/sim.hpp"
#include "circuit/stimuli.hpp"
#include "support/error.hpp"

namespace herc::circuit {
namespace {

DeviceModelLibrary models() { return DeviceModelLibrary::standard(); }

/// Drives `nets` through all 2^n combinations and returns the settled
/// output level for each combination.
std::vector<Level> truth_table(const Netlist& nl,
                               const std::vector<std::string>& ins,
                               const std::string& out) {
  const Stimuli st = Stimuli::counter(ins, 1000);
  const SimResult r = simulate(nl, models(), st);
  std::vector<Level> tt;
  const std::size_t codes = std::size_t{1} << ins.size();
  for (std::size_t code = 0; code < codes; ++code) {
    // Sample just before the next code starts, when the net has settled.
    tt.push_back(r.wave(out).at(static_cast<std::int64_t>(code) * 1000 + 999));
  }
  return tt;
}

TEST(SwitchSim, InverterTruth) {
  const auto tt = truth_table(inverter_netlist(), {"in"}, "out");
  EXPECT_EQ(tt[0], Level::kHigh);  // in=0 -> out=1
  EXPECT_EQ(tt[1], Level::kLow);   // in=1 -> out=0
}

TEST(SwitchSim, Nand2Truth) {
  const auto tt = truth_table(nand2_netlist(), {"a", "b"}, "y");
  EXPECT_EQ(tt[0], Level::kHigh);  // 00
  EXPECT_EQ(tt[1], Level::kHigh);  // a=1 b=0
  EXPECT_EQ(tt[2], Level::kHigh);  // a=0 b=1
  EXPECT_EQ(tt[3], Level::kLow);   // 11
}

TEST(SwitchSim, Nor2Truth) {
  const auto tt = truth_table(nor2_netlist(), {"a", "b"}, "y");
  EXPECT_EQ(tt[0], Level::kHigh);
  EXPECT_EQ(tt[1], Level::kLow);
  EXPECT_EQ(tt[2], Level::kLow);
  EXPECT_EQ(tt[3], Level::kLow);
}

TEST(SwitchSim, Xor2Truth) {
  const auto tt = truth_table(xor2_netlist(), {"a", "b"}, "y");
  EXPECT_EQ(tt[0], Level::kLow);
  EXPECT_EQ(tt[1], Level::kHigh);
  EXPECT_EQ(tt[2], Level::kHigh);
  EXPECT_EQ(tt[3], Level::kLow);
}

TEST(SwitchSim, FullAdderTruth) {
  const Netlist fa = full_adder_netlist();
  const auto sum = truth_table(fa, {"a", "b", "cin"}, "sum");
  const auto cout = truth_table(fa, {"a", "b", "cin"}, "cout");
  for (std::size_t code = 0; code < 8; ++code) {
    const int a = static_cast<int>(code & 1);
    const int b = static_cast<int>((code >> 1) & 1);
    const int c = static_cast<int>((code >> 2) & 1);
    const int total = a + b + c;
    EXPECT_EQ(sum[code], (total & 1) != 0 ? Level::kHigh : Level::kLow)
        << "sum at code " << code;
    EXPECT_EQ(cout[code], total >= 2 ? Level::kHigh : Level::kLow)
        << "cout at code " << code;
  }
}

TEST(SwitchSim, LatchStoresData) {
  const Netlist latch = latch_netlist();
  Stimuli st("latch_drive");
  // en=1: q tracks ~~d = d through the forward inverter... q = ~m, m = d.
  // Write 1, close the latch, change d: q must hold.
  st.add_wave(Waveform{"d", {{0, Level::kHigh}, {3000, Level::kLow}}});
  st.add_wave(Waveform{"en", {{0, Level::kHigh}, {2000, Level::kLow}}});
  const SimResult r = simulate(latch, models(), st);
  // After writing d=1 the storage node m=1, so q=~1=0.
  EXPECT_EQ(r.wave("q").at(1500), Level::kLow);
  // Latch closed at t=2000; d drops at t=3000 but q must not change.
  EXPECT_EQ(r.wave("q").at(4000), Level::kLow);
}

TEST(SwitchSim, UndrivenInputIsX) {
  const Netlist inv = inverter_netlist();
  const Stimuli empty("none");
  const SimResult r = simulate(inv, models(), empty);
  EXPECT_EQ(r.wave("out").at(0), Level::kX);
  EXPECT_GE(r.stats.x_nets, 1u);
}

TEST(SwitchSim, DelayGrowsWithLoadCapacitance) {
  Netlist light = inverter_netlist();
  Netlist heavy = inverter_netlist();
  heavy.add_capacitor("cl", "out", "GND", 1.0);
  Stimuli st("step");
  st.add_wave(Waveform{"in", {{0, Level::kLow}, {5000, Level::kHigh}}});
  const auto d_light = simulate(light, models(), st).max_delay_ps;
  const auto d_heavy = simulate(heavy, models(), st).max_delay_ps;
  EXPECT_GT(d_heavy, d_light);
}

TEST(SwitchSim, WiderDriverIsFaster) {
  Netlist slow = inverter_netlist();
  slow.add_capacitor("cl", "out", "GND", 0.5);
  Netlist fast = slow;
  fast.device_mut("mn").value = 4.0;
  fast.device_mut("mp").value = 4.0;
  Stimuli st("step");
  st.add_wave(Waveform{"in", {{0, Level::kLow}, {5000, Level::kHigh}}});
  EXPECT_LT(simulate(fast, models(), st).max_delay_ps,
            simulate(slow, models(), st).max_delay_ps);
}

TEST(SwitchSim, StatisticsAreRecorded) {
  const Stimuli st = Stimuli::counter({"a", "b"}, 1000);
  const SimResult r = simulate(nand2_netlist(), models(), st);
  EXPECT_EQ(r.stats.input_events, st.event_times().size());
  EXPECT_GT(r.stats.relax_iterations, 0u);
  EXPECT_GT(r.stats.output_toggles, 0u);
  EXPECT_EQ(r.stats.x_nets, 0u);
}

TEST(SwitchSim, PerformanceRoundTripsThroughText) {
  const Stimuli st = Stimuli::counter({"a", "b"}, 1000);
  const SimResult r = simulate(nand2_netlist(), models(), st);
  const SimResult back = SimResult::from_text(r.to_text());
  EXPECT_EQ(back.max_delay_ps, r.max_delay_ps);
  ASSERT_EQ(back.waves.size(), r.waves.size());
  for (std::size_t i = 0; i < r.waves.size(); ++i) {
    EXPECT_EQ(back.waves[i].net, r.waves[i].net);
    ASSERT_EQ(back.waves[i].points.size(), r.waves[i].points.size());
    for (std::size_t p = 0; p < r.waves[i].points.size(); ++p) {
      EXPECT_EQ(back.waves[i].points[p].time_ps,
                r.waves[i].points[p].time_ps);
      EXPECT_EQ(back.waves[i].points[p].level, r.waves[i].points[p].level);
    }
  }
  EXPECT_EQ(back.stats.output_toggles, r.stats.output_toggles);
}

TEST(SwitchSim, OptionAndStatisticNumbersAreStrict) {
  using support::ParseError;
  EXPECT_EQ(SimOptions::from_text("simoptions\nmax_relax_iters=12\n")
                .max_relax_iters,
            12u);
  // A count is unsigned: -1 must not wrap to 2^64 - 1.
  for (const char* bad :
       {"max_relax_iters=-1", "gate_load_pf=nan", "gate_load_pf=inf",
        "gate_load_pf=0.5x"}) {
    EXPECT_THROW(
        (void)SimOptions::from_text(std::string("simoptions\n") + bad),
        ParseError)
        << bad;
  }
  EXPECT_THROW((void)SimStatistics::from_text("statistics\nx_nets=-1\n"),
               ParseError);
  try {
    (void)SimOptions::from_text("simoptions\nmax_relax_iters=-1\n");
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "simoptions: bad integer '-1'");
  }
}

TEST(SwitchSim, UnknownModelIsRejected) {
  Netlist nl = inverter_netlist();
  nl.device_mut("mn").model = "mystery";
  const Stimuli st = Stimuli::counter({"in"}, 1000);
  EXPECT_THROW(simulate(nl, models(), st), support::ExecError);
}

TEST(SwitchSim, RippleAdderAddsCorrectly) {
  const Netlist adder = ripple_adder_netlist(2);
  // a=3 (a0=1,a1=1), b=1 (b0=1,b1=0), cin=0 -> sum=00, cout=1 (3+1=4).
  Stimuli st("add");
  st.add_wave(Waveform{"a0", {{0, Level::kHigh}}});
  st.add_wave(Waveform{"a1", {{0, Level::kHigh}}});
  st.add_wave(Waveform{"b0", {{0, Level::kHigh}}});
  st.add_wave(Waveform{"b1", {{0, Level::kLow}}});
  st.add_wave(Waveform{"cin", {{0, Level::kLow}, {1000, Level::kLow}}});
  const SimResult r = simulate(adder, models(), st);
  EXPECT_EQ(r.wave("s0").at(1999), Level::kLow);
  EXPECT_EQ(r.wave("s1").at(1999), Level::kLow);
  EXPECT_EQ(r.wave("cout").at(1999), Level::kHigh);
}

}  // namespace
}  // namespace herc::circuit
