// The COSMOS-style compiled simulator (Fig. 2): compilation, equivalence
// with the interpreted simulator, state handling, serialization.
#include <gtest/gtest.h>

#include "circuit/cosmos.hpp"
#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "circuit/sim.hpp"
#include "circuit/stimuli.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::circuit {
namespace {

using support::ExecError;
using support::ParseError;

DeviceModelLibrary models() { return DeviceModelLibrary::standard(); }

TEST(Cosmos, CompilesInverterToOneComponent) {
  const CompiledSim sim = compile_netlist(inverter_netlist(), models());
  ASSERT_EQ(sim.components.size(), 1u);
  const CompiledComponent& c = sim.components[0];
  EXPECT_EQ(c.input_signals, std::vector<std::string>{"in"});
  EXPECT_EQ(c.output_nets, std::vector<std::string>{"out"});
  ASSERT_EQ(c.rows.size(), 2u);
  EXPECT_EQ(c.rows[0], "1");  // in=0 -> out=1
  EXPECT_EQ(c.rows[1], "0");  // in=1 -> out=0
}

TEST(Cosmos, DynamicLatchCompilesToKeepRows) {
  // With no feedback, the storage node floats when en=0: the compiler
  // must emit state-retaining ('K') rows for those input combinations.
  const CompiledSim sim = compile_netlist(dynamic_latch_netlist(), models());
  bool has_keep = false;
  for (const CompiledComponent& c : sim.components) {
    for (const std::string& row : c.rows) {
      has_keep |= row.find('K') != std::string::npos;
    }
  }
  EXPECT_TRUE(has_keep);
}

TEST(Cosmos, DynamicLatchHoldsChargeAtRuntime) {
  const CompiledSim sim = compile_netlist(dynamic_latch_netlist(), models());
  Stimuli st("drive");
  st.add_wave(Waveform{"d", {{0, Level::kHigh}, {3000, Level::kLow}}});
  st.add_wave(Waveform{"en", {{0, Level::kHigh}, {2000, Level::kLow}}});
  const SimResult r = run_compiled(sim, st);
  EXPECT_EQ(r.wave("q").at(1000), Level::kLow);  // transparent: q = ~d
  EXPECT_EQ(r.wave("q").at(4000), Level::kLow);  // held after en drops
}

TEST(Cosmos, RunMatchesTruthTables) {
  const CompiledSim sim = compile_netlist(full_adder_netlist(), models());
  const Stimuli st = Stimuli::counter({"a", "b", "cin"}, 1000);
  const SimResult r = run_compiled(sim, st);
  for (std::size_t code = 0; code < 8; ++code) {
    const int a = static_cast<int>(code & 1);
    const int b = static_cast<int>((code >> 1) & 1);
    const int c = static_cast<int>((code >> 2) & 1);
    const auto t = static_cast<std::int64_t>(code) * 1000;
    const int total = a + b + c;
    EXPECT_EQ(r.wave("sum").at(t),
              (total & 1) != 0 ? Level::kHigh : Level::kLow);
    EXPECT_EQ(r.wave("cout").at(t),
              total >= 2 ? Level::kHigh : Level::kLow);
  }
  EXPECT_EQ(r.max_delay_ps, 0);  // compiled simulation is zero-delay
}

TEST(Cosmos, LatchBehaviourMatchesInterpreted) {
  const Netlist latch = latch_netlist();
  const CompiledSim sim = compile_netlist(latch, models());
  Stimuli st("drive");
  st.add_wave(Waveform{"d", {{0, Level::kHigh}, {3000, Level::kLow}}});
  st.add_wave(Waveform{"en", {{0, Level::kHigh}, {2000, Level::kLow}}});
  const SimResult compiled = run_compiled(sim, st);
  EXPECT_EQ(compiled.wave("q").at(1000), Level::kLow);
  EXPECT_EQ(compiled.wave("q").at(4000), Level::kLow);  // held after close
}

TEST(Cosmos, RefusesTooWideComponents) {
  // A 16-input NMOS-only mux-ish blob exceeds the table limit.
  Netlist wide("wide");
  wide.add_output("y");
  for (int i = 0; i < 16; ++i) {
    const std::string g = support::numbered("g", i);
    wide.add_input(g);
    wide.add_nmos(support::numbered("m", i), g, "y",
                  i % 2 == 0 ? "VDD" : "GND");
  }
  EXPECT_THROW(compile_netlist(wide, models(), /*max_component_inputs=*/8),
               ExecError);
  // With a generous limit it compiles.
  EXPECT_NO_THROW(compile_netlist(wide, models(), 16));
}

TEST(Cosmos, ProgramTextRoundTrip) {
  const CompiledSim sim = compile_netlist(full_adder_netlist(), models());
  const std::string text = sim.to_text();
  const CompiledSim back = CompiledSim::from_text(text);
  EXPECT_EQ(back.to_text(), text);
  EXPECT_EQ(back.table_rows(), sim.table_rows());
  // The deserialized program behaves identically.
  const Stimuli st = Stimuli::counter({"a", "b", "cin"}, 1000);
  EXPECT_EQ(run_compiled(back, st).to_text(),
            run_compiled(sim, st).to_text());
}

TEST(Cosmos, FromTextRejectsCorruptPrograms) {
  EXPECT_THROW(CompiledSim::from_text("component in=a out=y rows=0"),
               ParseError);  // needs 2 rows for 1 input
  EXPECT_THROW(CompiledSim::from_text("component in=a out=y rows=00,11"),
               ParseError);  // row width mismatches outputs
  EXPECT_THROW(CompiledSim::from_text("warp 9"), ParseError);
}

TEST(Cosmos, XInputsPropagatePessimistically) {
  const CompiledSim sim = compile_netlist(inverter_netlist(), models());
  Stimuli st("x");
  st.add_wave(Waveform{"in", {{0, Level::kX}, {10, Level::kHigh}}});
  const SimResult r = run_compiled(sim, st);
  EXPECT_EQ(r.wave("out").at(0), Level::kX);
  EXPECT_EQ(r.wave("out").at(10), Level::kLow);
}

/// Property sweep: compiled and interpreted simulators agree on the final
/// settled output values across library circuits and random stimuli.
class EquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EquivalenceTest, CompiledEqualsInterpreted) {
  const auto [circuit_index, seed] = GetParam();
  Netlist nl;
  switch (circuit_index) {
    case 0: nl = inverter_netlist(); break;
    case 1: nl = nand2_netlist(); break;
    case 2: nl = nor2_netlist(); break;
    case 3: nl = xor2_netlist(); break;
    case 4: nl = full_adder_netlist(); break;
    default: nl = ripple_adder_netlist(2); break;
  }
  std::vector<std::string> inputs = nl.inputs();
  const Stimuli st = Stimuli::random(inputs, 1000, 24, seed);
  const SimResult interpreted = simulate(nl, models(), st);
  const SimResult compiled =
      run_compiled(compile_netlist(nl, models()), st);
  // Compare settled values just before each input event (skip t=0 where
  // initial-charge conventions may differ).
  const auto times = st.event_times();
  for (const std::string& out : nl.outputs()) {
    for (std::size_t i = 1; i < times.size(); ++i) {
      const std::int64_t t = times[i] - 1;
      EXPECT_EQ(interpreted.wave(out).at(t), compiled.wave(out).at(t))
          << nl.name() << " output " << out << " at t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceTest,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{77},
                                         std::uint64_t{12345})));

}  // namespace
}  // namespace herc::circuit
