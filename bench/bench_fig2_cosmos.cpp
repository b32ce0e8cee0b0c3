// F2 (Fig. 2): the tool created during the design.
//
// Claim checked: compiling a simulator for a netlist pays off when it is
// "then executed on different stimuli" — table-driven evaluation beats
// re-relaxing the switch network per event, and the one-time compile cost
// is amortized across runs.
#include <benchmark/benchmark.h>

#include "circuit/cosmos.hpp"
#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "circuit/sim.hpp"
#include "circuit/stimuli.hpp"
#include "support/text.hpp"

namespace {

using namespace herc::circuit;

std::vector<std::string> adder_inputs(std::size_t bits) {
  std::vector<std::string> nets;
  for (std::size_t i = 0; i < bits; ++i) {
    nets.push_back(herc::support::numbered("a", i));
    nets.push_back(herc::support::numbered("b", i));
  }
  nets.push_back("cin");
  return nets;
}

void BM_InterpretedSimulation(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const Netlist nl = ripple_adder_netlist(bits);
  const DeviceModelLibrary models = DeviceModelLibrary::standard();
  const Stimuli st = Stimuli::random(adder_inputs(bits), 1000, 64, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(nl, models, st));
  }
  state.SetLabel(std::to_string(nl.mos_count()) + " transistors");
}
BENCHMARK(BM_InterpretedSimulation)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CompiledSimulation(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const Netlist nl = ripple_adder_netlist(bits);
  const DeviceModelLibrary models = DeviceModelLibrary::standard();
  const CompiledSim program = compile_netlist(nl, models);
  const Stimuli st = Stimuli::random(adder_inputs(bits), 1000, 64, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_compiled(program, st));
  }
  state.SetLabel(std::to_string(program.table_rows()) + " table rows");
}
BENCHMARK(BM_CompiledSimulation)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CompileCost(benchmark::State& state) {
  // The one-time cost the flow's SimCompiler task pays.
  const auto bits = static_cast<std::size_t>(state.range(0));
  const Netlist nl = ripple_adder_netlist(bits);
  const DeviceModelLibrary models = DeviceModelLibrary::standard();
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile_netlist(nl, models));
  }
}
BENCHMARK(BM_CompileCost)->Arg(1)->Arg(4)->Arg(8);

void BM_CompiledProgramRoundTrip(benchmark::State& state) {
  // The program is a design-data payload; it must (de)serialize cheaply.
  const CompiledSim program = compile_netlist(
      ripple_adder_netlist(4), DeviceModelLibrary::standard());
  const std::string text = program.to_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompiledSim::from_text(text));
  }
}
BENCHMARK(BM_CompiledProgramRoundTrip);

}  // namespace

BENCHMARK_MAIN();
