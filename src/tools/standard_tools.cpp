#include "tools/standard_tools.hpp"

#include <cstdint>

#include "circuit/compare.hpp"
#include "circuit/cosmos.hpp"
#include "circuit/edits.hpp"
#include "circuit/extract.hpp"
#include "circuit/layout.hpp"
#include "circuit/logic_view.hpp"
#include "circuit/models.hpp"
#include "circuit/netlist.hpp"
#include "circuit/optimize.hpp"
#include "circuit/place.hpp"
#include "circuit/plot.hpp"
#include "circuit/route.hpp"
#include "circuit/sim.hpp"
#include "circuit/stimuli.hpp"
#include "circuit/vcd.hpp"
#include "circuit/verify.hpp"
#include "support/error.hpp"
#include "support/text.hpp"
#include "tools/composite.hpp"

namespace herc::tools {

using support::ExecError;

namespace {

/// Unpacks a `Circuit` composite payload into (models, netlist).
std::pair<circuit::DeviceModelLibrary, circuit::Netlist> unpack_circuit(
    const std::string& payload) {
  const std::vector<std::string> parts = split_composite(payload);
  if (parts.size() != 2) {
    throw ExecError("Circuit composite must have two parts (DeviceModels, "
                    "Netlist), found " +
                    std::to_string(parts.size()));
  }
  return {circuit::DeviceModelLibrary::from_text(parts[0]),
          circuit::Netlist::from_text(parts[1])};
}

std::uint64_t arg_u64(const ToolContext& ctx, std::string_view key,
                      std::uint64_t fallback) {
  const std::string v = ctx.arg(key);
  if (v.empty()) return fallback;
  const std::optional<std::uint64_t> value =
      support::parse_int<std::uint64_t>(v);
  if (!value) {
    throw ExecError("tool '" + ctx.tool_type_name + "': bad argument " +
                    std::string(key) + "='" + v + "'");
  }
  return *value;
}

double arg_double(const ToolContext& ctx, std::string_view key,
                  double fallback) {
  const std::string v = ctx.arg(key);
  if (v.empty()) return fallback;
  try {
    return std::stod(v);
  } catch (const std::exception&) {
    throw ExecError("tool '" + ctx.tool_type_name + "': bad argument " +
                    std::string(key) + "='" + v + "'");
  }
}

// ---- encapsulation functions ------------------------------------------------

ToolOutput run_model_editor(const ToolContext& ctx) {
  const circuit::DeviceModelLibrary base =
      ctx.has_input("seed")
          ? circuit::DeviceModelLibrary::from_text(ctx.payload("seed"))
          : circuit::DeviceModelLibrary::standard();
  ToolOutput out;
  out.set("DeviceModels",
          circuit::apply_model_edits(base, ctx.tool_payload).to_text());
  return out;
}

ToolOutput run_circuit_editor(const ToolContext& ctx) {
  const circuit::Netlist base =
      ctx.has_input("seed")
          ? circuit::Netlist::from_text(ctx.payload("seed"))
          : circuit::Netlist();
  ToolOutput out;
  out.set("EditedNetlist",
          circuit::apply_netlist_edits(base, ctx.tool_payload).to_text());
  return out;
}

ToolOutput run_layout_editor(const ToolContext& ctx) {
  const circuit::Layout base =
      ctx.has_input("seed")
          ? circuit::Layout::from_text(ctx.payload("seed"))
          : circuit::Layout("edited", "", 16, 16);
  ToolOutput out;
  out.set("EditedLayout",
          circuit::apply_layout_edits(base, ctx.tool_payload).to_text());
  return out;
}

ToolOutput run_placer(const ToolContext& ctx) {
  const circuit::Netlist netlist =
      circuit::Netlist::from_text(ctx.payload("Netlist"));
  circuit::PlaceOptions options;
  options.moves = arg_u64(ctx, "moves", options.moves);
  options.seed = arg_u64(ctx, "seed", options.seed);
  ToolOutput out;
  out.set("PlacedLayout", circuit::place(netlist, options).to_text());
  return out;
}

ToolOutput run_router(const ToolContext& ctx) {
  const circuit::Layout layout =
      circuit::Layout::from_text(ctx.payload("Layout"));
  circuit::RouteOptions options;
  options.route_rails = ctx.arg("route_rails") == "1";
  ToolOutput out;
  out.set("RoutedLayout", circuit::route(layout, options).to_text());
  return out;
}

ToolOutput run_extractor(const ToolContext& ctx) {
  const circuit::Layout layout =
      circuit::Layout::from_text(ctx.payload("Layout"));
  circuit::ExtractOptions options;
  options.cap_per_unit_pf =
      arg_double(ctx, "cap_per_unit_pf", options.cap_per_unit_pf);
  circuit::ExtractStatistics stats;
  const circuit::Netlist netlist = circuit::extract(layout, options, &stats);
  ToolOutput out;
  out.set("ExtractedNetlist", netlist.to_text());
  out.set("ExtractionStatistics", stats.to_text());
  return out;
}

ToolOutput run_simulator(const ToolContext& ctx) {
  const auto [models, netlist] = unpack_circuit(ctx.payload("Circuit"));
  const circuit::Stimuli stimuli =
      circuit::Stimuli::from_text(ctx.payload("Stimuli"));
  const circuit::SimOptions options =
      ctx.has_input("options")
          ? circuit::SimOptions::from_text(ctx.payload("options"))
          : circuit::SimOptions{};
  const circuit::SimResult result =
      circuit::simulate(netlist, models, stimuli, options);
  ToolOutput out;
  out.set("Performance", result.to_text());
  out.set("Statistics", result.stats.to_text());
  return out;
}

ToolOutput run_verifier(const ToolContext& ctx) {
  const circuit::Layout layout =
      circuit::Layout::from_text(ctx.payload("Layout"));
  const circuit::Netlist reference =
      circuit::Netlist::from_text(ctx.payload("Netlist"));
  ToolOutput out;
  out.set("Verification",
          circuit::verify_layout(layout, reference).to_text());
  return out;
}

ToolOutput run_plotter(const ToolContext& ctx) {
  const circuit::SimResult result =
      circuit::SimResult::from_text(ctx.payload("Performance"));
  ToolOutput out;
  if (ctx.arg("format", "ascii") == "vcd") {
    out.set("PerformancePlot", circuit::to_vcd(result));
  } else {
    circuit::PlotOptions options;
    options.title = ctx.arg("title", "performance plot");
    out.set("PerformancePlot", circuit::ascii_plot(result, options));
  }
  return out;
}

ToolOutput run_sim_compiler(const ToolContext& ctx) {
  const circuit::Netlist netlist =
      circuit::Netlist::from_text(ctx.payload("Netlist"));
  const circuit::DeviceModelLibrary models =
      circuit::DeviceModelLibrary::standard();
  const auto max_inputs = static_cast<std::size_t>(
      arg_u64(ctx, "max_component_inputs", 12));
  ToolOutput out;
  out.set("CompiledSimulator",
          circuit::compile_netlist(netlist, models, max_inputs).to_text());
  return out;
}

ToolOutput run_compiled_simulator(const ToolContext& ctx) {
  // The program *is* the tool instance's payload (Fig. 2).
  const circuit::CompiledSim program =
      circuit::CompiledSim::from_text(ctx.tool_payload);
  const circuit::Stimuli stimuli =
      circuit::Stimuli::from_text(ctx.payload("Stimuli"));
  const circuit::SimResult result = circuit::run_compiled(program, stimuli);
  ToolOutput out;
  // Products under both naming schemes: Fig. 2's standalone schema calls
  // them Performance/Statistics, the full schema SwitchPerformance/... .
  out.set("Performance", result.to_text());
  out.set("Statistics", result.stats.to_text());
  out.set("SwitchPerformance", result.to_text());
  out.set("SwitchStatistics", result.stats.to_text());
  return out;
}

ToolOutput run_comparator(const ToolContext& ctx) {
  const circuit::SimResult golden =
      circuit::SimResult::from_text(ctx.payload("golden"));
  const circuit::SimResult candidate =
      circuit::SimResult::from_text(ctx.payload("candidate"));
  circuit::CompareOptions options;
  options.time_tolerance_ps = static_cast<std::int64_t>(
      arg_u64(ctx, "time_tolerance_ps", 0));
  ToolOutput out;
  out.set("PerformanceDiff",
          circuit::compare_performance(golden, candidate, options).to_text());
  return out;
}

ToolOutput run_synthesizer(const ToolContext& ctx) {
  const circuit::LogicView view =
      circuit::LogicView::from_text(ctx.payload("LogicView"));
  ToolOutput out;
  out.set("SynthesizedNetlist", circuit::synthesize(view).to_text());
  return out;
}

/// One function serving the three optimizer tools; the algorithm comes
/// from the encapsulation's fixed arguments (shared encapsulation, §3.3).
ToolOutput run_optimizer(const ToolContext& ctx) {
  const auto [models, netlist] = unpack_circuit(ctx.payload("Circuit"));
  const circuit::Stimuli stimuli =
      circuit::Stimuli::from_text(ctx.payload("Stimuli"));
  circuit::OptimizeOptions options;
  const std::string alg = ctx.arg("algorithm", "gradient");
  const auto parsed = circuit::opt_algorithm_from(alg);
  if (!parsed) {
    throw ExecError("optimizer: unknown algorithm '" + alg + "'");
  }
  options.algorithm = *parsed;
  options.iterations =
      static_cast<std::size_t>(arg_u64(ctx, "iterations", 20));
  options.seed = arg_u64(ctx, "seed", 1);
  const circuit::OptimizeResult result =
      circuit::optimize(netlist, models, stimuli, options);
  ToolOutput out;
  out.set("OptimizedNetlist", result.netlist.to_text());
  return out;
}

}  // namespace

void register_standard_tools(ToolRegistry& registry) {
  const schema::TaskSchema& schema = registry.schema();
  const auto add = [&](const char* tool, const char* variant,
                       ToolFunction fn,
                       std::unordered_map<std::string, std::string> args = {},
                       bool accepts_sets = false) {
    const schema::EntityTypeId type = schema.find(tool);
    if (!type.valid()) return;  // entity absent from this schema subset
    Encapsulation enc;
    enc.name = std::string(tool) + "." + variant;
    enc.tool_type = type;
    enc.fn = std::move(fn);
    enc.args = std::move(args);
    enc.accepts_instance_sets = accepts_sets;
    registry.register_encapsulation(std::move(enc));
  };

  add("ModelEditor", "default", run_model_editor);
  add("CircuitEditor", "default", run_circuit_editor);
  add("LayoutEditor", "default", run_layout_editor);
  add("Placer", "default", run_placer);
  // The paper's multiple-encapsulations-with-differing-arguments case.
  add("Placer", "fast", run_placer, {{"moves", "100"}});
  add("Placer", "quality", run_placer, {{"moves", "20000"}});
  add("Router", "default", run_router);
  add("Extractor", "default", run_extractor);
  add("Simulator", "default", run_simulator);
  add("Verifier", "default", run_verifier);
  add("Plotter", "default", run_plotter);
  // Same tool, different output format — another multiple-encapsulation
  // example alongside the placer variants.
  add("Plotter", "vcd", run_plotter, {{"format", "vcd"}});
  add("SimCompiler", "default", run_sim_compiler);
  add("CompiledSimulator", "default", run_compiled_simulator);
  add("Synthesizer", "default", run_synthesizer);
  add("Comparator", "default", run_comparator);
  add("Comparator", "loose", run_comparator,
      {{"time_tolerance_ps", "200"}});
  // Shared encapsulation: three tools, one function, differing arguments.
  add("GradientOptimizer", "default", run_optimizer,
      {{"algorithm", "gradient"}});
  add("AnnealingOptimizer", "default", run_optimizer,
      {{"algorithm", "annealing"}});
  add("RandomSearchOptimizer", "default", run_optimizer,
      {{"algorithm", "random"}});
}

void install_standard_compose_checks(schema::TaskSchema& schema) {
  const schema::EntityTypeId circuit_type = schema.find("Circuit");
  if (!circuit_type.valid()) return;
  schema.set_compose_check(
      circuit_type,
      [](const std::vector<std::string>& parts, std::string& why) {
        if (parts.size() != 2) {
          why = "Circuit needs exactly two components";
          return false;
        }
        try {
          const circuit::DeviceModelLibrary models =
              circuit::DeviceModelLibrary::from_text(parts[0]);
          const circuit::Netlist netlist =
              circuit::Netlist::from_text(parts[1]);
          for (const circuit::Device& d : netlist.devices()) {
            if (d.is_mos() && !models.has_model(d.model)) {
              why = "netlist device '" + d.name + "' needs model '" +
                    d.model + "' which the model library lacks";
              return false;
            }
          }
        } catch (const std::exception& e) {
          why = e.what();
          return false;
        }
        return true;
      });
  schema.set_decompose(circuit_type, [](const std::string& payload) {
    return split_composite(payload);
  });
}

}  // namespace herc::tools
