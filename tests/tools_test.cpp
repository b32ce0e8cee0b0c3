// Tool encapsulation layer: registry resolution, composite payloads,
// context lookup.
#include <gtest/gtest.h>

#include "circuit/library.hpp"
#include "schema/standard_schemas.hpp"
#include "support/error.hpp"
#include "tools/composite.hpp"
#include "tools/registry.hpp"
#include "tools/standard_tools.hpp"

namespace herc::tools {
namespace {

using support::ExecError;

ToolOutput noop(const ToolContext&) { return ToolOutput(); }

TEST(Registry, RegistersAndResolves) {
  const schema::TaskSchema schema = schema::make_full_schema();
  ToolRegistry registry(schema);
  registry.register_encapsulation(
      Encapsulation{"Placer.default", schema.require("Placer"), noop, {},
                    false});
  EXPECT_TRUE(registry.has(schema.require("Placer")));
  EXPECT_EQ(registry.resolve(schema.require("Placer")).name,
            "Placer.default");
  EXPECT_FALSE(registry.has(schema.require("Verifier")));
  EXPECT_THROW((void)registry.resolve(schema.require("Verifier")), ExecError);
}

TEST(Registry, RejectsBadRegistrations) {
  const schema::TaskSchema schema = schema::make_full_schema();
  ToolRegistry registry(schema);
  // Non-tool entity.
  EXPECT_THROW(registry.register_encapsulation(
                   Encapsulation{"x", schema.require("Stimuli"), noop, {},
                                 false}),
               ExecError);
  // Missing function.
  EXPECT_THROW(registry.register_encapsulation(
                   Encapsulation{"y", schema.require("Placer"), nullptr, {},
                                 false}),
               ExecError);
  registry.register_encapsulation(
      Encapsulation{"dup", schema.require("Placer"), noop, {}, false});
  EXPECT_THROW(registry.register_encapsulation(
                   Encapsulation{"dup", schema.require("Placer"), noop, {},
                                 false}),
               ExecError);
}

TEST(Registry, SubtypeResolutionSharesEncapsulation) {
  // One registration on abstract Optimizer serves every concrete subtype
  // (the paper's shared encapsulation).
  const schema::TaskSchema schema = schema::make_full_schema();
  ToolRegistry registry(schema);
  registry.register_encapsulation(
      Encapsulation{"Optimizer.shared", schema.require("Optimizer"), noop,
                    {}, false});
  EXPECT_EQ(registry.resolve(schema.require("GradientOptimizer")).name,
            "Optimizer.shared");
  EXPECT_EQ(registry.resolve(schema.require("AnnealingOptimizer")).name,
            "Optimizer.shared");
  // A more specific registration takes precedence.
  registry.register_encapsulation(
      Encapsulation{"Gradient.special", schema.require("GradientOptimizer"),
                    noop, {}, false});
  EXPECT_EQ(registry.resolve(schema.require("GradientOptimizer")).name,
            "Gradient.special");
  EXPECT_EQ(registry.resolve(schema.require("AnnealingOptimizer")).name,
            "Optimizer.shared");
}

TEST(Registry, VariantsAndDefaults) {
  const schema::TaskSchema schema = schema::make_full_schema();
  ToolRegistry registry(schema);
  tools::register_standard_tools(registry);
  // The placer ships three variants differing only in arguments.
  const auto variants = registry.variants(schema.require("Placer"));
  ASSERT_EQ(variants.size(), 3u);
  EXPECT_EQ(registry.resolve(schema.require("Placer")).name,
            "Placer.default");
  registry.set_default("Placer.fast");
  EXPECT_EQ(registry.resolve(schema.require("Placer")).name, "Placer.fast");
  EXPECT_EQ(registry.resolve(schema.require("Placer")).args.at("moves"),
            "100");
  EXPECT_THROW(registry.set_default("Placer.imaginary"), ExecError);
  EXPECT_NE(registry.find("Placer.quality"), nullptr);
  EXPECT_EQ(registry.find("nothing"), nullptr);
  EXPECT_FALSE(registry.names().empty());
}

TEST(Composite, JoinSplitRoundTrip) {
  const std::vector<std::string> parts{
      "first", "", "with\nnewlines and @part markers\n@composite 2\n",
      std::string(1000, 'x')};
  const std::string packed = join_composite(parts);
  EXPECT_EQ(split_composite(packed), parts);
}

TEST(Composite, RejectsMalformedPayloads) {
  EXPECT_THROW(split_composite("not a composite"), ExecError);
  EXPECT_THROW(split_composite("@composite abc\n"), ExecError);
  EXPECT_THROW(split_composite("@composite 2\n@part 5\nabc"), ExecError);
  EXPECT_THROW(split_composite("@composite 2\n@part 1\na\n"), ExecError);
  // Counts and lengths are whole, unsigned, unpadded numbers: a suffix or
  // a sign is malformed, and no length may wrap past the bounds check
  // (which would read the next part's marker as this part's body).
  EXPECT_THROW(split_composite("@composite 2x\n@part 1\na\n@part 1\nb\n"),
               ExecError);
  EXPECT_THROW(split_composite("@composite 1\n@part 1x\na\n"), ExecError);
  EXPECT_THROW(split_composite("@composite 1\n@part +1\na\n"), ExecError);
  EXPECT_THROW(split_composite("@composite 2\n@part -1\n@part 1\nb\n"),
               ExecError);
  EXPECT_THROW(split_composite(
                   "@composite 2\n@part 18446744073709551615\n@part 1\nb\n"),
               ExecError);
}

TEST(ToolContext, LookupByRoleTypeAndSubtype) {
  const schema::TaskSchema schema = schema::make_full_schema();
  ToolContext ctx;
  ctx.schema = &schema;
  ctx.tool_type_name = "T";
  ToolInput seed;
  seed.type = schema.require("ExtractedNetlist");
  seed.type_name = "ExtractedNetlist";
  seed.role = "seed";
  seed.payloads = {"p1"};
  ctx.inputs.push_back(seed);
  // By role.
  EXPECT_EQ(ctx.payload("seed"), "p1");
  // By exact type name.
  EXPECT_EQ(ctx.payload("ExtractedNetlist"), "p1");
  // By supertype name (the subtype-tolerant fallback).
  EXPECT_EQ(ctx.payload("Netlist"), "p1");
  EXPECT_TRUE(ctx.has_input("Netlist"));
  EXPECT_FALSE(ctx.has_input("Layout"));
  EXPECT_THROW((void)ctx.input("Layout"), ExecError);
  // Sets refuse the single-payload accessor.
  ctx.inputs[0].payloads.push_back("p2");
  EXPECT_THROW((void)ctx.payload("seed"), ExecError);
  // Argument defaults.
  ctx.args["k"] = "v";
  EXPECT_EQ(ctx.arg("k"), "v");
  EXPECT_EQ(ctx.arg("missing", "fallback"), "fallback");
}

TEST(ToolOutput, SetReplacesAndFinds) {
  ToolOutput out;
  out.set("A", "1");
  out.set("B", "2");
  out.set("A", "3");
  ASSERT_NE(out.find("A"), nullptr);
  EXPECT_EQ(*out.find("A"), "3");
  EXPECT_EQ(out.find("C"), nullptr);
  EXPECT_EQ(out.products().size(), 2u);
}

TEST(StandardTools, RegistersOnlyEntitiesPresentInSchema) {
  // The Fig. 2 schema lacks most Fig. 1 tools; registration must skip them.
  const schema::TaskSchema fig2 = schema::make_fig2_schema();
  ToolRegistry registry(fig2);
  register_standard_tools(registry);
  EXPECT_TRUE(registry.has(fig2.require("SimCompiler")));
  EXPECT_TRUE(registry.has(fig2.require("CompiledSimulator")));
  EXPECT_EQ(registry.find("Placer.default"), nullptr);
}

TEST(StandardTools, NumericArgumentsMustBeWholeInRangeNumbers) {
  const schema::TaskSchema schema = schema::make_full_schema();
  ToolRegistry registry(schema);
  register_standard_tools(registry);
  const Encapsulation* placer = registry.find("Placer.default");
  ASSERT_NE(placer, nullptr);
  ToolContext ctx;
  ctx.schema = &schema;
  ctx.tool_type_name = "Placer";
  ToolInput netlist;
  netlist.type = schema.require("EditedNetlist");
  netlist.type_name = "EditedNetlist";
  netlist.role = "Netlist";
  netlist.payloads = {circuit::inverter_netlist().to_text()};
  ctx.inputs.push_back(netlist);
  ctx.args["moves"] = "10";
  ctx.args["seed"] = "7";
  EXPECT_NO_THROW((void)placer->fn(ctx));
  for (const std::string bad :
       {"12abc", "-1", "+7", " 7", "18446744073709551616"}) {
    ctx.args["seed"] = bad;
    try {
      (void)placer->fn(ctx);
      ADD_FAILURE() << "seed='" << bad << "' was accepted";
    } catch (const ExecError& e) {
      EXPECT_NE(std::string(e.what()).find("bad argument seed='" + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }

  // A real-valued argument must be one whole, finite number too.
  ctx.args["seed"] = "7";
  const ToolOutput placement = placer->fn(ctx);
  const std::string* placed = placement.find("PlacedLayout");
  ASSERT_NE(placed, nullptr);
  const Encapsulation* extractor = registry.find("Extractor.default");
  ASSERT_NE(extractor, nullptr);
  ToolContext extract;
  extract.schema = &schema;
  extract.tool_type_name = "Extractor";
  ToolInput layout;
  layout.type = schema.require("PlacedLayout");
  layout.type_name = "PlacedLayout";
  layout.role = "Layout";
  layout.payloads = {*placed};
  extract.inputs.push_back(layout);
  extract.args["cap_per_unit_pf"] = "1.5";
  EXPECT_NO_THROW((void)extractor->fn(extract));
  for (const std::string bad :
       {"1.5x", "nan", "inf", "+1.5", " 1.5", "1e999"}) {
    extract.args["cap_per_unit_pf"] = bad;
    try {
      (void)extractor->fn(extract);
      ADD_FAILURE() << "cap_per_unit_pf='" << bad << "' was accepted";
    } catch (const ExecError& e) {
      EXPECT_NE(std::string(e.what()).find("bad argument cap_per_unit_pf='" +
                                           bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(StandardTools, ComposeCheckInstalledOnCircuit) {
  schema::TaskSchema schema = schema::make_full_schema();
  install_standard_compose_checks(schema);
  const auto* check = schema.compose_check(schema.require("Circuit"));
  ASSERT_NE(check, nullptr);
  std::string why;
  EXPECT_FALSE((*check)({"just one part"}, why));
  EXPECT_FALSE(why.empty());
  // The decompose hook mirrors split_composite.
  const auto* decompose = schema.decompose(schema.require("Circuit"));
  ASSERT_NE(decompose, nullptr);
  const auto parts = (*decompose)(join_composite({"a", "b"}));
  EXPECT_EQ(parts, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace herc::tools
