#include "circuit/logic_view.hpp"

#include <algorithm>

#include "circuit/library.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::circuit {

using support::ExecError;
using support::ParseError;

const char* to_string(GateKind k) {
  switch (k) {
    case GateKind::kInv: return "inv";
    case GateKind::kNand2: return "nand2";
    case GateKind::kNor2: return "nor2";
    case GateKind::kAnd2: return "and2";
    case GateKind::kOr2: return "or2";
    case GateKind::kXor2: return "xor2";
  }
  return "?";
}

std::optional<GateKind> gate_kind_from(std::string_view s) {
  if (s == "inv") return GateKind::kInv;
  if (s == "nand2") return GateKind::kNand2;
  if (s == "nor2") return GateKind::kNor2;
  if (s == "and2") return GateKind::kAnd2;
  if (s == "or2") return GateKind::kOr2;
  if (s == "xor2") return GateKind::kXor2;
  return std::nullopt;
}

LogicView::LogicView(std::string name) : name_(std::move(name)) {}

void LogicView::add_input(std::string_view net) {
  if (std::find(inputs_.begin(), inputs_.end(), net) == inputs_.end()) {
    inputs_.emplace_back(net);
  }
}

void LogicView::add_output(std::string_view net) {
  if (std::find(outputs_.begin(), outputs_.end(), net) == outputs_.end()) {
    outputs_.emplace_back(net);
  }
}

void LogicView::add_gate(LogicGate gate) {
  for (const LogicGate& g : gates_) {
    if (g.name == gate.name) {
      throw ExecError("logic view '" + name_ + "': duplicate gate '" +
                      gate.name + "'");
    }
  }
  gates_.push_back(std::move(gate));
}

void LogicView::validate() const {
  for (const LogicGate& g : gates_) {
    const bool unary = g.kind == GateKind::kInv;
    const std::vector<std::string> want =
        unary ? std::vector<std::string>{"a", "y"}
              : std::vector<std::string>{"a", "b", "y"};
    for (const std::string& pin : want) {
      if (!g.pins.contains(pin)) {
        throw ExecError("logic view '" + name_ + "': gate '" + g.name +
                        "' is missing pin '" + pin + "'");
      }
    }
    if (g.pins.size() != want.size()) {
      throw ExecError("logic view '" + name_ + "': gate '" + g.name +
                      "' has unexpected pins");
    }
  }
  // Each output must be driven by exactly one gate.
  for (const std::string& out : outputs_) {
    std::size_t drivers = 0;
    for (const LogicGate& g : gates_) {
      drivers += (g.pins.at("y") == out) ? 1 : 0;
    }
    if (drivers != 1) {
      throw ExecError("logic view '" + name_ + "': output '" + out +
                      "' has " + std::to_string(drivers) + " drivers");
    }
  }
}

std::string LogicView::to_text() const {
  std::string out = "logic " + name_ + "\n";
  if (!inputs_.empty()) {
    out += "input " + support::join(inputs_, " ") + "\n";
  }
  if (!outputs_.empty()) {
    out += "output " + support::join(outputs_, " ") + "\n";
  }
  for (const LogicGate& g : gates_) {
    out += "gate " + g.name + " ";
    out += to_string(g.kind);
    // Stable pin order.
    for (const char* pin : {"a", "b", "y"}) {
      const auto it = g.pins.find(pin);
      if (it != g.pins.end()) {
        out += ' ';
        out += pin;
        out += '=';
        out += it->second;
      }
    }
    out += "\n";
  }
  return out;
}

LogicView LogicView::from_text(std::string_view text) {
  LogicView view;
  int line_number = 0;
  for (const std::string& raw : support::split(text, '\n')) {
    ++line_number;
    const std::string_view body = support::trim(raw);
    if (body.empty() || body[0] == '#') continue;
    const auto tokens = support::split_ws(body);
    if (tokens[0] == "logic") {
      if (tokens.size() != 2) {
        throw ParseError("logic line " + std::to_string(line_number) +
                         ": expected 'logic <name>'");
      }
      view.name_ = tokens[1];
    } else if (tokens[0] == "input" || tokens[0] == "output") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (tokens[0] == "input") {
          view.add_input(tokens[i]);
        } else {
          view.add_output(tokens[i]);
        }
      }
    } else if (tokens[0] == "gate") {
      if (tokens.size() < 3) {
        throw ParseError("logic line " + std::to_string(line_number) +
                         ": expected 'gate <name> <kind> pins...'");
      }
      LogicGate g;
      g.name = tokens[1];
      const auto kind = gate_kind_from(tokens[2]);
      if (!kind) {
        throw ParseError("logic line " + std::to_string(line_number) +
                         ": unknown gate kind '" + tokens[2] + "'");
      }
      g.kind = *kind;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        const std::size_t eq = tokens[i].find('=');
        if (eq == std::string::npos) {
          throw ParseError("logic line " + std::to_string(line_number) +
                           ": expected pin=net");
        }
        g.pins[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
      }
      view.add_gate(std::move(g));
    } else {
      throw ParseError("logic line " + std::to_string(line_number) +
                       ": unknown directive '" + tokens[0] + "'");
    }
  }
  return view;
}

Netlist synthesize(const LogicView& view) {
  view.validate();
  Netlist nl(view.name() + "_syn");
  for (const std::string& in : view.inputs()) nl.add_input(in);
  for (const std::string& out : view.outputs()) nl.add_output(out);

  const Netlist inv = inverter_netlist();
  const Netlist nand2 = nand2_netlist();
  const Netlist nor2 = nor2_netlist();
  const Netlist xor2 = xor2_netlist();

  for (const LogicGate& g : view.gates()) {
    const std::string& y = g.pins.at("y");
    switch (g.kind) {
      case GateKind::kInv:
        nl.instantiate(inv, g.name, {{"in", g.pins.at("a")}, {"out", y}});
        break;
      case GateKind::kNand2:
        nl.instantiate(nand2, g.name,
                       {{"a", g.pins.at("a")}, {"b", g.pins.at("b")},
                        {"y", y}});
        break;
      case GateKind::kNor2:
        nl.instantiate(nor2, g.name,
                       {{"a", g.pins.at("a")}, {"b", g.pins.at("b")},
                        {"y", y}});
        break;
      case GateKind::kAnd2: {
        // nand + inverter through a private internal net.
        const std::string mid = g.name + ".n";
        nl.instantiate(nand2, g.name + ".g",
                       {{"a", g.pins.at("a")}, {"b", g.pins.at("b")},
                        {"y", mid}});
        nl.instantiate(inv, g.name + ".i", {{"in", mid}, {"out", y}});
        break;
      }
      case GateKind::kOr2: {
        const std::string mid = g.name + ".n";
        nl.instantiate(nor2, g.name + ".g",
                       {{"a", g.pins.at("a")}, {"b", g.pins.at("b")},
                        {"y", mid}});
        nl.instantiate(inv, g.name + ".i", {{"in", mid}, {"out", y}});
        break;
      }
      case GateKind::kXor2:
        nl.instantiate(xor2, g.name,
                       {{"a", g.pins.at("a")}, {"b", g.pins.at("b")},
                        {"y", y}});
        break;
    }
  }
  nl.validate();
  return nl;
}

LogicView full_adder_logic() {
  LogicView view("full_adder");
  view.add_input("a");
  view.add_input("b");
  view.add_input("cin");
  view.add_output("sum");
  view.add_output("cout");
  view.add_gate(LogicGate{"x1", GateKind::kXor2,
                          {{"a", "a"}, {"b", "b"}, {"y", "p"}}});
  view.add_gate(LogicGate{"x2", GateKind::kXor2,
                          {{"a", "p"}, {"b", "cin"}, {"y", "sum"}}});
  view.add_gate(LogicGate{"c1", GateKind::kNand2,
                          {{"a", "a"}, {"b", "b"}, {"y", "g1"}}});
  view.add_gate(LogicGate{"c2", GateKind::kNand2,
                          {{"a", "p"}, {"b", "cin"}, {"y", "g2"}}});
  view.add_gate(LogicGate{"c3", GateKind::kNand2,
                          {{"a", "g1"}, {"b", "g2"}, {"y", "cout"}}});
  return view;
}

}  // namespace herc::circuit
