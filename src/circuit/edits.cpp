#include "circuit/edits.hpp"

#include <unordered_map>

#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::circuit {

using support::ExecError;
using support::ParseError;

namespace {

struct ScriptLine {
  int number;
  std::vector<std::string> tokens;
};

std::vector<ScriptLine> tokenize(std::string_view script) {
  std::vector<ScriptLine> lines;
  int number = 0;
  for (const std::string& raw : support::split(script, '\n')) {
    ++number;
    std::string_view body = support::trim(raw);
    const std::size_t hash = body.find('#');
    if (hash != std::string_view::npos) {
      body = support::trim(body.substr(0, hash));
    }
    if (body.empty()) continue;
    lines.push_back(ScriptLine{number, support::split_ws(body)});
  }
  return lines;
}

[[noreturn]] void fail(const ScriptLine& line, const std::string& msg) {
  throw ParseError("edit line " + std::to_string(line.number) + ": " + msg);
}

std::unordered_map<std::string, std::string> kv_of(const ScriptLine& line,
                                                   std::size_t start) {
  std::unordered_map<std::string, std::string> kv;
  for (std::size_t i = start; i < line.tokens.size(); ++i) {
    const std::size_t eq = line.tokens[i].find('=');
    if (eq == std::string::npos) {
      fail(line, "expected key=value, got '" + line.tokens[i] + "'");
    }
    kv[line.tokens[i].substr(0, eq)] = line.tokens[i].substr(eq + 1);
  }
  return kv;
}

double to_double(const ScriptLine& line, const std::string& s) {
  const std::optional<double> v = support::parse_double(s);
  if (!v) fail(line, "bad number '" + s + "'");
  return *v;
}

int to_int(const ScriptLine& line, const std::string& s) {
  const std::optional<int> v = support::parse_int<int>(s);
  if (!v) fail(line, "bad integer '" + s + "'");
  return *v;
}

}  // namespace

Netlist apply_netlist_edits(const Netlist& base, std::string_view script) {
  Netlist out = base;
  for (const ScriptLine& line : tokenize(script)) {
    const auto& t = line.tokens;
    if (t[0] == "name") {
      if (t.size() != 2) fail(line, "expected 'name <name>'");
      out.set_name(t[1]);
    } else if (t[0] == "input" || t[0] == "output" || t[0] == "net") {
      if (t.size() != 2) fail(line, "expected '" + t[0] + " <net>'");
      if (t[0] == "input") {
        out.add_input(t[1]);
      } else if (t[0] == "output") {
        out.add_output(t[1]);
      } else {
        out.add_net(t[1]);
      }
    } else if (t[0] == "add") {
      if (t.size() < 3) fail(line, "expected 'add <type> <name> ...'");
      const auto type = device_type_from(t[1]);
      if (!type) fail(line, "unknown device type '" + t[1] + "'");
      const auto kv = kv_of(line, 3);
      const auto get = [&](const char* key) -> const std::string& {
        const auto it = kv.find(key);
        if (it == kv.end()) fail(line, "missing '" + std::string(key) + "='");
        return it->second;
      };
      const double value =
          kv.contains("value") ? to_double(line, kv.at("value")) : 1.0;
      switch (*type) {
        case DeviceType::kNmos:
          out.add_nmos(t[2], get("g"), get("d"), get("s"),
                       kv.contains("model") ? kv.at("model") : "nch", value);
          break;
        case DeviceType::kPmos:
          out.add_pmos(t[2], get("g"), get("d"), get("s"),
                       kv.contains("model") ? kv.at("model") : "pch", value);
          break;
        case DeviceType::kResistor:
          out.add_resistor(t[2], get("a"), get("b"), value);
          break;
        case DeviceType::kCapacitor:
          out.add_capacitor(t[2], get("a"), get("b"), value);
          break;
      }
    } else if (t[0] == "del") {
      if (t.size() != 2) fail(line, "expected 'del <device>'");
      out.remove_device(t[1]);
    } else if (t[0] == "set") {
      if (t.size() < 3) fail(line, "expected 'set <device> key=value...'");
      Device& d = out.device_mut(t[1]);
      for (const auto& [key, value] : kv_of(line, 2)) {
        if (key == "value") {
          d.value = to_double(line, value);
        } else if (key == "model") {
          if (!d.is_mos()) fail(line, "only MOS devices have models");
          d.model = value;
        } else {
          fail(line, "unknown attribute '" + key + "'");
        }
      }
    } else {
      fail(line, "unknown edit command '" + t[0] + "'");
    }
  }
  out.validate();
  return out;
}

Layout apply_layout_edits(const Layout& base, std::string_view script) {
  Layout out = base;
  for (const ScriptLine& line : tokenize(script)) {
    const auto& t = line.tokens;
    if (t[0] == "move") {
      if (t.size() != 4) fail(line, "expected 'move <device> <x> <y>'");
      out.move(t[1], to_int(line, t[2]), to_int(line, t[3]));
    } else if (t[0] == "unplace") {
      if (t.size() != 2) fail(line, "expected 'unplace <device>'");
      out.unplace(t[1]);
    } else if (t[0] == "resize") {
      if (t.size() != 3) fail(line, "expected 'resize <rows> <cols>'");
      out.resize(to_int(line, t[1]), to_int(line, t[2]));
    } else if (t[0] == "place") {
      // Same grammar as the layout file's `place` line.
      if (t.size() < 3) fail(line, "expected 'place <name> <type> ...'");
      const auto type = device_type_from(t[2]);
      if (!type) fail(line, "unknown device type '" + t[2] + "'");
      const auto kv = kv_of(line, 3);
      const auto get = [&](const char* key) -> const std::string& {
        const auto it = kv.find(key);
        if (it == kv.end()) fail(line, "missing '" + std::string(key) + "='");
        return it->second;
      };
      Device d;
      d.name = t[1];
      d.type = *type;
      if (d.is_mos()) {
        d.terminals = {get("g"), get("d"), get("s")};
        d.model = kv.contains("model")
                      ? kv.at("model")
                      : (d.type == DeviceType::kNmos ? "nch" : "pch");
      } else {
        d.terminals = {get("a"), get("b")};
      }
      if (kv.contains("value")) d.value = to_double(line, kv.at("value"));
      out.place(d, to_int(line, get("x")), to_int(line, get("y")));
    } else if (t[0] == "pin") {
      if (t.size() < 2) fail(line, "pin needs a net");
      const auto kv = kv_of(line, 2);
      const auto get = [&](const char* key) -> const std::string& {
        const auto it = kv.find(key);
        if (it == kv.end()) fail(line, "missing '" + std::string(key) + "='");
        return it->second;
      };
      out.add_pin(t[1], to_int(line, get("x")), to_int(line, get("y")),
                  get("dir") == "out");
    } else {
      fail(line, "unknown edit command '" + t[0] + "'");
    }
  }
  return out;
}

DeviceModelLibrary apply_model_edits(const DeviceModelLibrary& base,
                                     std::string_view script) {
  DeviceModelLibrary out = base;
  for (const ScriptLine& line : tokenize(script)) {
    const auto& t = line.tokens;
    if (t[0] == "set" || t[0] == "model") {
      if (t.size() < 2) fail(line, "expected '" + t[0] + " <model> ...'");
      DeviceModel m = out.has_model(t[1]) ? out.model(t[1]) : DeviceModel{};
      m.name = t[1];
      for (const auto& [key, value] : kv_of(line, 2)) {
        if (key == "type") {
          m.is_pmos = (value == "pmos");
        } else if (key == "resistance") {
          m.resistance_kohm = to_double(line, value);
        } else if (key == "threshold") {
          m.threshold_v = to_double(line, value);
        } else {
          fail(line, "unknown attribute '" + key + "'");
        }
      }
      out.set_model(std::move(m));
    } else if (t[0] == "del") {
      if (t.size() != 2) fail(line, "expected 'del <model>'");
      out.remove_model(t[1]);
    } else {
      fail(line, "unknown edit command '" + t[0] + "'");
    }
  }
  return out;
}

}  // namespace herc::circuit
