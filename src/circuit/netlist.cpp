#include "circuit/netlist.hpp"

#include <algorithm>
#include <charconv>

#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::circuit {

using support::ExecError;
using support::ParseError;

const char* to_string(DeviceType t) {
  switch (t) {
    case DeviceType::kNmos: return "nmos";
    case DeviceType::kPmos: return "pmos";
    case DeviceType::kResistor: return "res";
    case DeviceType::kCapacitor: return "cap";
  }
  return "?";
}

std::optional<DeviceType> device_type_from(std::string_view s) {
  if (s == "nmos") return DeviceType::kNmos;
  if (s == "pmos") return DeviceType::kPmos;
  if (s == "res") return DeviceType::kResistor;
  if (s == "cap") return DeviceType::kCapacitor;
  return std::nullopt;
}

Netlist::Netlist(std::string name) : name_(std::move(name)) {}

namespace {
bool is_rail(std::string_view net) { return net == kVdd || net == kGnd; }
}  // namespace

void Netlist::add_net(std::string_view net) {
  if (is_rail(net)) return;
  if (!has_net(net)) nets_.emplace_back(net);
}

void Netlist::add_input(std::string_view net) {
  add_net(net);
  if (std::find(inputs_.begin(), inputs_.end(), net) == inputs_.end()) {
    inputs_.emplace_back(net);
  }
}

void Netlist::add_output(std::string_view net) {
  add_net(net);
  if (std::find(outputs_.begin(), outputs_.end(), net) == outputs_.end()) {
    outputs_.emplace_back(net);
  }
}

bool Netlist::has_net(std::string_view net) const {
  if (is_rail(net)) return true;
  return std::find(nets_.begin(), nets_.end(), net) != nets_.end();
}

void Netlist::add_device(Device device) {
  if (device_index_.contains(device.name)) {
    throw ExecError("netlist '" + name_ + "': duplicate device '" +
                    device.name + "'");
  }
  for (const std::string& t : device.terminals) add_net(t);
  device_index_.emplace(device.name, devices_.size());
  devices_.push_back(std::move(device));
}

void Netlist::add_nmos(std::string_view name, std::string_view gate,
                       std::string_view drain, std::string_view source,
                       std::string_view model, double width) {
  Device d;
  d.name = std::string(name);
  d.type = DeviceType::kNmos;
  d.terminals = {std::string(gate), std::string(drain), std::string(source)};
  d.model = std::string(model);
  d.value = width;
  add_device(std::move(d));
}

void Netlist::add_pmos(std::string_view name, std::string_view gate,
                       std::string_view drain, std::string_view source,
                       std::string_view model, double width) {
  Device d;
  d.name = std::string(name);
  d.type = DeviceType::kPmos;
  d.terminals = {std::string(gate), std::string(drain), std::string(source)};
  d.model = std::string(model);
  d.value = width;
  add_device(std::move(d));
}

void Netlist::add_resistor(std::string_view name, std::string_view a,
                           std::string_view b, double ohms) {
  Device d;
  d.name = std::string(name);
  d.type = DeviceType::kResistor;
  d.terminals = {std::string(a), std::string(b)};
  d.value = ohms;
  add_device(std::move(d));
}

void Netlist::add_capacitor(std::string_view name, std::string_view a,
                            std::string_view b, double pf) {
  Device d;
  d.name = std::string(name);
  d.type = DeviceType::kCapacitor;
  d.terminals = {std::string(a), std::string(b)};
  d.value = pf;
  add_device(std::move(d));
}

void Netlist::remove_device(std::string_view name) {
  const auto it = device_index_.find(std::string(name));
  if (it == device_index_.end()) {
    throw ExecError("netlist '" + name_ + "': no device '" +
                    std::string(name) + "' to remove");
  }
  const std::size_t idx = it->second;
  devices_.erase(devices_.begin() + static_cast<std::ptrdiff_t>(idx));
  device_index_.erase(it);
  for (auto& [dev, i] : device_index_) {
    if (i > idx) --i;
  }
}

bool Netlist::has_device(std::string_view name) const {
  return device_index_.contains(std::string(name));
}

const Device& Netlist::device(std::string_view name) const {
  const auto it = device_index_.find(std::string(name));
  if (it == device_index_.end()) {
    throw ExecError("netlist '" + name_ + "': no device '" +
                    std::string(name) + "'");
  }
  return devices_[it->second];
}

Device& Netlist::device_mut(std::string_view name) {
  return const_cast<Device&>(
      static_cast<const Netlist*>(this)->device(name));
}

std::size_t Netlist::device_count(DeviceType t) const {
  std::size_t count = 0;
  for (const Device& d : devices_) count += (d.type == t) ? 1 : 0;
  return count;
}

std::size_t Netlist::mos_count() const {
  return device_count(DeviceType::kNmos) + device_count(DeviceType::kPmos);
}

double Netlist::net_capacitance(std::string_view net) const {
  double total = 0.0;
  for (const Device& d : devices_) {
    if (d.type != DeviceType::kCapacitor) continue;
    if (d.terminals[0] == net || d.terminals[1] == net) total += d.value;
  }
  return total;
}

void Netlist::validate() const {
  for (const Device& d : devices_) {
    const std::size_t want = d.is_mos() ? 3 : 2;
    if (d.terminals.size() != want) {
      throw ExecError("netlist '" + name_ + "': device '" + d.name +
                      "' has wrong terminal count");
    }
    for (const std::string& t : d.terminals) {
      if (!has_net(t)) {
        throw ExecError("netlist '" + name_ + "': device '" + d.name +
                        "' references unknown net '" + t + "'");
      }
    }
    if (d.is_mos() && d.model.empty()) {
      throw ExecError("netlist '" + name_ + "': MOS device '" + d.name +
                      "' has no model");
    }
    if (d.value <= 0) {
      throw ExecError("netlist '" + name_ + "': device '" + d.name +
                      "' has non-positive value");
    }
  }
  for (const std::string& in : inputs_) {
    if (!has_net(in)) {
      throw ExecError("netlist '" + name_ + "': unknown input net '" + in +
                      "'");
    }
  }
}

void Netlist::instantiate(
    const Netlist& other, std::string_view prefix,
    const std::unordered_map<std::string, std::string>& port_map) {
  const auto map_net = [&](const std::string& net) -> std::string {
    if (is_rail(net)) return net;
    const auto it = port_map.find(net);
    if (it != port_map.end()) return it->second;
    return std::string(prefix) + "." + net;
  };
  for (const std::string& net : other.nets_) add_net(map_net(net));
  for (const Device& d : other.devices_) {
    Device copy = d;
    copy.name = std::string(prefix) + "." + d.name;
    for (std::string& t : copy.terminals) t = map_net(t);
    add_device(std::move(copy));
  }
}

std::string Netlist::to_text() const {
  std::string out = "netlist " + name_ + "\n";
  for (const std::string& n : inputs_) out += "input " + n + "\n";
  for (const std::string& n : outputs_) out += "output " + n + "\n";
  for (const std::string& n : nets_) {
    if (std::find(inputs_.begin(), inputs_.end(), n) != inputs_.end()) {
      continue;
    }
    if (std::find(outputs_.begin(), outputs_.end(), n) != outputs_.end()) {
      continue;
    }
    out += "net " + n + "\n";
  }
  char buf[64];
  for (const Device& d : devices_) {
    out += to_string(d.type);
    out += ' ' + d.name;
    if (d.is_mos()) {
      out += " g=" + d.terminals[0] + " d=" + d.terminals[1] +
             " s=" + d.terminals[2] + " model=" + d.model;
    } else {
      out += " a=" + d.terminals[0] + " b=" + d.terminals[1];
    }
    std::snprintf(buf, sizeof(buf), "%.9g", d.value);
    out += " value=";
    out += buf;
    out += "\n";
  }
  return out;
}

namespace {

std::unordered_map<std::string, std::string> parse_kv(
    const std::vector<std::string>& tokens, std::size_t start,
    int line_number) {
  std::unordered_map<std::string, std::string> kv;
  for (std::size_t i = start; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      throw ParseError("netlist line " + std::to_string(line_number) +
                       ": expected key=value, got '" + tokens[i] + "'");
    }
    kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return kv;
}

double parse_value(const std::unordered_map<std::string, std::string>& kv,
                   int line_number) {
  const auto it = kv.find("value");
  if (it == kv.end()) return 1.0;
  const std::optional<double> v = support::parse_double(it->second);
  if (!v) {
    throw ParseError("netlist line " + std::to_string(line_number) +
                     ": bad value '" + it->second + "'");
  }
  return *v;
}

const std::string& require_kv(
    const std::unordered_map<std::string, std::string>& kv,
    const std::string& key, int line_number) {
  const auto it = kv.find(key);
  if (it == kv.end()) {
    throw ParseError("netlist line " + std::to_string(line_number) +
                     ": missing '" + key + "='");
  }
  return it->second;
}

}  // namespace

Netlist Netlist::from_text(std::string_view text) {
  Netlist nl;
  int line_number = 0;
  for (const std::string& raw : support::split(text, '\n')) {
    ++line_number;
    std::string_view body = support::trim(raw);
    const std::size_t hash = body.find('#');
    if (hash != std::string_view::npos) {
      body = support::trim(body.substr(0, hash));
    }
    if (body.empty()) continue;
    const auto tokens = support::split_ws(body);
    const std::string& head = tokens[0];
    if (head == "netlist") {
      if (tokens.size() != 2) {
        throw ParseError("netlist line " + std::to_string(line_number) +
                         ": expected 'netlist <name>'");
      }
      nl.name_ = tokens[1];
    } else if (head == "input" || head == "output" || head == "net") {
      if (tokens.size() != 2) {
        throw ParseError("netlist line " + std::to_string(line_number) +
                         ": expected '" + head + " <net>'");
      }
      if (head == "input") {
        nl.add_input(tokens[1]);
      } else if (head == "output") {
        nl.add_output(tokens[1]);
      } else {
        nl.add_net(tokens[1]);
      }
    } else if (const auto type = device_type_from(head)) {
      if (tokens.size() < 2) {
        throw ParseError("netlist line " + std::to_string(line_number) +
                         ": device needs a name");
      }
      const auto kv = parse_kv(tokens, 2, line_number);
      const double value = parse_value(kv, line_number);
      if (*type == DeviceType::kNmos || *type == DeviceType::kPmos) {
        const std::string& g = require_kv(kv, "g", line_number);
        const std::string& d = require_kv(kv, "d", line_number);
        const std::string& s = require_kv(kv, "s", line_number);
        const auto model_it = kv.find("model");
        const std::string model =
            model_it == kv.end()
                ? (*type == DeviceType::kNmos ? "nch" : "pch")
                : model_it->second;
        if (*type == DeviceType::kNmos) {
          nl.add_nmos(tokens[1], g, d, s, model, value);
        } else {
          nl.add_pmos(tokens[1], g, d, s, model, value);
        }
      } else {
        const std::string& a = require_kv(kv, "a", line_number);
        const std::string& b = require_kv(kv, "b", line_number);
        if (*type == DeviceType::kResistor) {
          nl.add_resistor(tokens[1], a, b, value);
        } else {
          nl.add_capacitor(tokens[1], a, b, value);
        }
      }
    } else {
      throw ParseError("netlist line " + std::to_string(line_number) +
                       ": unknown directive '" + head + "'");
    }
  }
  return nl;
}

}  // namespace herc::circuit
